//! The five workloads: set-up, the measurement window, and the
//! correctness gate. `layers.rs` reuses all three for the traced run.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use ivme_core::{DeltaBatch, EngineOptions, IvmEngine};
use ivme_server::Server;
use ivme_workload::{Client, Script};

use crate::decl;
use crate::drive::{
    self, check_server, digest, drive, oracle, request_ok, ClientOp, Driven, ResultDigest, Scratch,
    Traffic, Window,
};
use crate::inputs::{self, Instance, Sizes};
use crate::stats::{self, summarize, Timed};

/// Set-up runs this many times per run; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 31;
/// Untimed warm-up before the window (split between the two phases of
/// `read-quiescent`).
pub const WARMUP: Duration = Duration::from_secs(2);

/// engine-direct: batches between read rounds, and what a read round does.
const DIRECT_BATCHES_PER_ROUND: usize = 16;
const DIRECT_ENUM_TUPLES: usize = 1000;
const DIRECT_GETS_PER_ROUND: usize = 16;
/// engine-direct keeps the per-`next()` gaps of every n-th enumeration
/// (all of them would be ~20 MB of samples inside `peak_rss_mb`).
const DIRECT_GAP_STRIDE: usize = 8;

pub struct RunSpec {
    pub workload: &'static str,
    pub seed: u64,
    /// Untimed warm-up before the window ([`WARMUP`] outside tests).
    pub warmup: Duration,
    pub seconds: f64,
    pub sizes: Sizes,
}

/// What a run reports: the contract's three verdict fields plus every
/// value it measured, by metric name.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub values: BTreeMap<&'static str, f64>,
    /// Human-readable lines: sample counts, gate failures.
    pub notes: Vec<String>,
}

/// One measurement window's samples: the client-side view every
/// workload has, plus what only engine-direct's enumeration sees.
pub struct Measured {
    pub d: Driven,
    /// engine-direct only: sampled per-`next()` gaps, the largest gap of
    /// all, each enumeration's first gap, tuples enumerated and the
    /// nanoseconds that took.
    pub enum_gaps: Vec<u64>,
    pub enum_gap_max: u64,
    pub enum_first: Vec<u64>,
    pub enum_tuples: u64,
    pub enum_ns: u64,
}

impl Measured {
    fn new() -> Measured {
        Measured {
            d: Driven::default(),
            enum_gaps: Vec::new(),
            enum_gap_max: 0,
            enum_first: Vec::new(),
            enum_tuples: 0,
            enum_ns: 0,
        }
    }

    /// Every client-side value, plus a note for each latency with its
    /// sample count. Commits: the stream's distinct steps each at their
    /// fastest repeat ([`stats::fastest_by_key`]) — `commit_p50_us` is the
    /// median over the steps, `write_updates_per_s` the updates of one
    /// round of the stream over the time that round takes at those speeds
    /// (the writer is closed loop, so its throughput is the inverse of its
    /// mean commit time). Reads, and every tail: the whole window. Which
    /// of the values a run's result line carries is the declarations'
    /// business.
    pub fn client_side(&self, values: &mut BTreeMap<&'static str, f64>, notes: &mut Vec<String>) {
        let summary =
            |samples: &[Timed]| summarize(&mut samples.iter().map(|t| t.ns).collect::<Vec<_>>());
        // Every script of a workload carries the same number of updates.
        let per_commit = self.d.updates as f64 / self.d.commits.len().max(1) as f64;
        let mut fastest = stats::fastest_by_key(&self.d.commits);
        let round_ns: u64 = fastest.iter().sum();
        let whole = summary(&self.d.commits);
        values.insert(
            "write_updates_per_s",
            per_commit * fastest.len() as f64 / (round_ns as f64 / 1e9).max(1e-9),
        );
        values.insert("commit_p50_us", stats::p50(&mut fastest) / 1e3);
        values.insert("commit_p99_us", whole.tail / 1e3);
        notes.push(format!(
            "commit_p50_us = {:.1} us (median of {} distinct commits, each the fastest of ~{} \
             repeats; whole-window median {:.1}); commit_p99_us = {:.1} us ({} samples, tail at \
             p{}, max {:.1})",
            values["commit_p50_us"],
            fastest.len(),
            whole.count / fastest.len().max(1),
            whole.p50 / 1e3,
            whole.tail / 1e3,
            whole.count,
            whole.tail_q * 100.0,
            whole.max / 1e3
        ));
        for (p50, p99, samples) in [
            ("get_p50_us", "get_p99_us", &self.d.gets),
            ("page_p50_us", "page_p99_us", &self.d.pages),
        ] {
            let whole = summary(samples);
            values.insert(p50, whole.p50 / 1e3);
            values.insert(p99, whole.tail / 1e3);
            notes.push(format!(
                "{p50} = {:.1} us; {p99} = {:.1} us ({} samples, tail at p{}, max {:.1})",
                whole.p50 / 1e3,
                whole.tail / 1e3,
                whole.count,
                whole.tail_q * 100.0,
                whole.max / 1e3
            ));
        }
    }
}

/// A set-up workload, ready to measure.
pub enum Rig {
    Direct(Box<DirectRig>),
    Served(Box<ServedRig>),
}

pub struct DirectRig {
    pub inst: Instance,
    pub batches: Vec<[DeltaBatch; 2]>,
    pub engine: IvmEngine,
    pub steps: usize,
}

pub struct ServedRig {
    pub workload: &'static str,
    pub inst: Instance,
    pub scripts: Vec<[Script; 2]>,
    pub server: Server,
    /// CSVs the server loaded, and the data dir of `omv-durable`.
    pub scratch: Scratch,
    pub data_dir: Option<PathBuf>,
    pub steps: usize,
}

pub fn instance_for(workload: &str, seed: u64, sizes: &Sizes) -> Instance {
    match workload {
        decl::OMV_MEM | decl::OMV_DURABLE => inputs::omv(seed, sizes),
        _ => inputs::two_path(seed, sizes),
    }
}

/// Set-up: generate the inputs from the seed, then start, load and build
/// whatever the workload runs against.
pub fn set_up(spec: &RunSpec) -> Result<Rig, String> {
    let inst = instance_for(spec.workload, spec.seed, &spec.sizes);
    if spec.workload == decl::ENGINE_DIRECT {
        let q = ivme_query::parse_query(inst.query).map_err(|e| e.to_string())?;
        let engine = IvmEngine::new(&q, &inst.base_db(), EngineOptions::dynamic(0.5))
            .map_err(|e| e.to_string())?;
        return Ok(Rig::Direct(Box::new(DirectRig {
            batches: inst.delta_batches(),
            inst,
            engine,
            steps: 0,
        })));
    }
    let scratch = Scratch::new(spec.workload).map_err(|e| e.to_string())?;
    let data_dir = (spec.workload == decl::OMV_DURABLE).then(|| scratch.path().join("data"));
    let server = drive::start_loaded(&inst, data_dir.as_deref(), scratch.path())?;
    Ok(Rig::Served(Box::new(ServedRig {
        workload: spec.workload,
        scripts: inst.scripts(),
        inst,
        server,
        scratch,
        data_dir,
        steps: 0,
    })))
}

/// Runs [`set_up`] `SETUP_REPEATS` times and keeps the last rig; returns
/// the median set-up time in seconds.
pub fn set_up_repeated(spec: &RunSpec) -> Result<(Rig, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut rig = None;
    for _ in 0..SETUP_REPEATS {
        drop(rig.take()); // stop the previous server before timing the next
        let t0 = Instant::now();
        rig = Some(set_up(spec)?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((rig.expect("SETUP_REPEATS > 0"), stats::median(&mut times)))
}

impl Rig {
    /// One warm-up plus one window of the workload's traffic.
    pub fn measure(&mut self, warmup: Duration, window: Duration, keep_ops: bool) -> Measured {
        match self {
            Rig::Direct(r) => r.measure(warmup, window, keep_ops),
            Rig::Served(r) => r.measure(warmup, window, keep_ops),
        }
    }

    pub fn inst(&self) -> &Instance {
        match self {
            Rig::Direct(r) => &r.inst,
            Rig::Served(r) => &r.inst,
        }
    }

    pub fn steps(&self) -> usize {
        match self {
            Rig::Direct(r) => r.steps,
            Rig::Served(r) => r.steps,
        }
    }

    /// The correctness gate: the enumerated or served result against the
    /// recompute oracle over the replay's current database, and
    /// `misroutes = 0`.
    pub fn check(&self) -> Result<(), String> {
        let want = oracle(self.inst().query, &self.inst().db_after(self.steps()));
        match self {
            Rig::Direct(r) => r.check(want),
            Rig::Served(r) => check_server(r.server.addr(), want),
        }
    }
}

impl DirectRig {
    /// One thread does everything in turn: 16 batches, then an
    /// enumeration of the first 1,000 tuples, 16 lookups and one page.
    fn measure(&mut self, warmup: Duration, window: Duration, keep_ops: bool) -> Measured {
        let win = Window::after_warmup(warmup, window, keep_ops);
        let mut m = Measured::new();
        let mut gaps: Vec<u64> = Vec::with_capacity(DIRECT_ENUM_TUPLES);
        let mut round = 0usize;
        let ns = |from: Instant, to: Instant| (to - from).as_nanos() as u64;
        let op = |d: &mut Driven, name, start, end, request| {
            if keep_ops {
                d.ops.push(ClientOp {
                    name,
                    start,
                    end,
                    request,
                });
            }
        };
        while Instant::now() < win.end {
            for _ in 0..DIRECT_BATCHES_PER_ROUND {
                let (i, retract) = self.inst.step(self.steps);
                let batch = &self.batches[i][retract as usize];
                let t0 = Instant::now();
                let res = self.engine.apply_delta_batch(batch);
                let t1 = Instant::now();
                let timed = win.holds(t0, t1);
                m.d.attempted += timed as u64;
                if res.is_err() {
                    m.d.failed += 1;
                    return m;
                }
                self.steps += 1;
                if timed {
                    let key = self.inst.step_key(self.steps - 1);
                    m.d.commits.push(win.timed(t0, t1, key));
                    m.d.updates += batch.cardinality() as u64;
                    op(&mut m.d, "client.commit", t0, t1, self.steps as u64 - 1);
                }
            }
            // Enumerate the first tuples, timing every `next()` (the
            // first gap includes building the iterator).
            gaps.clear();
            let e0 = Instant::now();
            let mut last = e0;
            let mut it = self.engine.enumerate();
            while gaps.len() < DIRECT_ENUM_TUPLES && it.next().is_some() {
                let now = Instant::now();
                gaps.push(ns(last, now));
                last = now;
            }
            drop(it);
            if win.holds(e0, last) && !gaps.is_empty() {
                m.d.attempted += 1;
                m.enum_tuples += gaps.len() as u64;
                m.enum_ns += ns(e0, last);
                m.enum_gap_max = m.enum_gap_max.max(*gaps.iter().max().expect("non-empty"));
                m.enum_first.push(gaps[0]);
                if round.is_multiple_of(DIRECT_GAP_STRIDE) {
                    m.enum_gaps.extend_from_slice(&gaps);
                }
                op(&mut m.d, "client.enumerate", e0, last, round as u64);
            }
            // A lookup takes less than reading the clock twice: the 16 are
            // timed as one and the sample is their mean.
            let first = round * DIRECT_GETS_PER_ROUND;
            let t0 = Instant::now();
            for seq in first..first + DIRECT_GETS_PER_ROUND {
                let probe = &self.inst.gets[seq % self.inst.gets.len()];
                std::hint::black_box(self.engine.multiplicity(std::hint::black_box(probe)));
            }
            let t1 = Instant::now();
            if win.holds(t0, t1) {
                m.d.attempted += DIRECT_GETS_PER_ROUND as u64;
                let mut sample = win.timed(t0, t1, 0);
                sample.ns /= DIRECT_GETS_PER_ROUND as u64;
                m.d.gets.push(sample);
                op(&mut m.d, "client.get", t0, t1, first as u64);
            }
            let offset = self.inst.page_offsets[round % self.inst.page_offsets.len()];
            let t0 = Instant::now();
            std::hint::black_box(self.engine.enumerate_page(offset, self.inst.page_limit));
            let t1 = Instant::now();
            if win.holds(t0, t1) {
                m.d.attempted += 1;
                m.d.pages.push(win.timed(t0, t1, 0));
                op(&mut m.d, "client.page", t0, t1, round as u64);
            }
            round += 1;
        }
        m
    }

    fn check(&self, want: ResultDigest) -> Result<(), String> {
        let rows: Vec<_> = self.engine.enumerate().collect();
        let got = digest(rows.iter().map(|(t, m)| (t, *m)));
        if got != want || self.engine.count_distinct() != want.count {
            return Err(format!(
                "enumerated result differs from the recompute oracle: {got:?} vs {want:?}"
            ));
        }
        match self.engine.stats().misroutes {
            0 => Ok(()),
            n => Err(format!("misroutes = {n}, want 0")),
        }
    }
}

impl ServedRig {
    pub fn drive(
        &mut self,
        traffic: Traffic,
        warmup: Duration,
        window: Duration,
        keep: bool,
    ) -> Driven {
        let win = Window::after_warmup(warmup, window, keep);
        let d = drive(
            self.server.addr(),
            &self.inst,
            &self.scripts,
            self.steps,
            traffic,
            win,
        );
        self.steps += d.steps;
        d
    }

    fn measure(&mut self, warmup: Duration, window: Duration, keep_ops: bool) -> Measured {
        let mut m = Measured::new();
        if self.workload != decl::READ_QUIESCENT {
            m.d = self.drive(Traffic::WriterAndReader, warmup, window, keep_ops);
            return m;
        }
        // `twopath-publish`'s traffic for three quarters of the window,
        // then — the writer gone, the server quiescent — the open-loop
        // reader alone for the last quarter. Only that quarter's reads are
        // this workload's read latencies. (A writer without a reader beside
        // it was tried for the first phase: its three threads run one at a
        // time and the scheduler moves them between the two cores as it
        // pleases, so commits took 5.2 to 6.6 ms from run to run, against
        // 4.9 to 5.1 ms with the reader holding the other core.)
        let reads = window / 4;
        m.d = self.drive(
            Traffic::WriterAndReader,
            warmup / 2,
            window - reads,
            keep_ops,
        );
        m.d.gets.clear();
        m.d.pages.clear();
        m.d.late.clear();
        let r = self.drive(Traffic::ReaderOnly, warmup / 2, reads, keep_ops);
        m.d.absorb(r);
        m
    }

    /// `omv-durable` only, after an abrupt [`Server::stop`] (no final
    /// checkpoint): restarts on the same data dir and returns the seconds
    /// from `Server::start` to the first `count` — which must be the acked
    /// state's. The caller re-runs the full gate afterwards.
    pub fn recover(&mut self, want_count: usize, repl: bool) -> Result<f64, String> {
        let dir = self.data_dir.clone().ok_or("workload has no data dir")?;
        let t0 = Instant::now();
        self.server = Server::start(drive::server_config(Some(&dir), repl))
            .map_err(|e| format!("restart on {}: {e}", dir.display()))?;
        let mut c = Client::connect(self.server.addr()).map_err(|e| e.to_string())?;
        let count = request_ok(&mut c, "count")?;
        let recovery_s = t0.elapsed().as_secs_f64();
        if count.trim().parse() != Ok(want_count) {
            return Err(format!(
                "recovered count {} differs from the acked state's {want_count}",
                count.trim()
            ));
        }
        Ok(recovery_s)
    }
}

/// Keeps the cores awake for a served workload's whole run (see
/// [`stats::KeepAwake`]); notes it when that is not possible.
pub fn keep_awake(spec: &RunSpec, notes: &mut Vec<String>) -> Option<stats::KeepAwake> {
    if spec.workload == decl::ENGINE_DIRECT {
        return None;
    }
    let awake = stats::KeepAwake::start();
    if awake.is_none() {
        notes.push(
            "SCHED_IDLE is not available: cores may halt, wake-ups are in the numbers".into(),
        );
    }
    awake
}

/// The untraced run: repeated set-up, warm-up, one window, the gate.
pub fn run_end_to_end(spec: &RunSpec) -> Result<Outcome, String> {
    let mut notes = Vec::new();
    let _awake = keep_awake(spec, &mut notes);
    let (mut rig, setup_s) = set_up_repeated(spec)?;
    let m = rig.measure(spec.warmup, Duration::from_secs_f64(spec.seconds), false);
    let peak_rss_mb = stats::peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
    let mut out = Outcome {
        correct: true,
        attempted: m.d.attempted,
        failed: m.d.failed,
        values: BTreeMap::new(),
        notes,
    };
    out.values.insert("setup_s", setup_s);
    out.values.insert("peak_rss_mb", peak_rss_mb);
    m.client_side(&mut out.values, &mut out.notes);
    let mut gate = rig.check();
    if let (Ok(()), Rig::Served(r)) = (&gate, &mut rig) {
        if r.data_dir.is_some() {
            let want = oracle(r.inst.query, &r.inst.db_after(r.steps));
            r.server.stop();
            gate = r.recover(want.count, false).and_then(|recovery_s| {
                out.notes.push(format!("recovery_s = {recovery_s}"));
                check_server(r.server.addr(), want)
            });
        }
    }
    if let Err(e) = gate {
        out.correct = false;
        out.notes.push(format!("GATE FAILED: {e}"));
    }
    if out.failed > 0 {
        out.correct = false;
        out.notes
            .push(format!("GATE FAILED: {} operation(s) failed", out.failed));
    }
    Ok(out)
}
