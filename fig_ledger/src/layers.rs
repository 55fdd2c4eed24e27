//! The traced run: per-layer numbers for the same generated inputs.
//!
//! Every layer is measured **from outside**, by timing calls into its
//! public functions from this file, one rung at a time, with a span per
//! call. The run has three parts:
//!
//! 1. two short end-to-end windows of the workload's own traffic — one
//!    plain, one with a client-side span per operation and, for
//!    `omv-durable`, a poller on the data dir — whose difference is the
//!    tracing overhead, and which supply the user-visible numbers only
//!    some workloads have (`reads_per_s`, `recovery_s`, …);
//! 2. for `omv-durable`, stop → WAL scan → snapshot load → recover →
//!    replica catch-up;
//! 3. the in-process rungs: the writer's round replayed call by call
//!    (`proto::parse_command` → `DeltaBatch::push` →
//!    `ShardedEngine::apply_delta_batch` → `ShardedEngine::snapshot` →
//!    `proto::batch_lines` → `Wal::append` → `Wal::sync` → `write_ok` /
//!    `read_response`), `IvmEngine` at ε ∈ {0, ½, 1}, `ShardedEngine` at
//!    S = 2, snapshot reads and their rendering, `Published` swap, a
//!    loopback echo, and the snapshot file round trip.
//!
//! Rungs run a fixed number of steps (one pass over the whole update
//! stream and back), so their counts repeat exactly for a seed.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ivme_cli::proto::{self, Command};
use ivme_cli::render;
use ivme_core::{DeltaBatch, EngineOptions, IvmEngine, ShardedEngine, ShardedSnapshot};
use ivme_query::Query;
use ivme_server::publish::Published;
use ivme_server::repl::{Replica, ReplicaConfig};
use ivme_server::snapshot::{self, SnapshotData};
use ivme_server::wal::Wal;
use ivme_workload::{stat_field, Client};

use crate::decl;
use crate::drive::{check_server, ledger_dir, oracle, request_ok, Scratch, Traffic};
use crate::inputs::Instance;
use crate::stats::{self, summarize};
use crate::trace::Tracer;
use crate::workloads::{keep_awake, set_up, Outcome, Rig, RunSpec, ServedRig};

/// Tuples enumerated per enumeration probe, and steps between probes.
const ENUM_TUPLES: usize = 1000;
const ENUM_EVERY: usize = 64;
/// Calls per read rung and round trips of the loopback echo.
const READ_CALLS: usize = 2048;
const ECHO_TRIPS: usize = 2000;
/// How long a fresh replica may take to catch up before the run fails.
const CATCHUP_TIMEOUT: Duration = Duration::from_secs(20);

type Values = BTreeMap<&'static str, f64>;

fn mean(samples: &[u64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<u64>() as f64 / samples.len() as f64
}

fn p50(samples: &[u64]) -> f64 {
    stats::p50(&mut samples.to_vec())
}

pub fn run_traced(spec: &RunSpec) -> Result<Outcome, String> {
    let mut tr = Tracer::new();
    let mut v: Values = decl::PER_LAYER.iter().map(|d| (d.name, 0.0)).collect();
    let mut notes = Vec::new();
    let _awake = keep_awake(spec, &mut notes);
    let mut rig = set_up(spec)?;

    // ---- 1. end-to-end windows: plain, then traced ----
    let quarter = Duration::from_secs_f64(spec.seconds / 4.0);
    let serve_before = served(&rig).map(|r| r.server.serve_stats());
    let mut plain = rig.measure(spec.warmup / 2, quarter, false);
    let poller = served(&rig)
        .and_then(|r| r.data_dir.clone())
        .map(DirPoller::start);
    let steps_before = rig.steps();
    let traced = rig.measure(Duration::ZERO, quarter, true);
    let disk = poller.map(DirPoller::stop);
    for op in &traced.d.ops {
        tr.add(op.name, op.start, op.end, op.request);
    }
    // The read latencies and tails that are reported here instead of
    // gated: from the plain window.
    let mut client_side = Values::new();
    plain.client_side(&mut client_side, &mut notes);
    for name in [
        "get_p50_us",
        "page_p50_us",
        "commit_p99_us",
        "get_p99_us",
        "page_p99_us",
    ] {
        v.insert(name, client_side[name]);
    }
    let mut attempted = plain.d.attempted + traced.d.attempted;
    let mut failed = plain.d.failed + traced.d.failed;
    // read-quiescent's closed-loop capacity: two readers, no writes.
    if let (decl::READ_QUIESCENT, Rig::Served(r)) = (spec.workload, &mut rig) {
        let d = r.drive(Traffic::TwoReaders, Duration::ZERO, quarter, false);
        v.insert("reads_per_s", d.reads_per_s());
        attempted += d.attempted;
        failed += d.failed;
    }
    v.insert("error_share", failed as f64 / attempted.max(1) as f64);
    v.insert(
        "driver.trace_overhead_share",
        1.0 - traced.d.write_updates_per_s() / plain.d.write_updates_per_s().max(1e-9),
    );
    v.insert(
        "driver.read_late_p99_us",
        summarize(&mut plain.d.late).tail / 1e3,
    );
    if plain.enum_ns > 0 {
        v.insert(
            "enum_tuples_per_s",
            plain.enum_tuples as f64 / (plain.enum_ns as f64 / 1e9),
        );
        v.insert("enum_delay_p99_ns", summarize(&mut plain.enum_gaps).tail);
    }
    let commit_p50_us = p50(&tr.durations("client.commit")) / 1e3;
    if let (Some(before), Some(r)) = (serve_before, served(&rig)) {
        let after = r.server.serve_stats();
        v.insert(
            "server.group_commits",
            (after.group_commits - before.group_commits) as f64,
        );
        v.insert(
            "server.grouped_batches",
            (after.grouped_batches - before.grouped_batches) as f64,
        );
        v.insert(
            "server.snapshots_published",
            (after.snapshots_published - before.snapshots_published) as f64,
        );
    }
    if let Some(d) = disk {
        let batch = rig.inst().forward[0].len();
        let updates = ((rig.steps() - steps_before) * batch).max(1);
        v.insert(
            "wal_bytes_per_update",
            (d.wal_bytes + d.checkpoint_bytes) as f64 / updates as f64,
        );
        v.insert("snapshot.checkpoints", d.checkpoints as f64);
    }

    // ---- the gate, and for omv-durable the recovery ladder ----
    let mut gate = rig.check();
    if let (Ok(()), Rig::Served(r)) = (&gate, &mut rig) {
        if r.data_dir.is_some() {
            gate = recovery_ladder(r, &mut tr, &mut v);
        }
    }

    // ---- 3. in-process rungs ----
    let durable = served(&rig).is_some_and(|r| r.data_dir.is_some());
    let round_p50_us = Rungs {
        inst: rig.inst(),
        query: ivme_query::parse_query(rig.inst().query).map_err(|e| e.to_string())?,
        tr: &mut tr,
        v: &mut v,
        notes: &mut notes,
    }
    .run(durable)?;
    if served(&rig).is_some() {
        let residual = commit_p50_us - round_p50_us - v["net.loopback_rtt_us"];
        v.insert("server.round_residual_us", residual);
        let share = |x: f64| 100.0 * x / commit_p50_us.max(1e-9);
        notes.push(format!(
            "ledger: commit_p50_us {commit_p50_us:.1} = in-process round {round_p50_us:.1} \
             ({:.1}%) + loopback rtt {:.1} ({:.1}%) + residual {residual:.1} ({:.1}%); \
             of it core.snapshot_us_per_round {:.1} ({:.1}%), wal append+fsync {:.1} ({:.1}%)",
            share(round_p50_us),
            v["net.loopback_rtt_us"],
            share(v["net.loopback_rtt_us"]),
            share(residual),
            v["core.snapshot_us_per_round"],
            share(v["core.snapshot_us_per_round"]),
            v["wal.append_us_per_round"] + v["wal.fsync_us"],
            share(v["wal.append_us_per_round"] + v["wal.fsync_us"]),
        ));
    }

    let path = ledger_dir().join(format!("trace-{}.json", spec.workload));
    tr.write_json(&path, spec.workload, spec.seed)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    notes.push(format!("{} spans written to {}", tr.len(), path.display()));

    let mut out = Outcome {
        correct: true,
        attempted,
        failed,
        values: v,
        notes,
    };
    if let Err(e) = gate {
        out.correct = false;
        out.notes.push(format!("GATE FAILED: {e}"));
    }
    if failed > 0 {
        out.correct = false;
        out.notes
            .push(format!("GATE FAILED: {failed} operation(s) failed"));
    }
    Ok(out)
}

fn served(rig: &Rig) -> Option<&ServedRig> {
    match rig {
        Rig::Served(r) => Some(r),
        Rig::Direct(_) => None,
    }
}

// ----------------------------------------------------------------------
// Data-dir poller (traced window of omv-durable)
// ----------------------------------------------------------------------

/// Bytes the server wrote to its data dir, seen from outside: the log's
/// growth (a rotation rewrites header and tail, so a shrink counts the
/// new length) and every checkpoint file that appeared. Polled every
/// 2 ms; a checkpoint takes 64 rounds (hundreds of ms) to come due, and
/// the two newest are kept, so none is missed.
struct DirPoller {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<DiskWrites>,
}

#[derive(Default)]
struct DiskWrites {
    wal_bytes: u64,
    checkpoint_bytes: u64,
    checkpoints: u64,
}

impl DirPoller {
    fn start(dir: PathBuf) -> DirPoller {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut seen = std::collections::HashSet::new();
            let mut out = DiskWrites::default();
            let mut wal_len = file_len(&dir.join("wal.log"));
            // Checkpoints already there belong to earlier traffic.
            for (name, _) in checkpoints_in(&dir) {
                seen.insert(name);
            }
            while !flag.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(2));
                let len = file_len(&dir.join("wal.log"));
                out.wal_bytes += if len >= wal_len { len - wal_len } else { len };
                wal_len = len;
                for (name, bytes) in checkpoints_in(&dir) {
                    if seen.insert(name) {
                        out.checkpoints += 1;
                        out.checkpoint_bytes += bytes;
                    }
                }
            }
            out
        });
        DirPoller { stop, handle }
    }

    fn stop(self) -> DiskWrites {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().expect("poller thread panicked")
    }
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

fn checkpoints_in(dir: &Path) -> Vec<(String, u64)> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    entries
        .flatten()
        .filter_map(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            (name.starts_with("snapshot-") && name.ends_with(".ivme"))
                .then(|| (name, e.metadata().map_or(0, |m| m.len())))
        })
        .collect()
}

// ----------------------------------------------------------------------
// omv-durable: stop, scan, load, recover, replicate
// ----------------------------------------------------------------------

fn recovery_ladder(r: &mut ServedRig, tr: &mut Tracer, v: &mut Values) -> Result<(), String> {
    let dir = r.data_dir.clone().expect("durable rig");
    let want = oracle(r.inst.query, &r.inst.db_after(r.steps));
    r.server.stop();
    // `Wal::open` may truncate a damaged tail; scan a copy.
    let copy = r.scratch.path().join("wal-copy.log");
    std::fs::copy(dir.join("wal.log"), &copy).map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    let (_, recovered) = tr
        .span("wal.open", None, 0, || Wal::open(&copy))
        .map_err(|e| e.to_string())?;
    v.insert("recovery.wal_scan_ms", t0.elapsed().as_secs_f64() * 1e3);
    v.insert("recovery.replay_frames", recovered.frames.len() as f64);
    let t0 = Instant::now();
    tr.span("snapshot.load_latest", None, 0, || {
        snapshot::load_latest(&dir)
    })
    .map_err(|e| e.to_string())?;
    v.insert("snapshot.load_ms", t0.elapsed().as_secs_f64() * 1e3);

    let id = tr.open("server.recover", None, 0);
    let recovery_s = r.recover(want.count, true)?;
    tr.close(id);
    v.insert("recovery_s", recovery_s);
    check_server(r.server.addr(), want)?;

    // A fresh replica against the recovered primary.
    let mut admin = Client::connect(r.server.addr()).map_err(|e| e.to_string())?;
    let stats = request_ok(&mut admin, "stats")?;
    let target = stat_field(&stats, "snapshot_epoch").ok_or("stats has no snapshot_epoch")?;
    let updates = stat_field(&stats, "updates").ok_or("stats has no updates")?;
    let primary = r
        .server
        .repl_addr()
        .ok_or("primary has no replication listener")?;
    let id = tr.open("repl.catchup", None, target);
    let t0 = Instant::now();
    let replica = Replica::start(ReplicaConfig {
        primary: primary.to_string(),
        listen: "127.0.0.1:0".to_owned(),
    })
    .map_err(|e| e.to_string())?;
    while replica.stats().applied_epoch() < target {
        if t0.elapsed() > CATCHUP_TIMEOUT {
            return Err(format!(
                "replica stuck at epoch {} of {target}",
                replica.stats().applied_epoch()
            ));
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    let catchup_s = t0.elapsed().as_secs_f64();
    tr.close(id);
    v.insert("repl.catchup_ms", catchup_s * 1e3);
    v.insert("repl.catchup_updates_per_s", updates as f64 / catchup_s);
    check_server(replica.addr(), want)
}

// ----------------------------------------------------------------------
// In-process rungs
// ----------------------------------------------------------------------

struct Rungs<'a> {
    inst: &'a Instance,
    query: Query,
    tr: &'a mut Tracer,
    v: &'a mut Values,
    notes: &'a mut Vec<String>,
}

impl Rungs<'_> {
    fn steps(&self) -> usize {
        2 * self.inst.forward.len()
    }

    /// Runs every rung; returns the median in-process writer round in µs.
    fn run(mut self, durable: bool) -> Result<f64, String> {
        let scratch = Scratch::new("rungs").map_err(|e| e.to_string())?;
        let (round_p50_us, snap) = self.writer_round(durable, scratch.path())?;
        self.ivm_engine(
            0.0,
            "core.ivm_apply.eps0",
            "core.ivm_apply_us_per_batch.eps0",
            Some("core.enum_delay_p50_ns.eps0"),
        )?;
        self.ivm_engine(0.5, "core.ivm_apply", "core.ivm_apply_us_per_batch", None)?;
        self.ivm_engine(
            1.0,
            "core.ivm_apply.eps1",
            "core.ivm_apply_us_per_batch.eps1",
            Some("core.enum_delay_p50_ns.eps1"),
        )?;
        self.sharded_two()?;
        self.reads(&snap);
        self.publish_swap(snap);
        self.loopback_echo()?;
        if durable {
            self.snapshot_files(scratch.path())?;
        }
        self.per_call_means();
        Ok(round_p50_us)
    }

    /// The writer's round, call by call, on `ShardedEngine` at S = 1.
    fn writer_round(
        &mut self,
        durable: bool,
        dir: &Path,
    ) -> Result<(f64, ShardedSnapshot), String> {
        let db = self.inst.base_db();
        let t0 = Instant::now();
        let mut eng = self
            .tr
            .span("core.preprocess", None, 0, || {
                ShardedEngine::new(&self.query, &db, EngineOptions::dynamic(0.5), 1)
            })
            .map_err(|e| e.to_string())?;
        self.v
            .insert("core.preprocess_s", t0.elapsed().as_secs_f64());
        let mut wal = match durable {
            true => Some(Wal::create(&dir.join("wal.log"), 0).map_err(|e| e.to_string())?),
            false => None,
        };
        let scripts = self.inst.scripts();
        let before = eng.stats();
        let (mut lines, mut updates, mut replies, mut tuples, mut wal_bytes) = (0, 0, 0, 0, 0);
        let mut reply_buf: Vec<u8> = Vec::new();
        let mut last = None;
        for p in 0..self.steps() {
            let (i, retract) = self.inst.step(p);
            let script = &scripts[i][retract as usize];
            let req = p as u64;
            let tr = &mut *self.tr;
            let round = tr.open("writer.round", None, req);
            let cmds: Vec<Command> = tr.span("proto.parse", Some(round), req, || {
                script
                    .text
                    .lines()
                    .map(|l| proto::parse_command(l).expect("script line parses"))
                    .map(|c| c.expect("script line is a command"))
                    .collect()
            });
            lines += cmds.len();
            let batch = tr.span("data.batch_build", Some(round), req, || {
                let mut b = DeltaBatch::new();
                for c in cmds {
                    if let Command::Update {
                        relation,
                        tuple,
                        delta,
                    } = c
                    {
                        b.push(&relation, tuple, delta);
                    }
                }
                b
            });
            updates += batch.cardinality();
            tr.span("core.sharded_apply", Some(round), req, || {
                eng.apply_delta_batch(&batch)
            })
            .map_err(|e| e.to_string())?;
            let snap = tr.span("core.snapshot", Some(round), req, || eng.snapshot(req + 1));
            tuples += snap.count_distinct();
            if let Some(wal) = wal.as_mut() {
                let text = tr.span("proto.wal_render", Some(round), req, || {
                    proto::batch_lines(&batch)
                });
                wal_bytes += text.len() + 16; // length + CRC + epoch prefix
                tr.span("wal.append", Some(round), req, || {
                    wal.append(req + 1, &text)
                })
                .map_err(|e| e.to_string())?;
                tr.span("wal.sync", Some(round), req, || wal.sync())
                    .map_err(|e| e.to_string())?;
            }
            tr.span("proto.response", Some(round), req, || {
                reply_buf.clear();
                for _ in 1..script.requests {
                    proto::write_ok(&mut reply_buf, "").expect("write to a Vec");
                }
                proto::write_ok(&mut reply_buf, "committed\n").expect("write to a Vec");
                let mut rd = reply_buf.as_slice();
                for _ in 0..script.requests {
                    std::hint::black_box(proto::read_response(&mut rd).expect("framed reply"));
                }
            });
            replies += script.requests;
            tr.close(round);
            last = Some(snap);
        }
        let rounds = self.steps() as f64;
        let after = eng.stats();
        let selfs = self.tr.self_times();
        let total = |name: &str| {
            selfs
                .get(name)
                .map_or(0.0, |s| s.iter().sum::<u64>() as f64)
        };
        self.v.insert(
            "proto.parse_ns_per_line",
            total("proto.parse") / lines as f64,
        );
        self.v.insert(
            "data.batch_build_ns_per_update",
            total("data.batch_build") / updates as f64,
        );
        self.v.insert(
            "proto.response_ns_per_reply",
            total("proto.response") / replies as f64,
        );
        self.v.insert(
            "core.sharded_apply_us_per_batch.s1",
            total("core.sharded_apply") / rounds / 1e3,
        );
        self.v.insert(
            "core.snapshot_us_per_round",
            total("core.snapshot") / rounds / 1e3,
        );
        self.v
            .insert("core.snapshot_tuples_per_round", tuples as f64 / rounds);
        self.v.insert(
            "core.minor_rebalances",
            (after.minor_rebalances - before.minor_rebalances) as f64,
        );
        self.v.insert(
            "core.major_rebalances",
            (after.major_rebalances - before.major_rebalances) as f64,
        );
        if durable {
            self.v.insert(
                "proto.wal_render_ns_per_update",
                total("proto.wal_render") / updates as f64,
            );
            self.v.insert(
                "wal.append_us_per_round",
                total("wal.append") / rounds / 1e3,
            );
            self.v
                .insert("wal.fsync_us", total("wal.sync") / rounds / 1e3);
            self.v
                .insert("wal.bytes_per_round", wal_bytes as f64 / rounds);
            self.v.insert("wal.fsyncs", rounds);
        }
        let whole = self.tr.durations("writer.round");
        Ok((p50(&whole) / 1e3, last.expect("at least one step")))
    }

    /// `IvmEngine` at one ε: apply the whole stream and back, probing
    /// enumeration every `ENUM_EVERY` steps. ε = ½ (no `delay_metric`)
    /// also reports the first-tuple latency, the largest gap, and the
    /// peak heavy-key and auxiliary-space counts.
    fn ivm_engine(
        &mut self,
        epsilon: f64,
        apply_span: &'static str,
        apply_metric: &'static str,
        delay_metric: Option<&'static str>,
    ) -> Result<(), String> {
        let mut eng = IvmEngine::new(
            &self.query,
            &self.inst.base_db(),
            EngineOptions::dynamic(epsilon),
        )
        .map_err(|e| e.to_string())?;
        let batches = self.inst.delta_batches();
        let (mut gaps, mut first) = (Vec::new(), Vec::new());
        let (mut gap_max, mut heavy, mut aux) = (0u64, 0usize, 0usize);
        for p in 0..self.steps() {
            let (i, retract) = self.inst.step(p);
            self.tr
                .span(apply_span, None, p as u64, || {
                    eng.apply_delta_batch(&batches[i][retract as usize])
                })
                .map_err(|e| e.to_string())?;
            if p % ENUM_EVERY != 0 {
                continue;
            }
            let id = self.tr.open("core.enumerate", None, p as u64);
            let mut lastt = Instant::now();
            let mut it = eng.enumerate();
            for k in 0..ENUM_TUPLES {
                if it.next().is_none() {
                    break;
                }
                let now = Instant::now();
                let gap = (now - lastt).as_nanos() as u64;
                lastt = now;
                if k == 0 {
                    first.push(gap);
                }
                gaps.push(gap);
                gap_max = gap_max.max(gap);
            }
            drop(it);
            self.tr.close(id);
            heavy = heavy.max(eng.heavy_keys());
            aux = aux.max(eng.aux_space());
        }
        self.v
            .insert(apply_metric, mean(&self.tr.durations(apply_span)) / 1e3);
        match delay_metric {
            Some(metric) => {
                self.v.insert(metric, p50(&gaps));
            }
            None => {
                self.v.insert("core.enum_first_tuple_ns", p50(&first));
                self.v.insert("core.enum_delay_max_ns", gap_max as f64);
                self.v.insert("core.heavy_keys", heavy as f64);
                self.v.insert("core.aux_space_tuples", aux as f64);
            }
        }
        Ok(())
    }

    /// `ShardedEngine` at S = 2: apply only.
    fn sharded_two(&mut self) -> Result<(), String> {
        let mut eng = ShardedEngine::new(
            &self.query,
            &self.inst.base_db(),
            EngineOptions::dynamic(0.5),
            2,
        )
        .map_err(|e| e.to_string())?;
        let batches = self.inst.delta_batches();
        for p in 0..self.steps() {
            let (i, retract) = self.inst.step(p);
            self.tr
                .span("core.sharded_apply.s2", None, p as u64, || {
                    eng.apply_delta_batch(&batches[i][retract as usize])
                })
                .map_err(|e| e.to_string())?;
        }
        self.v.insert(
            "core.sharded_apply_us_per_batch.s2",
            mean(&self.tr.durations("core.sharded_apply.s2")) / 1e3,
        );
        Ok(())
    }

    /// Reads of a published snapshot, bare and rendered.
    fn reads(&mut self, snap: &ShardedSnapshot) {
        let inst = self.inst;
        for k in 0..READ_CALLS {
            let probe = &inst.gets[k % inst.gets.len()];
            let offset = inst.page_offsets[k % inst.page_offsets.len()];
            let req = k as u64;
            self.tr.span("core.lookup", None, req, || {
                std::hint::black_box(snap.multiplicity(probe))
            });
            self.tr.span("core.page", None, req, || {
                std::hint::black_box(snap.enumerate_page(offset, inst.page_limit))
            });
            self.tr.span("render.get", None, req, || {
                std::hint::black_box(render::render_get(snap, &self.query, probe).ok())
            });
            self.tr.span("render.page", None, req, || {
                std::hint::black_box(render::render_page(snap, offset, inst.page_limit))
            });
        }
    }

    /// `Published::publish` + a reader's `refresh`.
    fn publish_swap(&mut self, snap: ShardedSnapshot) {
        let snap = Arc::new(snap);
        let published = Published::new(Arc::clone(&snap));
        let mut cache = published.cache();
        for k in 0..READ_CALLS {
            self.tr.span("publish.swap", None, k as u64, || {
                published.publish(Arc::clone(&snap));
                std::hint::black_box(published.refresh(&mut cache));
            });
        }
    }

    /// One line out, one line back over loopback TCP against an echo
    /// thread this benchmark owns: the floor under every served latency.
    fn loopback_echo(&mut self) -> Result<(), String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let echo = std::thread::spawn(move || -> std::io::Result<()> {
            let (stream, _) = listener.accept()?;
            stream.set_nodelay(true)?;
            let mut reader = BufReader::new(stream.try_clone()?);
            let mut writer = stream;
            let mut line = String::new();
            loop {
                line.clear();
                if reader.read_line(&mut line)? == 0 {
                    return Ok(());
                }
                writer.write_all(line.as_bytes())?;
            }
        });
        let trips = (|| -> std::io::Result<()> {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            let mut reader = BufReader::new(stream.try_clone()?);
            let mut writer = stream;
            let mut line = String::new();
            for k in 0..ECHO_TRIPS {
                let id = self.tr.open("net.loopback_rtt", None, k as u64);
                writer.write_all(b"get 123,456\n")?;
                line.clear();
                reader.read_line(&mut line)?;
                self.tr.close(id);
            }
            Ok(())
        })();
        let echoed = echo.join().expect("echo thread panicked");
        trips.and(echoed).map_err(|e| format!("loopback echo: {e}"))
    }

    /// `snapshot::write` of the instance's base state (`load_latest` is
    /// timed on the real data dir, in the recovery ladder).
    fn snapshot_files(&mut self, dir: &Path) -> Result<(), String> {
        let base = self.inst.base_db();
        let mut bytes = 0;
        for epoch in 1..=5 {
            let data = SnapshotData {
                epoch,
                query: Some(self.query.to_string()),
                built: true,
                staged: base.clone(),
                base: base.clone(),
                ..SnapshotData::default()
            };
            let path = self
                .tr
                .span("snapshot.write", None, epoch, || {
                    snapshot::write(dir, &data)
                })
                .map_err(|e| e.to_string())?;
            bytes = file_len(&path);
        }
        self.v.insert("snapshot.bytes", bytes as f64);
        Ok(())
    }

    /// Per-call means of the single-call rungs, from their spans.
    fn per_call_means(&mut self) {
        let selfs = self.tr.self_times();
        let mut put = |metric: &'static str, span: &str, scale: f64, median: bool| {
            if let Some(s) = selfs.get(span) {
                let x = if median { p50(s) } else { mean(s) };
                self.v.insert(metric, x / scale);
                self.notes.push(format!("{metric}: {} spans", s.len()));
            }
        };
        put("core.lookup_ns", "core.lookup", 1.0, false);
        put("core.page_us", "core.page", 1e3, false);
        put("render.get_ns", "render.get", 1.0, false);
        put("render.page_us", "render.page", 1e3, false);
        put("publish.swap_ns", "publish.swap", 1.0, false);
        put("net.loopback_rtt_us", "net.loopback_rtt", 1e3, true);
        put("snapshot.write_ms", "snapshot.write", 1e6, false);
    }
}
