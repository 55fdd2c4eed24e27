//! The load generator: server set-up, the closed-loop writer, the
//! open-loop and closed-loop readers, and the correctness gate.
//!
//! One process, at most two client threads (the box has two cores): a
//! closed-loop writer plus an open-loop reader, that reader alone, or two
//! closed-loop readers. The in-process `Server` brings its own
//! accept/connection/writer/sync threads.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use ivme_baselines::Recompute;
use ivme_core::Database;
use ivme_data::Tuple;
use ivme_server::{FsyncMode, Server, ServerConfig};
use ivme_workload::{parse_listing, stat_field, Client, Script};

use crate::inputs::Instance;
use crate::stats::{Pacer, Timed};

/// Where the benchmark may write: `<target dir>/ledger`. The driver sets
/// `CARGO_TARGET_DIR` inside the checkout; without it Cargo's default
/// `target` directory (already ignored) is used.
pub fn ledger_dir() -> PathBuf {
    PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()))
        .join("ledger")
}

/// A fresh directory under [`ledger_dir`], removed when dropped.
pub struct Scratch {
    path: PathBuf,
}

impl Scratch {
    pub fn new(tag: &str) -> std::io::Result<Scratch> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let path = ledger_dir().join(format!(
            "tmp-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path)?;
        Ok(Scratch { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// How a server workload persists: `None` is memory-only; `Some` is a
/// data dir at `--fsync group` with a checkpoint every 64 dirty rounds —
/// the flush policy never varies between commits.
pub fn server_config(data_dir: Option<&Path>, repl: bool) -> ServerConfig {
    ServerConfig {
        data_dir: data_dir.map(Path::to_owned),
        fsync: FsyncMode::Group,
        snapshot_every: 64,
        repl_listen: repl.then(|| "127.0.0.1:0".to_owned()),
        ..ServerConfig::default()
    }
}

/// Starts a server and loads `inst` through the wire: `query`, one
/// `load <rel> <csv>` per relation (the server reads its own disk, one
/// admin op and one WAL frame per relation), `build`.
pub fn start_loaded(
    inst: &Instance,
    data_dir: Option<&Path>,
    csv_dir: &Path,
) -> Result<Server, String> {
    let server = Server::start(server_config(data_dir, false)).map_err(|e| e.to_string())?;
    let mut admin = Client::connect(server.addr()).map_err(|e| e.to_string())?;
    request_ok(&mut admin, &format!("query {}", inst.query))?;
    for rel in ["R", "S"] {
        let mut csv = String::new();
        for (_, t) in inst.base.iter().filter(|(r, _)| *r == rel) {
            ivme_cli::proto::push_tuple(&mut csv, t);
            csv.push('\n');
        }
        let path = csv_dir.join(format!("{rel}.csv"));
        std::fs::write(&path, csv).map_err(|e| e.to_string())?;
        request_ok(&mut admin, &format!("load {rel} {}", path.display()))?;
    }
    request_ok(&mut admin, "build")?;
    Ok(server)
}

/// One request that must answer `ok`.
pub fn request_ok(c: &mut Client, line: &str) -> Result<String, String> {
    match c.request(line) {
        Ok(Ok(payload)) => Ok(payload),
        Ok(Err(e)) => Err(format!("`{line}` answered err: {e}")),
        Err(e) => Err(format!("`{line}` I/O error: {e}")),
    }
}

/// Which client threads a measurement runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Traffic {
    /// One closed-loop writer and one open-loop reader at
    /// [`OPEN_LOOP_READS_PER_S`].
    WriterAndReader,
    /// The open-loop reader alone.
    ReaderOnly,
    /// Two closed-loop readers, no writes (the traced run's capacity
    /// measurement).
    TwoReaders,
}

/// The open-loop reader's mean rate; `get` and `page` alternate. A read
/// takes ~50 µs of server time, so the reader asks for about a tenth of
/// one core and cannot starve the writer of the other.
pub const OPEN_LOOP_READS_PER_S: u32 = 2000;

/// How long after the window the open-loop reader keeps working off reads
/// that came due inside it. A read can lag its due time by a commit or
/// two at any moment, the window's last moment included; a queue a whole
/// second long means the server cannot hold the rate.
const DRAIN_LIMIT: Duration = Duration::from_secs(1);

/// One timed client operation, kept only when spans are wanted.
pub struct ClientOp {
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
    pub request: u64,
}

/// What one measurement window saw. Durations are nanoseconds.
#[derive(Default)]
pub struct Driven {
    /// Replay steps acked since the measurement began (warm-up included).
    pub steps: usize,
    /// Script first byte → commit ack, commits inside the window.
    pub commits: Vec<Timed>,
    pub updates: u64,
    /// The open-loop reader's latencies, timed from when each read was
    /// due.
    pub gets: Vec<Timed>,
    pub pages: Vec<Timed>,
    /// Closed-loop readers: reads answered and the time spent in them.
    pub reads: u64,
    pub read_busy_ns: u64,
    pub readers: u64,
    /// Open-loop reader: how long after its due time each read went out.
    pub late: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    pub ops: Vec<ClientOp>,
}

impl Driven {
    /// Acked updates per second of the writer's time in commits.
    pub fn write_updates_per_s(&self) -> f64 {
        let busy_ns: u64 = self.commits.iter().map(|c| c.ns).sum();
        self.updates as f64 / (busy_ns as f64 / 1e9).max(1e-9)
    }

    /// Closed-loop reads per second over all readers (each reader's reads
    /// over its own time in reads).
    pub fn reads_per_s(&self) -> f64 {
        (self.reads * self.readers) as f64 / (self.read_busy_ns as f64 / 1e9).max(1e-9)
    }

    pub fn absorb(&mut self, other: Driven) {
        self.steps += other.steps;
        self.commits.extend(other.commits);
        self.updates += other.updates;
        self.gets.extend(other.gets);
        self.pages.extend(other.pages);
        self.reads += other.reads;
        self.read_busy_ns += other.read_busy_ns;
        self.readers += other.readers;
        self.late.extend(other.late);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.ops.extend(other.ops);
    }
}

/// The measurement window: an untimed warm-up, then `window`.
#[derive(Clone, Copy)]
pub struct Window {
    pub begin: Instant,
    pub end: Instant,
    /// Keep a [`ClientOp`] per operation (traced run only).
    pub keep_ops: bool,
}

impl Window {
    pub fn after_warmup(warmup: Duration, window: Duration, keep_ops: bool) -> Window {
        let begin = Instant::now() + warmup;
        Window {
            begin,
            end: begin + window,
            keep_ops,
        }
    }

    pub fn holds(&self, start: Instant, end: Instant) -> bool {
        start >= self.begin && end <= self.end
    }

    /// A latency sample of an operation due at `due` (inside the window);
    /// `key` is the commit's step in the stream's cycle, 0 for a read.
    pub fn timed(&self, due: Instant, end: Instant, key: u32) -> Timed {
        Timed {
            at_ns: (due - self.begin).as_nanos() as u64,
            ns: (end - due).as_nanos() as u64,
            key,
        }
    }
}

/// Runs `traffic` against `addr` until the window ends. `first_step` is
/// where the replay stands; the caller adds `Driven::steps` to it.
pub fn drive(
    addr: SocketAddr,
    inst: &Instance,
    scripts: &[[Script; 2]],
    first_step: usize,
    traffic: Traffic,
    win: Window,
) -> Driven {
    let mut out = Driven::default();
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        if traffic == Traffic::WriterAndReader {
            handles.push(s.spawn(|| writer(addr, inst, scripts, first_step, win)));
        }
        if matches!(traffic, Traffic::WriterAndReader | Traffic::ReaderOnly) {
            handles.push(s.spawn(|| paced_reader(addr, inst, win)));
        }
        if traffic == Traffic::TwoReaders {
            for k in 0..2 {
                handles.push(s.spawn(move || closed_reader(addr, inst, win, k)));
            }
        }
        for h in handles {
            out.absorb(h.join().expect("client thread panicked"));
        }
    });
    out
}

/// Closed loop at script granularity: the next `.batch begin … commit`
/// script goes out only after the previous commit's ack. A rejected or
/// broken script stops the writer (the replay would be invalid after it).
fn writer(
    addr: SocketAddr,
    inst: &Instance,
    scripts: &[[Script; 2]],
    first_step: usize,
    win: Window,
) -> Driven {
    let mut d = Driven::default();
    let Ok(mut c) = Client::connect(addr) else {
        d.failed += 1;
        return d;
    };
    while Instant::now() < win.end {
        let step = first_step + d.steps;
        let (i, retract) = inst.step(step);
        let script = &scripts[i][retract as usize];
        let start = Instant::now();
        let errors = c.run_script(script).unwrap_or(script.requests);
        let end = Instant::now();
        let timed = win.holds(start, end);
        d.attempted += timed as u64;
        if errors > 0 {
            d.failed += 1;
            break;
        }
        d.steps += 1;
        if timed {
            d.commits.push(win.timed(start, end, inst.step_key(step)));
            d.updates += script.updates as u64;
            if win.keep_ops {
                d.ops.push(ClientOp {
                    name: "client.commit",
                    start,
                    end,
                    request: step as u64,
                });
            }
        }
    }
    d
}

/// The read `seq` stands for: `get` on even sequence numbers, `page` on
/// odd.
fn read_line(inst: &Instance, seq: usize) -> String {
    if seq.is_multiple_of(2) {
        inst.get_line(seq / 2)
    } else {
        inst.page_line(seq / 2)
    }
}

/// Open loop: reads come due as a Poisson process at
/// [`OPEN_LOOP_READS_PER_S`] from the moment the warm-up begins, whether or
/// not the reads before them have been answered, and a read's latency runs
/// from its due time — so a stalled server is charged for the wait it
/// imposes on the reads queued behind the one it stalled.
fn paced_reader(addr: SocketAddr, inst: &Instance, win: Window) -> Driven {
    let mut d = Driven::default();
    let Ok(mut c) = Client::connect(addr) else {
        d.failed += 1;
        return d;
    };
    let mut pacer = Pacer::new(Instant::now(), OPEN_LOOP_READS_PER_S, inst.seed);
    for seq in 0.. {
        let line = read_line(inst, seq);
        let due = pacer.wait();
        if due >= win.end {
            break;
        }
        let sent = Instant::now();
        if sent >= win.end + DRAIN_LIMIT {
            // The queue is not draining: the reads that came due inside
            // the window and were never sent are shed — attempted, failed.
            let shed = ((win.end - due).as_secs_f64() * OPEN_LOOP_READS_PER_S as f64) as u64 + 1;
            d.attempted += shed;
            d.failed += shed;
            break;
        }
        let ok = matches!(c.request(&line), Ok(Ok(_)));
        let end = Instant::now();
        let timed = win.holds(due, end);
        d.attempted += timed as u64;
        if !ok {
            d.failed += 1;
        } else if timed {
            let sample = win.timed(due, end, 0);
            let (name, samples) = match seq % 2 {
                0 => ("client.get", &mut d.gets),
                _ => ("client.page", &mut d.pages),
            };
            samples.push(sample);
            d.late.push((sent - due).as_nanos() as u64);
            if win.keep_ops {
                d.ops.push(ClientOp {
                    name,
                    start: due,
                    end,
                    request: seq as u64,
                });
            }
        }
    }
    d
}

/// Closed loop: the next read goes out when the previous one has been
/// answered; only the count and the time in reads are kept. Reader `k`
/// starts at its own place in the probe lists.
fn closed_reader(addr: SocketAddr, inst: &Instance, win: Window, k: usize) -> Driven {
    let mut d = Driven {
        readers: 1,
        ..Driven::default()
    };
    let Ok(mut c) = Client::connect(addr) else {
        d.failed += 1;
        return d;
    };
    let mut seq = k * 1001;
    while Instant::now() < win.end {
        let line = read_line(inst, seq);
        let start = Instant::now();
        let ok = matches!(c.request(&line), Ok(Ok(_)));
        let end = Instant::now();
        let timed = win.holds(start, end);
        d.attempted += timed as u64;
        if !ok {
            d.failed += 1;
        } else if timed {
            d.reads += 1;
            d.read_busy_ns += (end - start).as_nanos() as u64;
        }
        seq += 1;
    }
    d
}

// ----------------------------------------------------------------------
// Correctness gate
// ----------------------------------------------------------------------

/// Count plus an order-independent digest of a result.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ResultDigest {
    pub count: usize,
    pub digest: u64,
}

pub fn digest<'a>(rows: impl Iterator<Item = (&'a Tuple, i64)>) -> ResultDigest {
    let mut out = ResultDigest {
        count: 0,
        digest: 0,
    };
    for (t, m) in rows {
        let mut h = DefaultHasher::new();
        t.values().hash(&mut h);
        m.hash(&mut h);
        out.count += 1;
        out.digest = out.digest.wrapping_add(h.finish());
    }
    out
}

/// What the result must be: the `ivme-baselines` recompute oracle run
/// over `db`.
pub fn oracle(query: &str, db: &Database) -> ResultDigest {
    let q = ivme_query::parse_query(query).expect("benchmark query parses");
    let mut rc = Recompute::new(&q);
    for rel in db.relations() {
        for (t, m) in db.rows(rel) {
            rc.apply_update(rel, t, m);
        }
    }
    let rows = rc.evaluate();
    digest(rows.iter().map(|(t, m)| (t, *m)))
}

/// Checks a live server against the oracle: `count`, the digest of a
/// full `list`, and `misroutes = 0`. `Err` names the first mismatch.
pub fn check_server(addr: SocketAddr, want: ResultDigest) -> Result<(), String> {
    let mut c = Client::connect(addr).map_err(|e| e.to_string())?;
    let count: usize = request_ok(&mut c, "count")?
        .trim()
        .parse()
        .map_err(|e| format!("count: {e}"))?;
    let rows = parse_listing(&request_ok(&mut c, "list")?)?;
    let got = digest(rows.iter().map(|(t, m)| (t, *m)));
    if count != want.count || got != want {
        return Err(format!(
            "served result differs from the recompute oracle: count {count}, list {got:?}, oracle {want:?}"
        ));
    }
    let stats = request_ok(&mut c, "stats")?;
    match stat_field(&stats, "misroutes") {
        Some(0) => Ok(()),
        other => Err(format!("misroutes = {other:?}, want 0")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{omv, Sizes};

    #[test]
    fn digest_ignores_order_and_sees_multiplicity() {
        let (a, b) = (Tuple::ints(&[1, 2]), Tuple::ints(&[3, 4]));
        let d1 = digest([(&a, 1), (&b, 2)].into_iter());
        let d2 = digest([(&b, 2), (&a, 1)].into_iter());
        let d3 = digest([(&a, 2), (&b, 1)].into_iter());
        assert_eq!(d1, d2);
        assert_ne!(d1, d3);
        assert_eq!(d1.count, 2);
    }

    #[test]
    fn a_served_replay_matches_the_oracle_and_a_wrong_oracle_is_caught() {
        let inst = omv(4, &Sizes::tiny());
        let scratch = Scratch::new("drive-test").unwrap();
        let server = start_loaded(&inst, None, scratch.path()).unwrap();
        let scripts = inst.scripts();
        let win = Window::after_warmup(Duration::ZERO, Duration::from_millis(150), true);
        let d = drive(
            server.addr(),
            &inst,
            &scripts,
            0,
            Traffic::WriterAndReader,
            win,
        );
        assert_eq!(d.failed, 0);
        assert!(d.steps > 0 && d.commits.len() <= d.steps);
        assert!(!d.gets.is_empty() && !d.pages.is_empty());
        assert_eq!(d.late.len(), d.gets.len() + d.pages.len());
        assert_eq!(d.ops.len(), d.commits.len() + d.gets.len() + d.pages.len());
        assert!(d.write_updates_per_s() > 0.0);
        // Open loop: a read's due time does not wait for the read before.
        assert!(d.gets.windows(2).all(|w| w[0].at_ns < w[1].at_ns));
        check_server(server.addr(), oracle(inst.query, &inst.db_after(d.steps))).unwrap();
        let wrong = oracle(inst.query, &inst.db_after(d.steps + 1));
        assert!(check_server(server.addr(), wrong).is_err());

        let r = drive(
            server.addr(),
            &inst,
            &scripts,
            d.steps,
            Traffic::TwoReaders,
            Window::after_warmup(Duration::ZERO, Duration::from_millis(50), false),
        );
        assert_eq!((r.steps, r.failed, r.readers), (0, 0, 2));
        assert!(r.reads > 0 && r.reads_per_s() > 0.0 && r.late.is_empty() && r.ops.is_empty());
    }
}
