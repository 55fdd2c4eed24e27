//! The one serving path: the accept loop, the connection loop and the
//! command dispatch that primary and replica share.
//!
//! A connection is a read-line → parse → dispatch → `ok`/`err` loop over
//! the endpoint's [`Published`] snapshot. Reads ([`execute_read`]) never
//! leave this module's lock-free path; what a state-changing verb does is
//! decided by the [`WriteSink`] alone — a primary submits it to the
//! group-commit writer and waits for the ack, a replica answers with a
//! redirect naming its primary. Nothing else differs between the roles.

use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::SyncSender;
use std::sync::Arc;
use std::thread::JoinHandle;

use ivme_cli::proto::{self, Command};
use ivme_cli::render;
use ivme_core::{DeltaBatch, Mode, ShardedSnapshot};
use ivme_data::Tuple;
use ivme_query::{classify, Query};

use crate::publish::{Cached, DurTracker, Published};
use crate::repl;
use crate::writer::{call, AdminOp, GroupInfo, Request};

/// Upper bound on one client command line, newline included. Far above
/// any real command; a client that streams past it without a newline is
/// answered `err line too long` and disconnected, so a connection's read
/// buffer is bounded no matter what the peer sends.
pub const MAX_LINE: usize = 1 << 20;

/// The immutable state a read command dispatches against: the registered
/// query, the evaluation mode, and — once `build` has run — the frozen
/// engine view. A connection's command sees exactly one `ServeSnapshot`;
/// the writer publishing a newer one never mutates an old one, so a read
/// mid-enumeration can never observe a torn batch.
pub struct ServeSnapshot {
    pub(crate) query: Option<Query>,
    pub(crate) mode: Mode,
    pub(crate) view: Option<ShardedSnapshot>,
    /// Live durability handle (`None` when serving memory-only). The
    /// *counters* are not frozen with the view: `stats` samples the
    /// shared tracker at read time, so a quiescent server converges to
    /// `durable_epoch = wal_epoch, fsync_backlog = 0` instead of forever
    /// displaying the backlog as it stood when the last round published.
    pub(crate) dur: Option<DurHandle>,
    /// Replication role (`None` when serving standalone): `stats` renders
    /// follower/staleness counters from it, sampled at read time like
    /// `dur`.
    pub(crate) repl: Option<ReplRole>,
}

/// Which replication role this process serves in — embedded in every
/// published [`ServeSnapshot`] so `stats` renders replication counters
/// without any lock on the serving path.
#[derive(Clone)]
pub(crate) enum ReplRole {
    /// A primary with a `--repl-listen` listener: the hub registry of
    /// connected followers.
    Primary(Arc<repl::ReplHub>),
    /// A follower: the counters its apply thread maintains.
    Replica(Arc<repl::ReplicaStats>),
}

impl ReplRole {
    fn stats_lines(&self, out: &mut String) {
        match self {
            ReplRole::Primary(h) => h.stats_lines(out),
            ReplRole::Replica(s) => s.stats_lines(out),
        }
    }
}

/// A [`ServeSnapshot`]'s window into the durability pipeline: the shared
/// atomic tracker plus the boot-time replay count.
#[derive(Clone)]
pub(crate) struct DurHandle {
    pub(crate) tracker: Arc<DurTracker>,
    pub(crate) recovered_groups: u64,
}

impl DurHandle {
    /// A coherent point-in-time sample. `durable` is read *before*
    /// `inflight`: durable only ever chases inflight, so this order keeps
    /// the reported `durable_epoch ≤ wal_epoch` even when a commit lands
    /// between the two loads.
    fn sample(&self) -> DurInfo {
        let durable = self.tracker.durable();
        let inflight = self.tracker.inflight().max(durable);
        DurInfo {
            wal_epoch: inflight,
            durable_epoch: durable,
            fsync_backlog: inflight - durable,
            wal_frames: self.tracker.wal_frames(),
            last_fsync_us: self.tracker.last_fsync_us(),
            snapshot_in_progress: self.tracker.snapshot_in_progress(),
            recovered_groups: self.recovered_groups,
        }
    }
}

/// The durability counters the `stats` command reports — a read-time
/// sample of the shared [`DurTracker`], never a lock on the writer or
/// sync thread. `durable_epoch ≤ wal_epoch` always holds.
#[derive(Clone, Copy, Debug)]
pub struct DurInfo {
    /// Newest epoch handed to the WAL pipeline (its frames are published
    /// and queued, possibly not yet on disk).
    pub wal_epoch: u64,
    /// Newest epoch the sync thread has made durable (= the epoch a
    /// crash right now would recover to).
    pub durable_epoch: u64,
    /// Commit rounds applied and published but not yet durable
    /// (`wal_epoch - durable_epoch`); none of them has been acked.
    pub fsync_backlog: u64,
    /// Frames in the current (post-rotation) log.
    pub wal_frames: u64,
    /// Wall time of the most recent fsync, microseconds.
    pub last_fsync_us: u64,
    /// A background snapshot is being serialized right now.
    pub snapshot_in_progress: bool,
    /// Distinct commit rounds replayed from the WAL at the last boot.
    pub recovered_groups: u64,
}

impl ServeSnapshot {
    fn view(&self) -> Result<&ShardedSnapshot, String> {
        self.view.as_ref().ok_or_else(|| "run `build` first".into())
    }

    fn query(&self) -> Result<&Query, String> {
        self.query
            .as_ref()
            .ok_or_else(|| "no query registered".into())
    }
}

/// What a serving listener shares with its connections: the published
/// snapshot cell, and the flag + address that stop the accept loop.
pub(crate) struct Endpoint {
    addr: SocketAddr,
    pub(crate) published: Published<ServeSnapshot>,
    closed: AtomicBool,
    /// Connections accepted since start.
    pub(crate) connections: AtomicU64,
}

impl Endpoint {
    pub(crate) fn new(addr: SocketAddr, initial: ServeSnapshot) -> Endpoint {
        Endpoint {
            addr,
            published: Published::new(initial),
            closed: AtomicBool::new(false),
            connections: AtomicU64::new(0),
        }
    }

    pub(crate) fn is_closed(&self) -> bool {
        self.closed.load(Ordering::SeqCst)
    }

    /// Stops accepting (idempotent): raises the flag, then wakes the
    /// blocking `accept` with a throwaway connection so the loop sees it.
    /// Open connections keep being served until their clients leave.
    pub(crate) fn close(&self) {
        if !self.closed.swap(true, Ordering::SeqCst) {
            let _ = TcpStream::connect(self.addr);
        }
    }
}

/// Where a connection's state-changing verbs go — the only thing that
/// differs between serving as a primary and serving as a replica.
#[derive(Clone)]
pub(crate) enum WriteSink {
    /// Primary: submit to the group-commit writer and wait for the ack.
    Writer(SyncSender<Request>),
    /// Replica: refuse, naming the primary's address.
    Redirect(String),
}

impl WriteSink {
    /// The writer channel every write, admin and `.batch` verb needs — or
    /// the redirect all of them answer on a replica. Checked before the
    /// verb does anything, so a replica never opens a `.batch`, never
    /// reads a CSV, and can accumulate no per-connection write state.
    fn writer(&self) -> Result<&SyncSender<Request>, String> {
        match self {
            WriteSink::Writer(tx) => Ok(tx),
            WriteSink::Redirect(primary) => Err(format!(
                "read-only replica: writes and admin commands must go to the primary at {primary}"
            )),
        }
    }

    /// `shutdown` is routed per role: a primary runs the writer's clean
    /// shutdown sequence; a replica has nothing to persist and just stops
    /// accepting.
    fn shutdown(&self, endpoint: &Endpoint) -> Result<String, String> {
        match self {
            WriteSink::Writer(tx) => call(tx, |ack| Request::Shutdown { ack }),
            WriteSink::Redirect(_) => {
                endpoint.close();
                Ok("replica shutting down\n".to_owned())
            }
        }
    }
}

/// Spawns the accept loop: one `ivme-conn` thread per client, each
/// running [`serve_connection`] with its own clone of `sink`.
pub(crate) fn spawn_accept_loop(
    listener: TcpListener,
    endpoint: Arc<Endpoint>,
    sink: WriteSink,
) -> io::Result<JoinHandle<()>> {
    std::thread::Builder::new()
        .name("ivme-accept".into())
        .spawn(move || {
            for stream in listener.incoming() {
                if endpoint.is_closed() {
                    break;
                }
                let Ok(stream) = stream else { continue };
                endpoint.connections.fetch_add(1, Ordering::Relaxed);
                let endpoint = Arc::clone(&endpoint);
                let sink = sink.clone();
                let _ = std::thread::Builder::new()
                    .name("ivme-conn".into())
                    .spawn(move || {
                        let _ = serve_connection(stream, &endpoint, &sink);
                    });
            }
            // `sink` drops here (and per-connection clones as clients
            // leave); a primary's writer thread exits when the channel
            // has no senders left.
        })
}

/// Submits one batch to the writer thread and waits for its ack.
fn submit(tx: &SyncSender<Request>, batch: DeltaBatch) -> Result<GroupInfo, String> {
    call(tx, |ack| Request::Batch { batch, ack })
}

/// Submits one admin op to the writer thread and waits for its response.
fn admin(tx: &SyncSender<Request>, op: AdminOp) -> Result<String, String> {
    call(tx, |ack| Request::Admin { op, ack })
}

/// Borrowing parse of an `insert`/`delete` line for the staging hot path:
/// `Some((relation, tuple-or-parse-error, ±1))` when the line is an update
/// command, `None` for anything else (which then goes through
/// [`proto::parse_command`] as usual).
fn parse_staged_update(line: &str) -> Option<(&str, Result<Tuple, String>, i64)> {
    let line = line.trim();
    let (verb, rest) = line.split_once(char::is_whitespace)?;
    let delta = match verb {
        "insert" => 1,
        "delete" => -1,
        _ => return None,
    };
    let (rel, csv) = rest.trim().split_once(char::is_whitespace)?;
    Some((rel, proto::parse_tuple(csv), delta))
}

fn serve_connection(stream: TcpStream, endpoint: &Endpoint, sink: &WriteSink) -> io::Result<()> {
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    // Per-connection `.batch` staging area — mirrors the shell's. Only a
    // `Writer` sink ever opens one.
    let mut pending: Option<DeltaBatch> = None;
    // Per-connection snapshot handle: refreshed (one atomic load) per
    // read command, re-cloned only when a newer snapshot was published.
    let mut cache = endpoint.published.cache();
    let mut line = String::new();
    loop {
        // Flush buffered responses before a read that could block: a
        // pipelining client gets its acks in one burst once the server
        // catches up, a closed-loop client gets each ack immediately.
        if reader.buffer().is_empty() {
            writer.flush()?;
        }
        line.clear();
        let n = (&mut reader).take(MAX_LINE as u64).read_line(&mut line)?;
        if n == 0 {
            break;
        }
        if n == MAX_LINE && !line.ends_with('\n') {
            proto::write_err(&mut writer, "line too long")?;
            break;
        }
        // Hot path for batch staging: while a `.batch` is open, an
        // `insert`/`delete` line goes straight into the pending batch
        // without allocating a `Command` (its owned relation string) or
        // formatting the interactive staging message — submitting a batch
        // of k updates is k pipelined lines, and this path is what keeps
        // group-commit throughput within reach of raw `apply_delta_batch`.
        // Semantics are identical to the `Command::Update` route below
        // (same `parse_tuple`, same staging), only the ack is empty.
        if let Some(batch) = pending.as_mut() {
            if let Some((rel, tuple, delta)) = parse_staged_update(&line) {
                match tuple {
                    Ok(t) => {
                        batch.push(rel, t, delta);
                        proto::write_ok(&mut writer, "")?;
                    }
                    Err(e) => proto::write_err(&mut writer, &e)?,
                }
                continue;
            }
        }
        let cmd = match proto::parse_command(&line) {
            Ok(Some(c)) => c,
            Ok(None) => {
                proto::write_ok(&mut writer, "")?;
                continue;
            }
            Err(e) => {
                proto::write_err(&mut writer, &e)?;
                continue;
            }
        };
        // `quit` ends the connection; so does the `shutdown` a replica
        // answers itself (a primary's connection outlives its shutdown
        // ack, as it always has).
        let last = match cmd {
            Command::Quit => true,
            Command::Shutdown => matches!(sink, WriteSink::Redirect(_)),
            _ => false,
        };
        match execute(cmd, endpoint, &mut cache, sink, &mut pending) {
            Ok(out) => proto::write_ok(&mut writer, &out)?,
            Err(e) => proto::write_err(&mut writer, &e)?,
        }
        if last {
            break;
        }
    }
    writer.flush()
}

/// Executes one command. Reads refresh the connection's snapshot handle
/// and dispatch lock-free through [`execute_read`]; everything that
/// changes state goes where the sink says.
fn execute(
    cmd: Command,
    endpoint: &Endpoint,
    cache: &mut Cached<ServeSnapshot>,
    sink: &WriteSink,
    pending: &mut Option<DeltaBatch>,
) -> Result<String, String> {
    match cmd {
        Command::Quit => Ok("bye\n".to_owned()),
        Command::Help => Ok(proto::HELP.to_owned()),
        Command::Shutdown => sink.shutdown(endpoint),
        Command::List { .. }
        | Command::Get(_)
        | Command::Page { .. }
        | Command::Count
        | Command::Stats
        | Command::Classify
        | Command::Plan => execute_read(cmd, endpoint.published.refresh(cache)),
        cmd => execute_write(cmd, sink.writer()?, endpoint, cache, pending),
    }
}

/// Executes one admin, write or `.batch` command against the writer
/// channel `tx` — reached only through a [`WriteSink::Writer`].
fn execute_write(
    cmd: Command,
    tx: &SyncSender<Request>,
    endpoint: &Endpoint,
    cache: &mut Cached<ServeSnapshot>,
    pending: &mut Option<DeltaBatch>,
) -> Result<String, String> {
    match cmd {
        // ---- admin/setup: serialized through the writer thread ----
        Command::Query(q) => admin(tx, AdminOp::Query(q)),
        Command::Epsilon(e) => admin(tx, AdminOp::Epsilon(e)),
        Command::Mode(m) => admin(tx, AdminOp::Mode(m)),
        Command::Shards(n) => admin(tx, AdminOp::Shards(n)),
        Command::Row { relation, tuple } => admin(
            tx,
            AdminOp::Rows {
                relation,
                rows: vec![tuple],
            },
        ),
        Command::Load { relation, path } => {
            // File I/O on the connection thread — the server reads its own
            // disk; only the parsed rows travel to the writer.
            let rows = proto::load_csv(&path)?;
            admin(tx, AdminOp::Rows { relation, rows })
        }
        Command::Build => admin(tx, AdminOp::Build),

        // ---- writes: group-commit channel ----
        Command::Update {
            relation,
            tuple,
            delta,
        } => {
            if let Some(batch) = pending.as_mut() {
                // `serve_connection`'s staging hot path intercepts the
                // `insert`/`delete` shapes while a batch is open; the
                // general `update <rel> <delta> <csv>` verb stages here,
                // with the same empty ack as the hot path.
                batch.push(&relation, tuple, delta);
                return Ok(String::new());
            }
            let mut batch = DeltaBatch::new();
            batch.push(&relation, tuple, delta);
            submit(tx, batch)?;
            Ok(String::new())
        }
        Command::BulkLoad { relation, path } => {
            let mut batch = DeltaBatch::new();
            for t in proto::load_csv(&path)? {
                batch.insert(&relation, t);
            }
            let n = batch.cardinality();
            let info = submit(tx, batch)?;
            let secs = info.apply_micros as f64 / 1e6;
            Ok(format!(
                "applied batch of {n} rows into {relation} in {:.3}ms ({:.0} rows/s, group of {})\n",
                secs * 1e3,
                n as f64 / secs.max(1e-9),
                info.group
            ))
        }
        Command::BatchBegin => {
            if pending.is_some() {
                return Err("a batch is already open (`.batch commit|abort`)".into());
            }
            endpoint.published.refresh(cache).view()?;
            *pending = Some(DeltaBatch::new());
            Ok("batch open: insert/delete now stage until `.batch commit`\n".to_owned())
        }
        Command::BatchCommit => {
            let batch = pending.take().ok_or("no open batch (`.batch begin`)")?;
            let (card, net) = (batch.cardinality(), batch.distinct_len());
            match submit(tx, batch) {
                Ok(info) => {
                    let secs = info.apply_micros as f64 / 1e6;
                    Ok(format!(
                        "committed {card} updates ({net} net entries) in {:.3}ms ({:.0} updates/s, group of {})\n",
                        secs * 1e3,
                        card as f64 / secs.max(1e-9),
                        info.group
                    ))
                }
                Err(e) => Err(format!("batch rejected (engine unchanged): {e}")),
            }
        }
        Command::BatchAbort => {
            let batch = pending.take().ok_or("no open batch (`.batch begin`)")?;
            Ok(format!(
                "aborted batch of {} staged updates\n",
                batch.cardinality()
            ))
        }
        Command::BatchStatus => match pending {
            Some(b) => Ok(format!(
                "open batch: {} updates, {} net entries\n",
                b.cardinality(),
                b.distinct_len()
            )),
            None => Ok("no open batch\n".to_owned()),
        },
        // Reads and the verbs every role answers itself never reach
        // here: `execute` matches them first.
        _ => Err("not a write command".to_owned()),
    }
}

/// Executes one read command against an immutable [`ServeSnapshot`].
///
/// This is the whole read dispatch path, and its signature is the
/// lock-freedom proof: it sees `&ServeSnapshot` — no `RwLock`, no
/// `Mutex`, no channel, not even the [`Server`](crate::Server) — so a
/// read command cannot acquire a lock no matter what the rest of the
/// crate does. Formatting is shared with the REPL ([`ivme_cli::render`]),
/// so shell transcripts and server transcripts stay byte-identical.
pub fn execute_read(cmd: Command, snap: &ServeSnapshot) -> Result<String, String> {
    match cmd {
        Command::List { limit } => Ok(render::render_list(snap.view()?, limit)),
        Command::Get(t) => render::render_get(snap.view()?, snap.query()?, &t),
        Command::Page { offset, limit } => Ok(render::render_page(snap.view()?, offset, limit)),
        Command::Count => Ok(render::render_count(snap.view()?)),
        Command::Stats => {
            let mut out = render::render_stats(snap.view()?);
            if let Some(d) = snap.dur.as_ref().map(DurHandle::sample) {
                use std::fmt::Write as _;
                let _ = writeln!(
                    out,
                    "wal_epoch = {}, durable_epoch = {}, fsync_backlog = {}, wal_frames = {}, \
                     last_fsync_us = {}, snapshot_in_progress = {}, recovered_groups = {}",
                    d.wal_epoch,
                    d.durable_epoch,
                    d.fsync_backlog,
                    d.wal_frames,
                    d.last_fsync_us,
                    u8::from(d.snapshot_in_progress),
                    d.recovered_groups
                );
            }
            if let Some(r) = snap.repl.as_ref() {
                r.stats_lines(&mut out);
            }
            Ok(out)
        }
        Command::Classify => Ok(format!("{:#?}\n", classify(snap.query()?))),
        Command::Plan => {
            let plan = ivme_plan::compile(snap.query()?, snap.mode).map_err(|e| e.to_string())?;
            Ok(plan.render())
        }
        // Non-read commands never reach here: `execute` matches them
        // first. Report rather than panic for direct callers.
        _ => Err("not a read command".to_owned()),
    }
}

#[cfg(test)]
mod tests {
    use ivme_core::{Database, EngineOptions, ShardedEngine};

    use super::*;

    #[test]
    fn read_dispatch_needs_only_an_immutable_snapshot() {
        // The acceptance check for "no lock acquisition on the read
        // path": build a ServeSnapshot by hand — no server, no channel,
        // no lock — then run every read command through the exact
        // dispatch function the connection threads use. After `drop(eng)`
        // the engine (and every Mutex inside its merge cache) is gone;
        // the snapshot keeps serving.
        let mut db = Database::new();
        db.insert("R", Tuple::ints(&[1, 10]), 1);
        db.insert("R", Tuple::ints(&[2, 10]), 1);
        db.insert("S", Tuple::ints(&[10, 5]), 1);
        let q = ivme_query::parse_query("Q(A,C) :- R(A,B), S(B,C)").unwrap();
        let eng = ShardedEngine::new(&q, &db, EngineOptions::dynamic(0.5), 2).unwrap();
        let snap = ServeSnapshot {
            query: Some(q),
            mode: Mode::Dynamic,
            view: Some(eng.snapshot(3)),
            dur: None,
            repl: None,
        };
        drop(eng);
        assert_eq!(execute_read(Command::Count, &snap).unwrap(), "2\n");
        let list = execute_read(Command::List { limit: 10 }, &snap).unwrap();
        assert!(list.contains("(2 tuples)"), "{list}");
        assert_eq!(
            execute_read(Command::Get(Tuple::ints(&[1, 5])), &snap).unwrap(),
            "(1, 5) x1\n"
        );
        let page = execute_read(
            Command::Page {
                offset: 0,
                limit: 1,
            },
            &snap,
        )
        .unwrap();
        assert!(page.contains("(1 tuples at offset 0)"), "{page}");
        let stats = execute_read(Command::Stats, &snap).unwrap();
        assert!(stats.contains("snapshot_epoch = 3"), "{stats}");
        assert!(execute_read(Command::Classify, &snap).is_ok());
        assert!(execute_read(Command::Plan, &snap).is_ok());
        assert!(execute_read(Command::Build, &snap).is_err());
        // Sharing snapshots across connection threads needs no lock
        // wrapper — checked at compile time.
        const fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ServeSnapshot>();
        assert_send_sync::<Published<ServeSnapshot>>();
    }
}
