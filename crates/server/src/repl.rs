//! Log-shipping replication: a primary that streams committed rounds to
//! follower processes, each serving the full lock-free read API with a
//! bounded, observable staleness epoch.
//!
//! The unit of replication is the **commit round** — what the writer
//! publishes under one epoch and the sync thread makes durable together.
//! Each side keeps one cursor, an epoch: a round is shipped, and applied,
//! whole or not at all. Replication sockets run on the serving path's
//! machinery: the replication listener accepts through the one bounded
//! accept loop (`conn::spawn_accept_loop`; at most
//! [`MAX_CONNECTIONS`](crate::MAX_CONNECTIONS) followers at once, counted
//! apart from clients) and every line read off a replication socket is
//! bounded like a client's.
//!
//! # Primary side
//!
//! With `--repl-listen <addr>` the server binds a second listener for
//! followers. Live fan-out rides the existing durability pipeline: the
//! WAL sync thread, once a round is published and its frames reach their
//! durability point, hands the round to `ReplHub::broadcast_round`, which
//! `try_send`s it into each follower's *bounded* queue ([`QUEUE_DEPTH`]).
//! A follower whose queue is full is disconnected on the spot — the sync
//! thread never blocks on a slow follower, so commit acks are completely
//! insulated from replication backpressure (pinned by
//! `tests/replication.rs` with a
//! [`TestHooks::repl_barrier`](crate::TestHooks) freeze).
//!
//! Bootstrap is the subtle half. The per-follower handler **registers
//! with the hub first** — learning `fanned`, the newest epoch the hub had
//! fanned out by then, under the lock `broadcast_round` holds — then
//! takes a read-only [`wal::scan`] of the log and loads the newest
//! snapshot bytes. Every round `≤ fanned` finished its append before the
//! registration, so the scan reads it whole (or a snapshot covers it);
//! every round `> fanned` is fanned out after the registration and
//! reaches the queue whole. The bootstrap therefore ships exactly the
//! scanned rounds `≤ fanned` (`bootstrap_rounds`) and ignores the scanned
//! tail beyond — which an append racing the read may have left torn, or
//! complete frames short of its round. Scanning the WAL *before* loading
//! the snapshot leans on the snapshot worker's install-before-rotate
//! order — whatever base epoch the scanned log continues from, a snapshot
//! at least that new is already on disk.
//!
//! # Follower side
//!
//! [`Replica`] runs two threads. The *follower* thread dials the primary
//! (capped exponential backoff), says `hello` with its state's epoch, and
//! then handles one message at a time: it reads a whole `snapshot`,
//! `round` or `reset`, applies it to the `OwnedState` it owns through the
//! replay step WAL recovery uses (`OwnedState::apply_round`, or `restore`
//! for a snapshot), publishes an epoch-stamped
//! [`ServeSnapshot`](crate::ServeSnapshot) and acks — best-effort
//! progress that `stats` on the primary shows per follower — before it
//! reads the next. The socket buffer and the primary's bounded
//! per-follower queue are the only queues. A message not newer than the
//! state's epoch is dropped whole, so redelivery after a reconnect is
//! idempotent; a round that fails to apply sets `replica_broken`, and the
//! thread closes the connection and follows no further while the replica
//! keeps serving its last whole round. The other thread is the serving
//! listener — the same accept and connection loop a primary runs, with a
//! write sink that refuses writes/admin with a redirect error naming the
//! primary.
//!
//! The staleness contract is the prefix property, one hop out: a replica
//! always serves the state some prefix of the primary's committed rounds
//! produces — never a torn round, never a rolled-back write (rounds are
//! broadcast only after their durability point).

use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use ivme_cli::proto::{self, ReplHeader};

use crate::conn::{self, read_bounded_line, Endpoint, WriteSink};
use crate::publish::{ReplRole, Status};
use crate::writer::OwnedState;
use crate::{invalid_data, lock, snapshot, wal, Hook};

/// Upper bound on a single replicated payload (snapshot or frame) — the
/// same "a length beyond this is corruption, not an allocation request"
/// guard the WAL applies on disk.
const MAX_PAYLOAD: usize = 1 << 30;

/// Depth of each follower's fan-out queue, in commit rounds. A follower
/// that falls this far behind the sync thread is disconnected rather than
/// allowed to stall commits; it reconnects and resumes from its cursor.
pub const QUEUE_DEPTH: usize = 256;

// ----------------------------------------------------------------------
// Primary: the hub and the per-follower handlers
// ----------------------------------------------------------------------

/// One durable round, fanned from the WAL sync thread to a follower
/// sender.
type Round = (u64, Arc<Vec<String>>);

/// One follower connection's progress, written by its sender and
/// ack-reader threads and sampled by the primary's `stats`. Both frame
/// counts cover this connection only: the follower's acks count the
/// frames it applied since its `hello`.
#[derive(Default)]
struct Progress {
    acked_epoch: AtomicU64,
    acked_frames: AtomicU64,
    sent_frames: AtomicU64,
}

struct FollowerEntry {
    id: u64,
    peer: String,
    tx: SyncSender<Round>,
    progress: Arc<Progress>,
}

/// What [`ReplHub::register`] hands a follower handler: its queue end,
/// its progress counters, and what the hub had fanned out before it.
struct FollowerReg {
    id: u64,
    rx: Receiver<Round>,
    progress: Arc<Progress>,
    /// Newest epoch fanned out before this registration: rounds through
    /// it are whole in the data dir, every later one arrives on `rx`.
    fanned: u64,
}

/// What the followers lock guards: the registry, and the fan-out
/// frontier a registration must read atomically with joining it.
#[derive(Default)]
struct Fanout {
    fanned: u64,
    followers: Vec<FollowerEntry>,
}

/// The primary's registry of connected followers — written by handler
/// threads (register/deregister), fanned into by the WAL sync thread,
/// sampled by `stats`. The only lock is the one around the registry, held
/// for a `try_send` per follower: the sync thread can never block here.
pub struct ReplHub {
    addr: SocketAddr,
    fanout: Mutex<Fanout>,
    next_id: AtomicU64,
    closed: AtomicBool,
}

impl ReplHub {
    pub(crate) fn new(addr: SocketAddr) -> ReplHub {
        ReplHub {
            addr,
            fanout: Mutex::default(),
            next_id: AtomicU64::new(1),
            closed: AtomicBool::new(false),
        }
    }

    /// The replication listener's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connected followers right now.
    pub fn follower_count(&self) -> usize {
        lock(&self.fanout).followers.len()
    }

    /// Registers a follower before its bootstrap scan (see the module
    /// docs for why the order matters). `None` once the hub is closed.
    fn register(&self, peer: String) -> Option<FollowerReg> {
        if self.closed.load(Ordering::SeqCst) {
            return None;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = mpsc::sync_channel(QUEUE_DEPTH);
        let progress = Arc::new(Progress::default());
        let mut fan = lock(&self.fanout);
        if self.closed.load(Ordering::SeqCst) {
            return None; // closed while we were building the entry
        }
        fan.followers.push(FollowerEntry {
            id,
            peer,
            tx,
            progress: Arc::clone(&progress),
        });
        Some(FollowerReg {
            id,
            rx,
            progress,
            fanned: fan.fanned,
        })
    }

    fn deregister(&self, id: u64) {
        lock(&self.fanout).followers.retain(|f| f.id != id);
    }

    /// Fans one durable round out to every follower queue, and records
    /// it as fanned for the registrations that follow. Called on the WAL
    /// sync thread; never blocks — a follower whose bounded queue is
    /// full (or whose sender thread is gone) is dropped from the
    /// registry, which closes its queue and, transitively, its socket.
    pub(crate) fn broadcast_round(&self, epoch: u64, frames: &[String]) {
        let mut fan = lock(&self.fanout);
        fan.fanned = epoch;
        if fan.followers.is_empty() {
            return;
        }
        let payload = Arc::new(frames.to_vec());
        fan.followers
            .retain(|f| match f.tx.try_send((epoch, Arc::clone(&payload))) {
                Ok(()) => true,
                Err(e) => {
                    let why = match e {
                        TrySendError::Full(_) => "queue full — follower too slow",
                        TrySendError::Disconnected(_) => "sender gone",
                    };
                    eprintln!(
                        "ivme-server: disconnecting replication follower {} ({}): {why}",
                        f.id, f.peer
                    );
                    false
                }
            });
    }

    /// Closes the hub: no new registrations, every follower queue drops
    /// (sender threads drain and exit, closing their sockets).
    fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
        lock(&self.fanout).followers.clear();
    }

    /// The primary's `stats` lines: follower count plus one line per
    /// follower with its acked frontier and in-flight frame lag.
    pub(crate) fn stats_lines(&self, out: &mut String) {
        use std::fmt::Write as _;
        let fan = lock(&self.fanout);
        let _ = writeln!(
            out,
            "repl_listen = {}, repl_followers = {}",
            self.addr,
            fan.followers.len()
        );
        for f in &fan.followers {
            let sent = f.progress.sent_frames.load(Ordering::Relaxed);
            let acked = f.progress.acked_frames.load(Ordering::Relaxed);
            let _ = writeln!(
                out,
                "repl_follower {} {}: acked_epoch = {}, lag_frames = {}",
                f.id,
                f.peer,
                f.progress.acked_epoch.load(Ordering::Relaxed),
                sent.saturating_sub(acked)
            );
        }
    }
}

/// The primary's replication accept loop plus the hub it feeds.
pub(crate) struct ReplListener {
    hub: Arc<ReplHub>,
    handle: Option<JoinHandle<()>>,
}

impl ReplListener {
    /// The replication listener's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.hub.addr()
    }

    /// Connected followers right now.
    pub fn follower_count(&self) -> usize {
        self.hub.follower_count()
    }

    /// Spawns the accept loop — the one clients are served by, with its
    /// own live counter. `dir` is the data directory the follower
    /// handlers bootstrap from (scan `wal.log`, ship the newest snapshot)
    /// and `recovered` the epoch boot recovery rebuilt from it — every
    /// round through it is whole on disk, so the hub starts out with it
    /// fanned; `barrier` is the test-only per-round freeze hook, run on
    /// the follower *sender* thread.
    pub fn start(
        listener: TcpListener,
        hub: Arc<ReplHub>,
        dir: PathBuf,
        recovered: u64,
        barrier: Option<Hook>,
    ) -> io::Result<ReplListener> {
        lock(&hub.fanout).fanned = recovered;
        let (closing, peer_hub) = (Arc::clone(&hub), Arc::clone(&hub));
        let handle = conn::spawn_accept_loop(
            "ivme-repl",
            listener,
            move || closing.closed.load(Ordering::SeqCst),
            Arc::default(),
            move |stream| {
                let _ = serve_follower(stream, &peer_hub, &dir, barrier.as_ref());
            },
        )?;
        Ok(ReplListener {
            hub,
            handle: Some(handle),
        })
    }

    /// Closes the hub and stops the accept loop (idempotent).
    pub fn stop(&mut self) {
        self.hub.close();
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.hub.addr());
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ReplListener {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The rounds a bootstrap ships out of a scan of the live log: newer than
/// the follower's `cursor`, and no newer than `fanned` — the scan may
/// have raced the append of anything beyond, and the queue delivers those
/// rounds whole.
fn bootstrap_rounds(
    frames: &[wal::Frame],
    cursor: u64,
    fanned: u64,
) -> impl Iterator<Item = (u64, Vec<String>)> + '_ {
    wal::rounds(frames)
        .filter(move |r| cursor < r[0].epoch && r[0].epoch <= fanned)
        .map(|r| (r[0].epoch, r.iter().map(|f| f.text.clone()).collect()))
}

/// Ships one whole round through `w` and moves the cursor to it — unless
/// the follower already holds it (`epoch` is not newer than the cursor).
fn send_round(
    w: &mut BufWriter<TcpStream>,
    cursor: &mut u64,
    epoch: u64,
    frames: &[String],
    sent_frames: &AtomicU64,
) -> io::Result<()> {
    if epoch <= *cursor {
        return Ok(());
    }
    let header = ReplHeader::Round {
        epoch,
        frames: frames.len(),
    };
    writeln!(w, "{}", proto::repl_header_line(&header))?;
    for f in frames {
        writeln!(w, "{}", proto::repl_frame_line(f.len()))?;
        w.write_all(f.as_bytes())?;
    }
    w.flush()?;
    sent_frames.fetch_add(frames.len() as u64, Ordering::Relaxed);
    *cursor = epoch;
    Ok(())
}

/// One follower connection, start to finish: handshake, register,
/// bootstrap (snapshot + scanned WAL tail), then live tailing of the
/// hub queue. The paired ack-reader thread shares only the follower's
/// progress counters and dies with the socket.
fn serve_follower(
    stream: TcpStream,
    hub: &ReplHub,
    dir: &Path,
    barrier: Option<&Hook>,
) -> io::Result<()> {
    stream.set_nodelay(true)?;
    // A throwaway connection (e.g. the shutdown wake-up) must not pin
    // this thread: bound the handshake read, then lift the bound for the
    // long-lived ack reader.
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut line = String::new();
    if read_bounded_line(&mut reader, &mut line)?.unwrap_or(0) == 0 {
        return Ok(()); // EOF, or an over-long line: drop the peer
    }
    let hello_epoch = proto::parse_repl_hello(&line).map_err(invalid_data)?;
    stream.set_read_timeout(None)?;
    let peer = stream
        .peer_addr()
        .map_or_else(|_| "?".to_owned(), |a| a.to_string());
    let mut writer = BufWriter::new(stream);

    // Register BEFORE scanning: from here on, every durable round is
    // either whole in the file the scan reads (`≤ reg.fanned`) or on our
    // queue (`> reg.fanned`).
    let Some(reg) = hub.register(peer) else {
        return Ok(()); // hub closed: shutting down
    };
    let progress = Arc::clone(&reg.progress);
    let _ = std::thread::Builder::new()
        .name("ivme-repl-ack".into())
        .spawn(move || ack_loop(reader, progress));

    let res = follower_stream(&mut writer, &reg, dir, hello_epoch, barrier);
    hub.deregister(reg.id);
    // The ack-reader thread holds a clone of this socket; dropping the
    // writer alone would leave the connection half-alive and the follower
    // blocked in a read that never EOFs. Shut the socket down fully so
    // the follower notices immediately and re-dials.
    let _ = writer.get_ref().shutdown(Shutdown::Both);
    res
}

/// The bootstrap + live-tail body of a follower handler, split out so
/// deregistration runs on every exit path.
fn follower_stream(
    writer: &mut BufWriter<TcpStream>,
    reg: &FollowerReg,
    dir: &Path,
    hello_epoch: u64,
    barrier: Option<&Hook>,
) -> io::Result<()> {
    // Every round through `cursor` is on the follower.
    let mut cursor = hello_epoch;
    // Scan first, snapshot second (see module docs for the ordering
    // argument). The scan is read-only: it never repairs the live log.
    let (wal_base, frames) = wal::scan(&dir.join("wal.log"))?;
    // The boot path has already warned about any file skipped here.
    let snap = snapshot::load(dir, &mut Vec::new())?.map(|(data, text)| (data.epoch, text));
    let tip = frames.last().map_or_else(
        || wal_base.max(snap.as_ref().map_or(0, |s| s.0)),
        |f| f.epoch,
    );
    if hello_epoch > tip {
        // The follower is ahead of us (e.g. this primary recovered to an
        // older epoch): its state cannot be extended, only replaced.
        writeln!(writer, "{}", proto::repl_header_line(&ReplHeader::Reset))?;
        return writer.flush();
    }
    if let Some((snap_epoch, text)) = snap {
        if snap_epoch > cursor {
            writeln!(
                writer,
                "{}",
                proto::repl_header_line(&ReplHeader::Snapshot {
                    epoch: snap_epoch,
                    len: text.len(),
                })
            )?;
            writer.write_all(text.as_bytes())?;
            writer.flush()?;
            cursor = snap_epoch;
        }
    }
    let sent = &reg.progress.sent_frames;
    for (epoch, texts) in bootstrap_rounds(&frames, cursor, reg.fanned) {
        send_round(writer, &mut cursor, epoch, &texts, sent)?;
    }
    // Live tail: rounds the sync thread fans out, until the socket dies
    // or the hub drops us (queue overflow or shutdown).
    while let Ok((epoch, frames)) = reg.rx.recv() {
        if let Some(b) = barrier {
            b(epoch);
        }
        send_round(writer, &mut cursor, epoch, &frames, sent)?;
    }
    Ok(())
}

/// Reads best-effort `ack` lines from a follower until the socket dies.
/// An ack EOF means the follower is gone: the loop shuts the socket down
/// fully so the paired sender thread's next write fails fast instead of
/// buffering into a dead connection.
fn ack_loop(mut reader: BufReader<TcpStream>, progress: Arc<Progress>) {
    let mut line = String::new();
    loop {
        match read_bounded_line(&mut reader, &mut line) {
            Ok(None | Some(0)) | Err(_) => {
                let _ = reader.get_ref().shutdown(Shutdown::Both);
                return;
            }
            Ok(Some(_)) => {
                if let Ok((epoch, frames)) = proto::parse_repl_ack(&line) {
                    progress.acked_epoch.store(epoch, Ordering::Relaxed);
                    progress.acked_frames.store(frames, Ordering::Relaxed);
                }
            }
        }
    }
}

// ----------------------------------------------------------------------
// Follower: the replica process
// ----------------------------------------------------------------------

/// Replica tuning knobs.
#[derive(Clone, Debug)]
pub struct ReplicaConfig {
    /// The primary's replication listener (`--repl-listen` address).
    pub primary: String,
    /// Address the replica serves reads on; port 0 picks an ephemeral
    /// port (see [`Replica::addr`]).
    pub listen: String,
}

impl Default for ReplicaConfig {
    fn default() -> ReplicaConfig {
        ReplicaConfig {
            primary: "127.0.0.1:7146".to_owned(),
            listen: "127.0.0.1:0".to_owned(),
        }
    }
}

/// The replication counters a replica's `stats` command reports.
#[derive(Default)]
pub struct ReplicaStats {
    primary: String,
    applied_epoch: AtomicU64,
    applied_frames: AtomicU64,
    /// Frames of rounds read whole off the socket to be applied; ahead
    /// of `applied_frames` only while one is being applied.
    received_frames: AtomicU64,
    primary_epoch_seen: AtomicU64,
    connected: AtomicBool,
    /// A round failed to apply: the replica serves its last good state
    /// and stops following (divergence is loud, not silent).
    broken: AtomicBool,
}

impl ReplicaStats {
    /// Primary epoch of the newest fully applied round.
    pub fn applied_epoch(&self) -> u64 {
        self.applied_epoch.load(Ordering::Acquire)
    }

    /// The replica's `stats` line (see docs/PROTOCOL.md).
    pub(crate) fn stats_lines(&self, out: &mut String) {
        use std::fmt::Write as _;
        let received = self.received_frames.load(Ordering::Relaxed);
        let applied = self.applied_frames.load(Ordering::Relaxed);
        let _ = writeln!(
            out,
            "replica_epoch = {}, primary_epoch_seen = {}, replication_lag_frames = {}, \
             replica_connected = {}, replica_broken = {}, primary = {}",
            self.applied_epoch.load(Ordering::Relaxed),
            self.primary_epoch_seen.load(Ordering::Relaxed),
            received.saturating_sub(applied),
            u8::from(self.connected.load(Ordering::Relaxed)),
            u8::from(self.broken.load(Ordering::Relaxed)),
            self.primary
        );
    }
}

/// A running replica process: the follower thread and the serving
/// listener. Dropping it disconnects from the primary and stops serving.
pub struct Replica {
    addr: SocketAddr,
    endpoint: Arc<Endpoint>,
    stats: Arc<ReplicaStats>,
    /// The live primary connection — what `stop` shuts down to unblock
    /// the follower thread's read.
    primary_sock: Arc<Mutex<Option<TcpStream>>>,
    accept_handle: Option<JoinHandle<()>>,
    follow_handle: Option<JoinHandle<()>>,
}

impl Replica {
    /// Binds the serving listener, spawns the follower thread, and
    /// returns immediately — the replica serves its (empty) state while
    /// the bootstrap downloads, exactly as a primary serves during
    /// recovery replay.
    pub fn start(config: ReplicaConfig) -> io::Result<Replica> {
        let listener = TcpListener::bind(&config.listen)?;
        let addr = listener.local_addr()?;
        let stats = Arc::new(ReplicaStats {
            primary: config.primary.clone(),
            ..ReplicaStats::default()
        });
        let status = Arc::new(Status {
            repl: Some(ReplRole::Replica(Arc::clone(&stats))),
            ..Status::default()
        });
        let mut state = OwnedState::default();
        let endpoint = Arc::new(Endpoint::new(addr, status, state.session.read_view(0)));
        let primary_sock = Arc::default();
        let follower = Follower {
            endpoint: Arc::clone(&endpoint),
            stats: Arc::clone(&stats),
            state,
            primary_sock: Arc::clone(&primary_sock),
        };
        let primary = config.primary.clone();
        let follow_handle = std::thread::Builder::new()
            .name("ivme-replica".into())
            .spawn(move || follower.run(&primary))?;
        // Primary and replica serve through the same loop; only the sink
        // differs — here every write is refused with a redirect.
        let accept_handle = conn::serve_clients(
            listener,
            Arc::clone(&endpoint),
            WriteSink::Redirect(config.primary),
        )?;
        Ok(Replica {
            addr,
            endpoint,
            stats,
            primary_sock,
            accept_handle: Some(accept_handle),
            follow_handle: Some(follow_handle),
        })
    }

    /// The serving address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The replication counters (the same numbers `stats` renders).
    pub fn stats(&self) -> &Arc<ReplicaStats> {
        &self.stats
    }

    /// Whether [`Replica::stop`] (or a client's `shutdown`) has run.
    pub fn is_shutdown(&self) -> bool {
        self.endpoint.is_closed()
    }

    /// Stops serving and disconnects from the primary; joins both
    /// threads, so nothing of this replica touches its sockets after the
    /// call returns.
    pub fn stop(&mut self) {
        self.endpoint.close();
        if let Some(s) = lock(&self.primary_sock).take() {
            let _ = s.shutdown(Shutdown::Both);
        }
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
        if let Some(h) = self.follow_handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Replica {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The replica's writer-equivalent, run on its one follower thread: sole
/// owner of an [`OwnedState`], which it moves through the primary's
/// rounds. `state.epoch` is the one cursor — the `hello` it reconnects
/// with, and the bar a message must clear: one not newer than it is
/// dropped whole, a newer round is applied whole, and nothing is
/// published in between.
struct Follower {
    endpoint: Arc<Endpoint>,
    stats: Arc<ReplicaStats>,
    state: OwnedState,
    primary_sock: Arc<Mutex<Option<TcpStream>>>,
}

impl Follower {
    /// Dials the primary with capped exponential backoff and follows it,
    /// until shutdown or a round that fails to apply.
    fn run(mut self, primary: &str) {
        let mut backoff = Duration::from_millis(100);
        while !self.stopped() {
            match TcpStream::connect(primary) {
                Ok(stream) => {
                    backoff = Duration::from_millis(100);
                    self.stats.connected.store(true, Ordering::Release);
                    let res = self.follow(stream);
                    self.stats.connected.store(false, Ordering::Release);
                    // Its last handle gone, the connection closes.
                    lock(&self.primary_sock).take();
                    if let Err(e) = res {
                        if !self.endpoint.is_closed() {
                            eprintln!("ivme replica: connection to primary lost: {e}");
                        }
                    }
                }
                Err(_) => backoff = (backoff * 2).min(Duration::from_secs(5)),
            }
            // Sleep in small slices so `stop()` never waits out a full
            // backoff interval.
            let mut remaining = backoff;
            while !remaining.is_zero() && !self.stopped() {
                let slice = remaining.min(Duration::from_millis(50));
                std::thread::sleep(slice);
                remaining -= slice;
            }
        }
    }

    /// Shut down, or diverged: either way there is nothing to follow.
    fn stopped(&self) -> bool {
        self.endpoint.is_closed() || self.stats.broken.load(Ordering::Acquire)
    }

    /// One connection: `hello` from the state's epoch, then one message
    /// at a time — read whole, applied, published, acked — until the
    /// socket dies, a `reset`, or a message that fails to apply.
    fn follow(&mut self, stream: TcpStream) -> io::Result<()> {
        stream.set_nodelay(true)?;
        let mut reader = BufReader::new(stream.try_clone()?);
        writeln!(&stream, "{}", proto::repl_hello_line(self.state.epoch))?;
        *lock(&self.primary_sock) = Some(stream.try_clone()?);
        // `stop` closes the endpoint before it takes the socket: it either
        // finds this one or we see the flag here.
        if self.endpoint.is_closed() {
            return Ok(());
        }
        let mut line = String::new();
        // Frames applied on this connection: what the acks report, so the
        // primary diffs them against what it sent on the same connection.
        let mut acked_frames = 0u64;
        loop {
            if read_bounded_line(&mut reader, &mut line)?.unwrap_or(0) == 0 {
                return Ok(()); // EOF, or an over-long line: reconnect
            }
            let header = proto::parse_repl_header(&line).map_err(invalid_data)?;
            if let ReplHeader::Snapshot { epoch, .. } | ReplHeader::Round { epoch, .. } = header {
                let seen = &self.stats.primary_epoch_seen;
                seen.fetch_max(epoch, Ordering::AcqRel);
            }
            let applied = match header {
                ReplHeader::Snapshot { epoch, len } => {
                    let text = read_payload(&mut reader, len)?;
                    if epoch <= self.state.epoch {
                        continue;
                    }
                    snapshot::parse(&text)
                        .and_then(|d| self.state.restore(d))
                        .map_err(|e| format!("bootstrap snapshot {epoch} failed to load ({e})"))
                }
                ReplHeader::Round { epoch, frames } => {
                    // `frames` is the peer's claim: reserve for a plausible
                    // round and let the vector grow as frames really arrive.
                    let mut texts = Vec::with_capacity(frames.min(1024));
                    for _ in 0..frames {
                        if read_bounded_line(&mut reader, &mut line)?.unwrap_or(0) == 0 {
                            let eof = io::ErrorKind::UnexpectedEof;
                            return Err(io::Error::new(eof, "stream closed mid-round"));
                        }
                        let len = proto::parse_repl_frame(&line).map_err(invalid_data)?;
                        texts.push(read_payload(&mut reader, len)?);
                    }
                    if epoch <= self.state.epoch {
                        continue;
                    }
                    let n = texts.len() as u64;
                    self.stats.received_frames.fetch_add(n, Ordering::Relaxed);
                    let res = self
                        .state
                        .apply_round(epoch, texts.iter().map(String::as_str));
                    if res.is_ok() {
                        self.stats.applied_frames.fetch_add(n, Ordering::Relaxed);
                        acked_frames += n;
                    }
                    res.map_err(|e| format!("round {epoch} failed to apply ({e})"))
                }
                ReplHeader::Reset => {
                    eprintln!(
                        "ivme replica: primary requested a reset — dropping local state and \
                         re-bootstrapping"
                    );
                    self.state = OwnedState::default();
                    self.stats.received_frames.store(0, Ordering::Relaxed);
                    self.stats.applied_frames.store(0, Ordering::Relaxed);
                    self.publish();
                    return Ok(());
                }
            };
            if let Err(e) = applied {
                eprintln!(
                    "ivme replica: {e}; serving epoch {} and following no further — \
                     restart the replica to re-bootstrap",
                    self.state.epoch
                );
                self.stats.broken.store(true, Ordering::Release);
                return Ok(());
            }
            self.publish();
            let ack = proto::repl_ack_line(self.state.epoch, acked_frames);
            writeln!(&stream, "{ack}")?;
        }
    }

    /// Publishes the state, then advertises its epoch: a `stats` that
    /// shows `replica_epoch = E` is served from a snapshot at least `E`.
    fn publish(&mut self) {
        let epoch = self.state.epoch;
        self.endpoint.publish(self.state.session.read_view(epoch));
        self.stats.applied_epoch.store(epoch, Ordering::Release);
    }
}

/// Reads exactly `len` UTF-8 payload bytes. `len` is the peer's claim:
/// the buffer grows as bytes really arrive, never ahead of them.
fn read_payload(reader: &mut impl Read, len: usize) -> io::Result<String> {
    if len > MAX_PAYLOAD {
        return Err(invalid_data(format!("absurd payload length {len}")));
    }
    let mut buf = Vec::new();
    reader.take(len as u64).read_to_end(&mut buf)?;
    if buf.len() != len {
        return Err(io::ErrorKind::UnexpectedEof.into());
    }
    String::from_utf8(buf).map_err(|_| invalid_data("payload is not UTF-8"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(epoch: u64, text: &str) -> wal::Frame {
        wal::Frame {
            epoch,
            text: text.to_owned(),
        }
    }

    /// The scan of a live log can catch round 2 between two of its
    /// appends. What was fanned out before the registration decides what
    /// the scan may be trusted for — not what the scan happens to hold.
    #[test]
    fn bootstrap_ships_only_rounds_fanned_out_before_the_registration() {
        let scanned = [frame(1, "a"), frame(2, "b")];
        let ship = |cursor, fanned| -> Vec<(u64, Vec<String>)> {
            bootstrap_rounds(&scanned, cursor, fanned).collect()
        };
        // Round 2 was still being appended (its broadcast is on the
        // queue, whole): the scanned part of it stays home.
        assert_eq!(ship(0, 1), [(1, vec!["a".to_owned()])]);
        assert_eq!(
            ship(0, 2),
            [(1, vec!["a".to_owned()]), (2, vec!["b".to_owned()])]
        );
        // A follower (or a snapshot) already at round 1 needs only 2.
        assert_eq!(ship(1, 2), [(2, vec!["b".to_owned()])]);
        assert!(ship(2, 2).is_empty());
        // Frames of one round travel together.
        let scanned = [frame(3, "x"), frame(3, "y"), frame(4, "z")];
        let got: Vec<_> = bootstrap_rounds(&scanned, 0, 3).collect();
        assert_eq!(got, [(3, vec!["x".to_owned(), "y".to_owned()])]);
    }

    #[test]
    fn a_payload_is_read_as_it_arrives_not_allocated_as_announced() {
        let mut ten: &[u8] = b"0123456789";
        let err = read_payload(&mut ten, MAX_PAYLOAD).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        let mut ten: &[u8] = b"0123456789";
        assert_eq!(read_payload(&mut ten, 4).unwrap(), "0123");
        assert_eq!(ten, b"456789");
        let err = read_payload(&mut ten, MAX_PAYLOAD + 1).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
