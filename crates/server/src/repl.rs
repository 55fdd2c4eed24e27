//! Log-shipping replication: a primary that streams committed rounds to
//! follower processes, each serving the full lock-free read API with a
//! bounded, observable staleness epoch.
//!
//! The unit of replication is the **commit round** — what the writer
//! publishes under one epoch and the sync thread makes durable together.
//! Each side keeps one cursor, an epoch: a round is shipped, and applied,
//! whole or not at all.
//!
//! # Primary side
//!
//! With `--repl-listen <addr>` the server binds a second listener for
//! followers. Live fan-out rides the existing durability pipeline: the
//! WAL sync thread, right after a round's frames reach their durability
//! point, hands the round to `ReplHub::broadcast_round`, which
//! `try_send`s it into each follower's *bounded* queue. A follower whose
//! queue is full is disconnected on the spot — the sync thread never
//! blocks on a slow follower, so commit acks are completely insulated
//! from replication backpressure (pinned by `tests/replication.rs` with
//! a [`TestHooks::repl_barrier`](crate::TestHooks) freeze).
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
//! [`Replica`] runs three thread groups: a *stream* thread that dials
//! the primary (capped exponential backoff, resuming from the applied
//! epoch in its `hello`), a single *apply* thread that owns an
//! `OwnedState` and pushes every received round through the replay step
//! WAL recovery uses (`OwnedState::apply_round`), publishing an
//! epoch-stamped [`ServeSnapshot`](crate::ServeSnapshot) per round, and
//! the serving listener — the same accept and connection loop a primary
//! runs, with a write sink that refuses writes/admin with a redirect
//! error naming the primary. The apply thread drops any round whose
//! epoch is not newer than its state's, so redelivery after a reconnect
//! is idempotent; its acks flow back over the same socket as best-effort
//! progress reports (`stats` on the primary shows them per follower).
//!
//! The staleness contract is the prefix property, one hop out: a replica
//! always serves the state some prefix of the primary's committed rounds
//! produces — never a torn round, never a rolled-back write (rounds are
//! broadcast only after their durability point).

use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
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
use crate::{invalid_data, snapshot, wal, Hook};

/// Upper bound on a single replicated payload (snapshot or frame) — the
/// same "a length beyond this is corruption, not an allocation request"
/// guard the WAL applies on disk.
const MAX_PAYLOAD: usize = 1 << 30;

/// Events buffered between a replica's stream thread and its apply
/// thread. Bounded: a replica that cannot apply as fast as it receives
/// pushes back on its own socket reads (and, transitively, into the
/// primary's per-follower queue, whose overflow policy is disconnect).
const REPLICA_QUEUE: usize = 1024;

// ----------------------------------------------------------------------
// Primary: the hub and the per-follower handlers
// ----------------------------------------------------------------------

/// One durable round, fanned from the WAL sync thread to a follower
/// sender.
type Round = (u64, Arc<Vec<String>>);

/// One follower's progress, written by its sender and ack-reader threads
/// and sampled by the primary's `stats`.
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
    queue_depth: usize,
    fanout: Mutex<Fanout>,
    next_id: AtomicU64,
    closed: AtomicBool,
}

impl ReplHub {
    pub(crate) fn new(addr: SocketAddr, queue_depth: usize) -> ReplHub {
        ReplHub {
            addr,
            queue_depth: queue_depth.max(1),
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
        self.fanout.lock().unwrap().followers.len()
    }

    /// Registers a follower before its bootstrap scan (see the module
    /// docs for why the order matters). `None` once the hub is closed.
    fn register(&self, peer: String) -> Option<FollowerReg> {
        if self.closed.load(Ordering::SeqCst) {
            return None;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = mpsc::sync_channel(self.queue_depth);
        let progress = Arc::new(Progress::default());
        let mut fan = self.fanout.lock().unwrap();
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
        let mut fan = self.fanout.lock().unwrap();
        fan.followers.retain(|f| f.id != id);
    }

    /// Fans one durable round out to every follower queue, and records
    /// it as fanned for the registrations that follow. Called on the WAL
    /// sync thread; never blocks — a follower whose bounded queue is
    /// full (or whose sender thread is gone) is dropped from the
    /// registry, which closes its queue and, transitively, its socket.
    pub(crate) fn broadcast_round(&self, epoch: u64, frames: &[String]) {
        let mut fan = self.fanout.lock().unwrap();
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
        self.fanout.lock().unwrap().followers.clear();
    }

    /// The primary's `stats` lines: follower count plus one line per
    /// follower with its acked frontier and in-flight frame lag.
    pub(crate) fn stats_lines(&self, out: &mut String) {
        use std::fmt::Write as _;
        let fan = self.fanout.lock().unwrap();
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

    /// Spawns the accept loop. `dir` is the data directory the follower
    /// handlers bootstrap from (scan `wal.log`, ship the newest
    /// snapshot) and `recovered` the epoch boot recovery rebuilt from it —
    /// every round through it is whole on disk, so the hub starts out
    /// with it fanned; `barrier` is the test-only per-round freeze hook,
    /// run on the follower *sender* thread.
    pub fn start(
        listener: TcpListener,
        hub: Arc<ReplHub>,
        dir: PathBuf,
        recovered: u64,
        barrier: Option<Hook>,
    ) -> io::Result<ReplListener> {
        hub.fanout.lock().unwrap().fanned = recovered;
        let accept_hub = Arc::clone(&hub);
        let handle = std::thread::Builder::new()
            .name("ivme-repl-accept".into())
            .spawn(move || {
                for stream in listener.incoming() {
                    if accept_hub.closed.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let hub = Arc::clone(&accept_hub);
                    let dir = dir.clone();
                    let barrier = barrier.clone();
                    let _ = std::thread::Builder::new()
                        .name("ivme-repl-sender".into())
                        .spawn(move || {
                            let _ = serve_follower(stream, hub, dir, barrier);
                        });
                }
            })?;
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
    hub: Arc<ReplHub>,
    dir: PathBuf,
    barrier: Option<Hook>,
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

    let res = follower_stream(&mut writer, &reg, &dir, hello_epoch, barrier);
    hub.deregister(reg.id);
    // The ack-reader thread holds a clone of this socket; dropping the
    // writer alone would leave the connection half-alive and the follower
    // blocked in a read that never EOFs. Shut the socket down fully so
    // the follower notices immediately and re-dials.
    let _ = writer.get_ref().shutdown(std::net::Shutdown::Both);
    res
}

/// The bootstrap + live-tail body of a follower handler, split out so
/// deregistration runs on every exit path.
fn follower_stream(
    writer: &mut BufWriter<TcpStream>,
    reg: &FollowerReg,
    dir: &Path,
    hello_epoch: u64,
    barrier: Option<Hook>,
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
        if let Some(b) = &barrier {
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
                let _ = reader.get_ref().shutdown(std::net::Shutdown::Both);
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
pub struct ReplicaStats {
    primary: String,
    applied_epoch: AtomicU64,
    applied_frames: AtomicU64,
    received_frames: AtomicU64,
    primary_epoch_seen: AtomicU64,
    connected: AtomicBool,
    /// A round failed to apply: the replica serves its last good state
    /// and stops consuming the stream (divergence is loud, not silent).
    broken: AtomicBool,
}

impl ReplicaStats {
    fn new(primary: String) -> ReplicaStats {
        ReplicaStats {
            primary,
            applied_epoch: AtomicU64::new(0),
            applied_frames: AtomicU64::new(0),
            received_frames: AtomicU64::new(0),
            primary_epoch_seen: AtomicU64::new(0),
            connected: AtomicBool::new(false),
            broken: AtomicBool::new(false),
        }
    }

    /// Primary epoch of the newest fully applied round.
    pub fn applied_epoch(&self) -> u64 {
        self.applied_epoch.load(Ordering::Acquire)
    }

    /// Whether the stream thread currently holds a live connection.
    pub fn connected(&self) -> bool {
        self.connected.load(Ordering::Acquire)
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

/// What the stream thread hands the apply thread.
enum Event {
    Snapshot {
        epoch: u64,
        text: String,
    },
    Round {
        epoch: u64,
        frames: Vec<String>,
    },
    /// The primary declared our state unextendable: start over.
    Reset,
}

struct ReplicaShared {
    /// The serving listener's half — the same [`Endpoint`] a primary's
    /// connections serve from.
    endpoint: Arc<Endpoint>,
    stats: Arc<ReplicaStats>,
}

/// A running replica process: stream + apply + serving listener.
/// Dropping it disconnects from the primary and stops serving.
pub struct Replica {
    addr: SocketAddr,
    shared: Arc<ReplicaShared>,
    /// Write half of the live primary connection — the apply thread's
    /// ack channel, and the shutdown path's handle for unblocking the
    /// stream thread's reads.
    ack_sock: Arc<Mutex<Option<TcpStream>>>,
    accept_handle: Option<JoinHandle<()>>,
    stream_handle: Option<JoinHandle<()>>,
    apply_handle: Option<JoinHandle<()>>,
}

impl Replica {
    /// Binds the serving listener, spawns the stream/apply threads, and
    /// returns immediately — the replica serves its (empty) state while
    /// the bootstrap downloads, exactly as a primary serves during
    /// recovery replay.
    pub fn start(config: ReplicaConfig) -> io::Result<Replica> {
        let listener = TcpListener::bind(&config.listen)?;
        let addr = listener.local_addr()?;
        let stats = Arc::new(ReplicaStats::new(config.primary.clone()));
        let status = Arc::new(Status {
            repl: Some(ReplRole::Replica(Arc::clone(&stats))),
            ..Status::default()
        });
        let mut state = OwnedState::default();
        let shared = Arc::new(ReplicaShared {
            endpoint: Arc::new(Endpoint::new(addr, status, state.session.read_view(0))),
            stats,
        });
        let ack_sock: Arc<Mutex<Option<TcpStream>>> = Arc::new(Mutex::new(None));
        let (tx, rx) = mpsc::sync_channel::<Event>(REPLICA_QUEUE);
        let stream_handle = {
            let shared = Arc::clone(&shared);
            let primary = config.primary.clone();
            let ack_sock = Arc::clone(&ack_sock);
            std::thread::Builder::new()
                .name("ivme-replica-stream".into())
                .spawn(move || stream_loop(shared, primary, tx, ack_sock))?
        };
        let apply_handle = {
            let shared = Arc::clone(&shared);
            let ack_sock = Arc::clone(&ack_sock);
            std::thread::Builder::new()
                .name("ivme-replica-apply".into())
                .spawn(move || apply_loop(shared, state, rx, ack_sock))?
        };
        // Primary and replica serve through the same loop; only the sink
        // differs — here every write is refused with a redirect.
        let accept_handle = conn::spawn_accept_loop(
            listener,
            Arc::clone(&shared.endpoint),
            WriteSink::Redirect(config.primary),
        )?;
        Ok(Replica {
            addr,
            shared,
            ack_sock,
            accept_handle: Some(accept_handle),
            stream_handle: Some(stream_handle),
            apply_handle: Some(apply_handle),
        })
    }

    /// The serving address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The replication counters (the same numbers `stats` renders).
    pub fn stats(&self) -> &Arc<ReplicaStats> {
        &self.shared.stats
    }

    /// Whether [`Replica::stop`] (or a client's `shutdown`) has run.
    pub fn is_shutdown(&self) -> bool {
        self.shared.endpoint.is_closed()
    }

    /// Stops serving and disconnects from the primary; joins every
    /// thread, so nothing of this replica touches its sockets after the
    /// call returns.
    pub fn stop(&mut self) {
        self.shared.endpoint.close();
        // Unblock the stream thread if it sits in a read on the primary
        // connection.
        if let Some(s) = self.ack_sock.lock().unwrap().take() {
            let _ = s.shutdown(std::net::Shutdown::Both);
        }
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
        if let Some(h) = self.stream_handle.take() {
            let _ = h.join();
        }
        if let Some(h) = self.apply_handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Replica {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Dials the primary with capped exponential backoff and pumps stream
/// messages into the apply queue until shutdown.
fn stream_loop(
    shared: Arc<ReplicaShared>,
    primary: String,
    tx: SyncSender<Event>,
    ack_sock: Arc<Mutex<Option<TcpStream>>>,
) {
    let mut backoff = Duration::from_millis(100);
    while !shared.endpoint.is_closed() {
        match TcpStream::connect(&primary) {
            Ok(stream) => {
                backoff = Duration::from_millis(100);
                shared.stats.connected.store(true, Ordering::Release);
                let res = pump_stream(&shared, stream, &tx, &ack_sock);
                shared.stats.connected.store(false, Ordering::Release);
                ack_sock.lock().unwrap().take();
                match res {
                    // The apply thread is gone: we are shutting down.
                    Err(PumpEnd::Closed) => return,
                    Err(PumpEnd::Io(e)) => {
                        if !shared.endpoint.is_closed() {
                            eprintln!("ivme replica: connection to primary lost: {e}");
                        }
                    }
                    Ok(()) => {}
                }
            }
            Err(_) => {
                backoff = (backoff * 2).min(Duration::from_secs(5));
            }
        }
        // Sleep in small slices so `stop()` never waits out a full
        // backoff interval.
        let mut remaining = backoff;
        while !remaining.is_zero() && !shared.endpoint.is_closed() {
            let slice = remaining.min(Duration::from_millis(50));
            std::thread::sleep(slice);
            remaining -= slice;
        }
    }
}

/// Why one connection's pump ended.
enum PumpEnd {
    /// Socket error or EOF: reconnect.
    Io(io::Error),
    /// The apply queue is closed: shut down.
    Closed,
}

impl From<io::Error> for PumpEnd {
    fn from(e: io::Error) -> PumpEnd {
        PumpEnd::Io(e)
    }
}

/// One connection: handshake from the applied frontier, then decode
/// stream messages into apply-queue events until the socket dies.
fn pump_stream(
    shared: &ReplicaShared,
    stream: TcpStream,
    tx: &SyncSender<Event>,
    ack_sock: &Arc<Mutex<Option<TcpStream>>>,
) -> Result<(), PumpEnd> {
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    {
        let mut w = stream.try_clone()?;
        // The applied epoch is read from the stats the apply thread
        // maintains; it can lag reality (events still queued) but never
        // lead it, and the apply thread drops redelivered rounds.
        let epoch = shared.stats.applied_epoch();
        writeln!(w, "{}", proto::repl_hello_line(epoch))?;
        w.flush()?;
    }
    *ack_sock.lock().unwrap() = Some(stream);
    let mut line = String::new();
    loop {
        if shared.endpoint.is_closed() {
            return Ok(());
        }
        if read_bounded_line(&mut reader, &mut line)?.unwrap_or(0) == 0 {
            return Ok(()); // EOF, or an over-long line: reconnect
        }
        let header = proto::parse_repl_header(&line).map_err(invalid_data)?;
        if let ReplHeader::Snapshot { epoch, .. } | ReplHeader::Round { epoch, .. } = header {
            let seen = &shared.stats.primary_epoch_seen;
            seen.fetch_max(epoch, Ordering::AcqRel);
        }
        match header {
            ReplHeader::Snapshot { epoch, len } => {
                let text = read_payload(&mut reader, len)?;
                tx.send(Event::Snapshot { epoch, text })
                    .map_err(|_| PumpEnd::Closed)?;
            }
            ReplHeader::Round { epoch, frames } => {
                // `frames` is the peer's claim: reserve for a plausible
                // round and let the vector grow as frames really arrive.
                let mut texts = Vec::with_capacity(frames.min(1024));
                for _ in 0..frames {
                    if read_bounded_line(&mut reader, &mut line)?.unwrap_or(0) == 0 {
                        return Err(PumpEnd::Io(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "stream closed mid-round",
                        )));
                    }
                    let len = proto::parse_repl_frame(&line).map_err(invalid_data)?;
                    texts.push(read_payload(&mut reader, len)?);
                }
                shared
                    .stats
                    .received_frames
                    .fetch_add(texts.len() as u64, Ordering::Relaxed);
                tx.send(Event::Round {
                    epoch,
                    frames: texts,
                })
                .map_err(|_| PumpEnd::Closed)?;
            }
            ReplHeader::Reset => {
                tx.send(Event::Reset).map_err(|_| PumpEnd::Closed)?;
                // Reconnect from scratch; the apply thread has (or will
                // have) cleared the resume point by then — redelivered
                // rounds are dropped regardless.
                return Ok(());
            }
        }
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

/// The replica's writer-equivalent: sole owner of an [`OwnedState`],
/// applying bootstrap snapshots and streamed rounds through the same
/// replay step WAL recovery uses, publishing after every event.
/// `state.epoch` is the one cursor: an event not newer than it is dropped
/// whole, a newer round is applied whole, and nothing is published in
/// between.
fn apply_loop(
    shared: Arc<ReplicaShared>,
    mut state: OwnedState,
    rx: Receiver<Event>,
    ack: Arc<Mutex<Option<TcpStream>>>,
) {
    while let Ok(ev) = rx.recv() {
        if shared.stats.broken.load(Ordering::Acquire) {
            continue; // diverged: drain without applying, serve last good state
        }
        match ev {
            Event::Snapshot { epoch, text } => {
                if epoch <= state.epoch {
                    continue;
                }
                if let Err(e) = snapshot::parse(&text).and_then(|d| state.restore(d)) {
                    eprintln!("ivme replica: bootstrap snapshot failed to load: {e}");
                    shared.stats.broken.store(true, Ordering::Release);
                    continue;
                }
            }
            Event::Round { epoch, frames } => {
                if epoch <= state.epoch {
                    continue;
                }
                if let Err(e) = state.apply_round(epoch, frames.iter().map(String::as_str)) {
                    eprintln!(
                        "ivme replica: round {epoch} failed to apply ({e}); freezing at \
                         epoch {} — reconnect will not help, restart the replica to \
                         re-bootstrap",
                        state.epoch
                    );
                    shared.stats.broken.store(true, Ordering::Release);
                    continue;
                }
                let applied = &shared.stats.applied_frames;
                applied.fetch_add(frames.len() as u64, Ordering::Relaxed);
            }
            Event::Reset => {
                eprintln!(
                    "ivme replica: primary requested a reset — dropping local state and \
                     re-bootstrapping"
                );
                state = OwnedState::default();
                shared.stats.received_frames.store(0, Ordering::Relaxed);
                shared.stats.applied_frames.store(0, Ordering::Relaxed);
            }
        }
        shared
            .stats
            .applied_epoch
            .store(state.epoch, Ordering::Release);
        shared
            .endpoint
            .publish(state.session.read_view(state.epoch));
        // Best-effort progress report to the primary.
        if let Some(s) = ack.lock().unwrap().as_mut() {
            let total = shared.stats.applied_frames.load(Ordering::Relaxed);
            let _ = writeln!(s, "{}", proto::repl_ack_line(state.epoch, total));
        }
    }
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
