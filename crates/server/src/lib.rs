//! `ivme-server` — a concurrent multi-client serving layer for IVM^ε,
//! std-only (`std::net::TcpListener` plus threads; the build environment
//! is offline, so no async runtime).
//!
//! * **One language.** Connections speak the newline-delimited command
//!   grammar of the shell ([`ivme_cli::proto`]); responses are framed
//!   `ok <n>` + `n` payload lines or `err <msg>`, so clients can pipeline.
//! * **Lock-free reads.** The group-commit writer thread is the sole
//!   owner of the mutable `ShardedEngine`; after every round it publishes
//!   an immutable [`ServeSnapshot`] through an epoch-stamped `Arc` cell
//!   ([`publish::Published`]) and connections read from the snapshot they
//!   hold ([`execute_read`]). Publishing is not free: the engine re-freezes
//!   every result component the round touched, at the cost of what it
//!   stores — the light part's rows plus the heavy keys' groups, whose
//!   product is never formed (the ledger's `core.snapshot_us_per_round`;
//!   it dominates `twopath-publish`).
//! * **Group-commit writes.** The writer drains pending requests into a
//!   round and applies each client batch on its own, in arrival order: it
//!   commits or is rejected exactly as it would alone, and a rejected one
//!   changes nothing. The round then publishes once, and only then are its
//!   acks released — a client that has seen its ack reads its own write.
//! * **Durability.** With `--data-dir` every committed batch or admin op
//!   is a CRC-checksummed [`wal`] frame of `proto` command text (rejected
//!   batches are not logged), appended and
//!   fsynced by a dedicated sync thread that releases the round's acks
//!   afterwards; a background thread checkpoints the state as one round
//!   of the same frames ([`snapshot`]) and the log rotates onto it. Boot
//!   replays the newest valid checkpoint, then the log's tail.
//! * **Log-shipping read replicas.** With `--repl-listen` the primary
//!   streams durable commit rounds to follower processes ([`repl`]), which
//!   apply them through the replay step recovery uses and serve the full
//!   read API.
//!
//! The dataflow, the invariant table and what each `--fsync` mode buys
//! are in `docs/ARCHITECTURE.md`; the byte formats in `docs/PROTOCOL.md`;
//! what each layer costs in `fig_ledger`'s traced runs. There is one of
//! each moving part: what a command does and answers is written once, in
//! [`ivme_cli::session`]; primary and replica serve through the same
//! accept and connection loop and publish through the one
//! `Endpoint::publish` (`conn`); the writer talks to the durability lane
//! through `frames`, `acks`, `checkpoint` and `flush` and obeys its one
//! failure rule (`writer`, [`wal`]); one [`publish::Status`] per process is what
//! `stats` and [`Server::serve_stats`] report from; and boot recovery and
//! the replica's follower thread replay rounds through the one
//! `OwnedState::apply_round` (`recovery`). Both listeners — clients and
//! replication followers — accept through the one bounded
//! `conn::spawn_accept_loop`. This file keeps the configuration and the
//! [`Server`] handle.
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

mod conn;
pub mod crc;
pub mod publish;
mod recovery;
pub mod repl;
pub mod snapshot;
pub mod wal;
mod writer;

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::mpsc::{self, SyncSender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

pub use conn::{execute_read, ServeSnapshot, MAX_CONNECTIONS, MAX_LINE};
use conn::{Endpoint, WriteSink};
use publish::{DurTracker, ReplRole, Status};
use snapshot::SnapshotWorker;
pub use wal::FsyncMode;
use wal::WalPipeline;
use writer::{Durability, OwnedState, Request};

/// Server tuning knobs. `Default` is sized for tests and local serving.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (see [`Server::addr`]).
    pub addr: String,
    /// Durability directory (WAL + snapshots). `None` serves from memory
    /// only.
    pub data_dir: Option<PathBuf>,
    /// When the WAL is fsynced relative to acks (ignored without a data
    /// dir). `Group` — the default — is one fsync per commit round, so
    /// durability amortizes exactly like the group commit itself.
    pub fsync: FsyncMode,
    /// Snapshot (and rotate the WAL) every N dirty commit rounds; 0 means
    /// only on clean shutdown, leaving the WAL to grow unboundedly.
    pub snapshot_every: u64,
    /// Replication listener for log-shipping followers ([`repl`]);
    /// requires `data_dir` (followers bootstrap from the snapshot + WAL)
    /// and [`FsyncMode::Group`] (followers apply only fsynced rounds).
    /// `None` — the default — serves without replication.
    pub repl_listen: Option<String>,
    /// Test-only fault-injection hooks; `Default` is all-`None`.
    pub hooks: TestHooks,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            data_dir: None,
            fsync: FsyncMode::Group,
            snapshot_every: 64,
            repl_listen: None,
            hooks: TestHooks::default(),
        }
    }
}

/// A test-only barrier hook: called with the epoch about to be processed.
pub type Hook = Arc<dyn Fn(u64) + Send + Sync>;

/// Barrier hooks the durability tests inject to freeze a background
/// thread at a precise point. All are `None` in production; none is
/// ever called on the writer thread.
#[derive(Clone, Default)]
pub struct TestHooks {
    /// Runs on the sync thread with the round's epoch, *before* any of
    /// its frames reach the file. The writer publishes the round without
    /// waiting for it, so a panicking hook simulates a crash between
    /// publish and fsync.
    pub sync_barrier: Option<Hook>,
    /// Runs on the snapshot thread with the snapshot's epoch, before any
    /// serialization — a blocking hook simulates an arbitrarily slow
    /// snapshot.
    pub snapshot_barrier: Option<Hook>,
    /// Runs on a replication follower's *sender* thread with each round's
    /// epoch, before the round is written to the socket — a blocking hook
    /// simulates an arbitrarily slow follower (its bounded queue fills;
    /// the sync thread disconnects it and is never delayed).
    pub repl_barrier: Option<Hook>,
}

impl std::fmt::Debug for TestHooks {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TestHooks")
            .field("sync_barrier", &self.sync_barrier.is_some())
            .field("snapshot_barrier", &self.snapshot_barrier.is_some())
            .field("repl_barrier", &self.repl_barrier.is_some())
            .finish()
    }
}

/// Counters the server layer adds on top of the engine's own stats.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServeStats {
    /// Connections admitted since start.
    pub connections: u64,
    /// Writer rounds that committed at least one client batch.
    pub group_commits: u64,
    /// Client batches committed by those rounds.
    pub grouped_batches: u64,
    /// Snapshots published (the current snapshot epoch).
    pub snapshots_published: u64,
}

/// A running server. Dropping it is [`Server::stop`]: it stops the accept
/// loop, tells the writer thread to exit and waits for it, so no
/// background thread is still touching the data dir after the drop
/// returns — also while clients are still connected.
pub struct Server {
    addr: SocketAddr,
    endpoint: Arc<Endpoint>,
    accept_handle: Option<JoinHandle<()>>,
    writer_handle: Option<JoinHandle<()>>,
    /// The server's own handle into the writer channel — what
    /// [`Server::shutdown`] and [`Server::stop`] submit through.
    tx: Option<SyncSender<Request>>,
    /// Replication accept loop + follower hub (`--repl-listen` only).
    repl: Option<repl::ReplListener>,
}

impl Server {
    /// Binds `config.addr`, spawns the accept loop and the group-commit
    /// writer thread, and returns immediately. With a data dir configured
    /// this first runs crash recovery *synchronously* — newest valid
    /// snapshot, then WAL replay — so by the time the listener accepts its
    /// first connection, reads already see the recovered state; there is
    /// no window where partial state is served.
    pub fn start(config: ServerConfig) -> io::Result<Server> {
        // Replication requires durability: followers bootstrap from the
        // checkpoint files and the WAL. It also requires `--fsync group`:
        // under `none` a round reaches followers before any fsync, so an
        // OS crash could leave the primary a shorter round than a follower
        // has applied at the same epoch. Bind (and fail) early, before any
        // recovery work.
        let repl_listener = match (&config.repl_listen, &config.data_dir) {
            (Some(_), Some(_)) if config.fsync == FsyncMode::None => {
                return Err(invalid_data(
                    "--repl-listen requires --fsync group: under --fsync none a follower \
                     could apply a round the primary loses in an OS crash",
                ));
            }
            (Some(addr), Some(_)) => Some(TcpListener::bind(addr)?),
            (Some(_), None) => {
                return Err(invalid_data(
                    "--repl-listen requires --data-dir: followers bootstrap from the \
                     snapshot and WAL",
                ));
            }
            (None, _) => None,
        };
        let hub = match &repl_listener {
            Some(l) => Some(Arc::new(repl::ReplHub::new(l.local_addr()?))),
            None => None,
        };
        let mut state = OwnedState::default();
        let mut status = Status {
            repl: hub.clone().map(ReplRole::Primary),
            ..Status::default()
        };
        if let Some(dir) = &config.data_dir {
            let (wal, recovered_groups) = recovery::recover(dir, &mut state, &status)?;
            // Both frontiers start at the recovered epoch: everything
            // replayed is on disk by definition. The WAL itself moves to
            // the sync thread; the writer keeps only job handles.
            let tracker = Arc::new(DurTracker::new(state.epoch, wal.frames(), recovered_groups));
            let pipeline = WalPipeline::start(
                wal,
                config.fsync,
                Arc::clone(&tracker),
                config.hooks.sync_barrier.clone(),
                hub.clone(),
            )?;
            let snap = SnapshotWorker::start(
                dir.clone(),
                pipeline.sender(),
                Arc::clone(&tracker),
                config.hooks.snapshot_barrier.clone(),
            )?;
            status.dur = Some(tracker);
            state.dur = Some(Durability {
                snap,
                pipeline,
                snapshot_every: config.snapshot_every,
                rounds_since_snapshot: 0,
            });
        }
        // Followers may connect from here on: recovery is complete, the
        // WAL and snapshots are consistent on disk, and live rounds now
        // flow through the hub.
        let repl = match (repl_listener, &hub, &config.data_dir) {
            (Some(l), Some(h), Some(dir)) => Some(repl::ReplListener::start(
                l,
                Arc::clone(h),
                dir.clone(),
                state.epoch,
                config.hooks.repl_barrier.clone(),
            )?),
            _ => None,
        };
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        *status.snapshots_published.get_mut() = state.epoch;
        let endpoint = Arc::new(Endpoint::new(
            addr,
            Arc::new(status),
            state.session.read_view(state.epoch),
        ));
        let (tx, rx) = mpsc::sync_channel::<Request>(writer::QUEUE_DEPTH);
        let writer_handle = {
            let endpoint = Arc::clone(&endpoint);
            std::thread::Builder::new()
                .name("ivme-group-commit".into())
                .spawn(move || writer::writer_loop(rx, &endpoint, state))?
        };
        let accept_handle = conn::serve_clients(
            listener,
            Arc::clone(&endpoint),
            WriteSink::Writer(tx.clone()),
        )?;
        Ok(Server {
            addr,
            endpoint,
            accept_handle: Some(accept_handle),
            writer_handle: Some(writer_handle),
            tx: Some(tx),
            repl,
        })
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The replication listener's address, when `repl_listen` is set
    /// (resolves port 0 to the actual ephemeral port).
    pub fn repl_addr(&self) -> Option<SocketAddr> {
        self.repl.as_ref().map(|r| r.addr())
    }

    /// Connected replication followers (0 when `repl_listen` is unset).
    pub fn follower_count(&self) -> usize {
        self.repl.as_ref().map_or(0, |r| r.follower_count())
    }

    /// Server-layer counters (connections, group-commit shapes).
    pub fn serve_stats(&self) -> ServeStats {
        self.endpoint.status.serve_stats()
    }

    /// Requests a clean shutdown through the writer thread: every
    /// already-submitted request commits, the WAL is fsynced, a final
    /// snapshot is written, and the accept loop stops — then the writer's
    /// confirmation comes back. Equivalent to a client sending the
    /// `shutdown` command.
    pub fn shutdown(&mut self) -> Result<String, String> {
        let tx = self.tx.as_ref().ok_or("server is shutting down")?;
        let res = writer::call(tx, |ack| Request::Shutdown { ack });
        // The writer closed the endpoint and broke out of its loop before
        // acking, so `stop`'s joins return promptly even while
        // connections linger.
        self.stop();
        res
    }

    /// Whether the server has stopped accepting connections (via
    /// [`Server::shutdown`], a client's `shutdown` command, or
    /// [`Server::stop`]).
    pub fn is_shutdown(&self) -> bool {
        self.endpoint.is_closed()
    }

    /// Stops accepting new connections, then tells the writer thread to
    /// exit and waits for it. This is the *abrupt* stop — requests queued
    /// behind it are dropped unacked, and no final snapshot is written
    /// (committed state is still recoverable from the WAL); see
    /// [`Server::shutdown`] for the clean path. A connection still open
    /// answers its next write `err server is shutting down`. The join
    /// matters for durability: the writer joins the sync and snapshot
    /// threads before it exits, so no thread of this server instance
    /// touches the data dir after `stop` returns, and a successor can
    /// recover from the same dir immediately.
    pub fn stop(&mut self) {
        self.endpoint.close();
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
        // After `shutdown` the writer has left its loop: the request is
        // dropped with its channel, or the send fails.
        if let Some(tx) = self.tx.take() {
            let _ = tx.send(Request::Stop);
        }
        if let Some(h) = self.writer_handle.take() {
            let _ = h.join();
        }
        // Disconnect followers last, so everything the final rounds
        // committed was offered to them first.
        if let Some(r) = self.repl.as_mut() {
            r.stop();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

fn invalid_data(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Locks `m` even if a panicking thread poisoned it: every mutex in this
/// crate guards a value no panic can leave half-written — the follower
/// registry, a published `Arc` slot, a socket handle.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use std::io::{BufReader, BufWriter, Write};
    use std::net::TcpStream;

    use ivme_cli::proto;

    use super::*;

    /// A tiny blocking client for the tests: sends one line, reads one
    /// framed response.
    struct TestClient {
        reader: BufReader<TcpStream>,
        writer: BufWriter<TcpStream>,
    }

    impl TestClient {
        fn connect(addr: SocketAddr) -> TestClient {
            let stream = TcpStream::connect(addr).unwrap();
            stream.set_nodelay(true).unwrap();
            TestClient {
                reader: BufReader::new(stream.try_clone().unwrap()),
                writer: BufWriter::new(stream),
            }
        }

        fn send(&mut self, line: &str) -> Result<String, String> {
            writeln!(self.writer, "{line}").unwrap();
            self.writer.flush().unwrap();
            proto::read_response(&mut self.reader)
                .unwrap()
                .expect("server closed connection")
        }

        fn ok(&mut self, line: &str) -> String {
            match self.send(line) {
                Ok(s) => s,
                Err(e) => panic!("`{line}` failed: {e}"),
            }
        }
    }

    fn demo_server() -> (Server, TestClient) {
        let server = Server::start(ServerConfig::default()).unwrap();
        let mut c = TestClient::connect(server.addr());
        c.ok("query Q(A,C) :- R(A,B), S(B,C)");
        c.ok("insert R 1,10");
        c.ok("insert R 2,10");
        c.ok("insert S 10,5");
        c.ok("build");
        (server, c)
    }

    #[test]
    fn end_to_end_session_over_tcp() {
        let (_server, mut c) = demo_server();
        assert_eq!(c.ok("count"), "2\n");
        c.ok("insert S 10,6");
        c.ok("delete R 2,10");
        assert_eq!(c.ok("count"), "2\n");
        let list = c.ok("list");
        assert!(list.contains("(1, 5) x1"), "{list}");
        assert!(list.contains("(2 tuples)"), "{list}");
        assert_eq!(c.ok("get 1,5"), "(1, 5) x1\n");
        assert!(c.ok("get 9,9").contains("not in result"));
        assert!(c.ok("page 0 1").contains("(1 tuples at offset 0)"));
        let stats = c.ok("stats");
        assert!(stats.contains("updates = 2"), "{stats}");
        assert!(stats.contains("misroutes = 0"), "{stats}");
        assert!(stats.contains("snapshot_epoch = "), "{stats}");
        assert!(c.ok("help").contains(".batch begin"));
        assert_eq!(c.ok("quit"), "bye\n");
    }

    #[test]
    fn errors_do_not_kill_the_connection() {
        let (_server, mut c) = demo_server();
        assert!(c.send("frobnicate").is_err());
        assert!(c.send("get 1,2,3").is_err());
        assert!(c.send("list garbage").unwrap_err().contains("bad limit"));
        // A delete driving a multiplicity negative is rejected and the
        // engine is unchanged.
        let err = c.send("delete R 9,9").unwrap_err();
        assert!(err.contains("-1"), "{err}");
        assert_eq!(c.ok("count"), "2\n");
    }

    #[test]
    fn per_connection_batches_commit_atomically() {
        let (server, mut c) = demo_server();
        c.ok(".batch begin");
        // Staged updates take the allocation-free hot path: empty ack.
        assert_eq!(c.ok("insert S 10,6"), "");
        assert_eq!(c.ok("insert R 3,10"), "");
        assert!(c.ok(".batch status").contains("2 updates, 2 net entries"));
        let msg = c.ok(".batch commit");
        assert!(msg.contains("committed 2 updates"), "{msg}");
        assert_eq!(c.ok("count"), "6\n");
        // A poisoned batch rejects atomically, engine unchanged.
        c.ok(".batch begin");
        c.ok("insert S 10,7");
        c.ok("delete R 99,99");
        let err = c.send(".batch commit").unwrap_err();
        assert!(err.contains("rejected"), "{err}");
        assert_eq!(c.ok("count"), "6\n");
        // Two connections: each has its own staging area.
        let mut c2 = TestClient::connect(server.addr());
        assert!(c2.ok(".batch status").contains("no open batch"));
    }

    #[test]
    fn concurrent_writers_group_commit_and_readers_see_consistent_counts() {
        let server = Server::start(ServerConfig::default()).unwrap();
        let addr = server.addr();
        let mut admin = TestClient::connect(addr);
        admin.ok("query Q(A) :- R(A,B), S(B)");
        admin.ok(".batch begin");
        for i in 0..32 {
            admin.ok(&format!("insert R {},{}", i, i % 8));
        }
        admin.ok(".batch commit");
        admin.ok("build");
        // 4 writer clients race 8 single-row inserts each; 2 reader
        // clients poll `count` the whole time.
        let writers: Vec<_> = (0..4)
            .map(|w| {
                std::thread::spawn(move || {
                    let mut c = TestClient::connect(addr);
                    for j in 0..8 {
                        c.ok(&format!("insert S {}", (w * 8 + j) % 8));
                    }
                })
            })
            .collect();
        let readers: Vec<_> = (0..2)
            .map(|_| {
                std::thread::spawn(move || {
                    let mut c = TestClient::connect(addr);
                    let mut last = 0usize;
                    let mut last_epoch = 0u64;
                    for _ in 0..20 {
                        let n: usize = c.ok("count").trim().parse().unwrap();
                        // Counts only grow (inserts join against fixed R).
                        assert!(n >= last, "count went backwards: {last} -> {n}");
                        last = n;
                        // Snapshot epochs only grow per connection.
                        let stats = c.ok("stats");
                        let epoch: u64 = stats
                            .split("snapshot_epoch = ")
                            .nth(1)
                            .and_then(|s| s.split_whitespace().next())
                            .unwrap()
                            .parse()
                            .unwrap();
                        assert!(epoch >= last_epoch, "epoch went backwards: {stats}");
                        last_epoch = epoch;
                    }
                })
            })
            .collect();
        for h in writers {
            h.join().unwrap();
        }
        for h in readers {
            h.join().unwrap();
        }
        let mut c = TestClient::connect(addr);
        let stats = c.ok("stats");
        assert!(stats.contains("updates = 32"), "{stats}");
        assert_eq!(c.ok("count"), "32\n");
        let ss = server.serve_stats();
        // The set-up batch, then the 32 racing ones.
        assert_eq!(ss.grouped_batches, 33);
        assert!(ss.group_commits <= 33);
        assert!(ss.connections >= 7);
        // Every commit published at most one snapshot (plus setup rounds).
        assert!(ss.snapshots_published >= 1);
    }

    #[test]
    fn group_rejection_only_hits_offending_clients() {
        let server = Server::start(ServerConfig::default()).unwrap();
        let addr = server.addr();
        let mut admin = TestClient::connect(addr);
        admin.ok("query Q(A,C) :- R(A,B), S(B,C)");
        admin.ok("insert R 1,10");
        admin.ok("insert S 10,5");
        admin.ok("build");
        // Many clients commit concurrently; half are poisoned over-deletes.
        let handles: Vec<_> = (0..6)
            .map(|i| {
                std::thread::spawn(move || {
                    let mut c = TestClient::connect(addr);
                    c.ok(".batch begin");
                    if i % 2 == 0 {
                        c.ok(&format!("insert R {},10", 100 + i));
                        c.ok(&format!("insert S 10,{}", 200 + i));
                    } else {
                        c.ok(&format!("delete R {},{}", 900 + i, 900 + i));
                    }
                    c.send(".batch commit")
                })
            })
            .collect();
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for (i, r) in results.iter().enumerate() {
            if i % 2 == 0 {
                assert!(r.is_ok(), "valid batch {i} rejected: {r:?}");
            } else {
                let e = r.as_ref().unwrap_err();
                assert!(e.contains("rejected"), "batch {i}: {e}");
            }
        }
        // Exactly the valid batches landed: 1 seed + 3 inserted R rows
        // joining S 10,5 plus 3 inserted S rows joining all 4 R rows.
        let mut c = TestClient::connect(addr);
        assert_eq!(c.ok("count"), "16\n");
    }

    #[test]
    fn pipelined_requests_get_ordered_responses() {
        let (_server, mut c) = demo_server();
        // Write a whole script before reading any response.
        let script = "count\nget 1,5\ncount\n";
        c.writer.write_all(script.as_bytes()).unwrap();
        c.writer.flush().unwrap();
        let r1 = proto::read_response(&mut c.reader).unwrap().unwrap();
        let r2 = proto::read_response(&mut c.reader).unwrap().unwrap();
        let r3 = proto::read_response(&mut c.reader).unwrap().unwrap();
        assert_eq!(r1, Ok("2\n".to_owned()));
        assert_eq!(r2, Ok("(1, 5) x1\n".to_owned()));
        assert_eq!(r3, Ok("2\n".to_owned()));
    }

    #[test]
    fn rebuild_under_live_connections() {
        let (server, mut c) = demo_server();
        let mut c2 = TestClient::connect(server.addr());
        assert_eq!(c.ok("count"), "2\n");
        c.ok("insert S 10,6");
        // A rebuild from another connection keeps the write, and both
        // connections go on reading the rebuilt engine.
        assert_eq!(c2.ok("build"), "built: N = 4\n");
        assert_eq!(c.ok("count"), "4\n");
        assert_eq!(c2.ok("count"), "4\n");
        let stats = c.ok("stats");
        assert!(stats.starts_with("N = 4, snapshot_epoch = "), "{stats}");
        assert!(stats.contains("updates = 1, batches = 1"), "{stats}");
        assert!(stats.contains("relations: R=2, S=2\n"), "{stats}");
        let err = c.send(".shards 3").unwrap_err();
        assert_eq!(err, "unknown command `.shards` (try `help`)");
        assert_eq!(c2.ok("count"), "4\n");
    }

    #[test]
    fn publishing_is_observable_through_stats() {
        let (server, mut c) = demo_server();
        let epoch_of = |stats: &str| -> u64 {
            stats
                .split("snapshot_epoch = ")
                .nth(1)
                .and_then(|s| s.split_whitespace().next())
                .unwrap()
                .parse()
                .unwrap()
        };
        let e0 = epoch_of(&c.ok("stats"));
        // Reads alone never move the epoch.
        c.ok("count");
        c.ok("list");
        assert_eq!(epoch_of(&c.ok("stats")), e0);
        // A committed write publishes exactly once for the round.
        c.ok("insert S 10,6");
        let e1 = epoch_of(&c.ok("stats"));
        assert!(e1 > e0, "write did not publish: {e0} -> {e1}");
        // A rejected write publishes nothing.
        assert!(c.send("delete R 99,99").is_err());
        assert_eq!(epoch_of(&c.ok("stats")), e1);
        assert!(server.serve_stats().snapshots_published >= e1);
    }

    /// `update` deltas at the ends of `i64` and one past it, alone and as
    /// a `.batch` whose deltas sum past `i64`, over a socket: the writer
    /// thread never panics, a refused line leaves the served state as it
    /// was, a literal out of range is a parse error, and `count` always
    /// agrees with the listing. `counters` and `stage`, which only a log
    /// may say, are refused too.
    #[test]
    fn extreme_update_deltas_are_refused_whole_and_never_panic() {
        let server = Server::start(ServerConfig::default()).unwrap();
        let mut c = TestClient::connect(server.addr());
        for line in [
            "query Q(A,C) :- R(A,B), S(B,C)",
            "insert R 1,2",
            "insert S 2,3",
            "build",
        ] {
            c.ok(line);
        }
        let state = |c: &mut TestClient| ["list", "stats", "count"].map(|l| c.ok(l));
        let deltas = [i64::MIN, i64::MIN + 1, i64::MAX].map(|d| d.to_string());
        for d in deltas.into_iter().chain(["9223372036854775808".to_owned()]) {
            let update = format!("update R {d} 1,2");
            // Alone, then twice in one batch: the deltas sum past `i64`.
            let batch = [".batch begin", &update, &update, ".batch commit"];
            for line in [update.as_str()].into_iter().chain(batch) {
                let before = state(&mut c);
                let res = c.send(line);
                if line.contains(" 9223372036854775808 ") {
                    let parse = res
                        .as_ref()
                        .is_err_and(|e| e.starts_with("bad update delta"));
                    assert!(parse, "{line}: {res:?}");
                }
                if res.is_err() {
                    assert_eq!(state(&mut c), before, "{line}");
                }
                let count: usize = c.ok("count").trim().parse().unwrap();
                assert_eq!(c.ok("list").lines().count(), count + 1, "{line}");
            }
        }
        assert_eq!(c.ok("count"), "1\n");
        for (line, verb) in [("counters 1 2 3 4", "counters"), ("stage T 5 7", "stage")] {
            let err = c.send(line).unwrap_err();
            assert_eq!(err, format!("unknown command `{verb}` (try `help`)"));
        }
        assert_eq!(c.ok("count"), "1\n");
    }
}
