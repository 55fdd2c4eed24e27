//! Log-shipping replication: every read served by a replica must equal
//! brute force on *some committed prefix* of the primary's history — the
//! serving-layer prefix property, one network hop out — and the fan-out
//! must never let a slow or dead follower delay a primary ack.
//!
//! Pattern mirrors `tests/wal_recovery.rs`: randomized batch histories
//! with per-prefix brute-force oracles, driven over the wire. A sampler
//! thread reads the replica *while* the primary commits, so torn or
//! reordered application would be caught mid-flight, not just at
//! convergence.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use ivme::core::brute_force;
use ivme::data::Tuple;
use ivme::query::parse_query;
use ivme::workload::{parse_listing, poll_stat, wait_for_epoch, Client, RecoveryWorkload};
use ivme_server::repl::{Replica, ReplicaConfig, QUEUE_DEPTH};
use ivme_server::{FsyncMode, Server, ServerConfig, TestHooks, MAX_LINE};

fn temp_dir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("ivme_repl_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn primary_config(dir: &Path, snapshot_every: u64, repl_listen: &str) -> ServerConfig {
    ServerConfig {
        data_dir: Some(dir.to_owned()),
        snapshot_every,
        repl_listen: Some(repl_listen.to_owned()),
        ..ServerConfig::default()
    }
}

fn start_primary(dir: &Path, snapshot_every: u64) -> Server {
    Server::start(primary_config(dir, snapshot_every, "127.0.0.1:0")).expect("primary must start")
}

fn start_replica(primary: SocketAddr) -> Replica {
    Replica::start(ReplicaConfig {
        primary: primary.to_string(),
        listen: "127.0.0.1:0".to_owned(),
    })
    .expect("replica must start")
}

/// Runs every line of `script` closed-loop, panicking on any `err`.
fn run_script(c: &mut Client, script: &str) {
    for line in script.lines() {
        c.expect_ok(line);
    }
}

/// The served result, parsed and sorted — comparable to `brute_force`.
fn listing(addr: SocketAddr) -> Vec<(Tuple, i64)> {
    let mut c = Client::connect(addr).unwrap();
    parse_listing(&c.expect_ok("list")).unwrap()
}

fn oracle(wl: &RecoveryWorkload, k: usize) -> Vec<(Tuple, i64)> {
    let q = parse_query(ivme::workload::recovery::QUERY).unwrap();
    brute_force(&q, &wl.database_after(k))
}

fn stat_field(stats: &str, key: &str) -> u64 {
    ivme::workload::stat_field(stats, key).unwrap_or_else(|| panic!("no `{key}` in stats: {stats}"))
}

/// The primary's committed epoch right now — the convergence target for
/// its replicas.
fn primary_epoch(c: &mut Client) -> u64 {
    stat_field(&c.expect_ok("stats"), "snapshot_epoch")
}

/// Under `--fsync none` the sync thread would fan a round out before any
/// fsync, so an OS crash could leave the primary a shorter round than a
/// follower applied at the same epoch. A primary refuses that pairing at
/// start, before it touches its data dir.
#[test]
fn a_primary_without_group_fsync_is_refused() {
    let dir = temp_dir("fsync_none");
    let config = ServerConfig {
        fsync: FsyncMode::None,
        ..primary_config(&dir, 4, "127.0.0.1:0")
    };
    let Err(err) = Server::start(config) else {
        panic!("a replicating primary started under --fsync none");
    };
    assert_eq!(err.kind(), ErrorKind::InvalidData);
    assert!(err.to_string().contains("requires --fsync group"), "{err}");
    assert!(!dir.exists(), "the refused primary created its data dir");
}

#[test]
fn replica_reads_match_a_committed_prefix() {
    let wl = RecoveryWorkload::generate(0x1E92, 20, 16, 5);
    let oracles: Vec<Vec<(Tuple, i64)>> = (0..=wl.batches.len()).map(|k| oracle(&wl, k)).collect();
    let dir = temp_dir("prefix");
    // snapshot_every = 5: several checkpoint/rotation cycles happen
    // *while the follower streams*, exercising the rebase path.
    let primary = start_primary(&dir, 5);
    let repl_addr = primary.repl_addr().expect("repl listener must be up");
    let replica = start_replica(repl_addr);
    let raddr = replica.addr();

    // Sample the replica concurrently with the commits: epochs and
    // full listings, as a client would see them.
    let stop = Arc::new(AtomicBool::new(false));
    let sampler = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut epochs: Vec<u64> = Vec::new();
            let mut listings: Vec<Vec<(Tuple, i64)>> = Vec::new();
            while !stop.load(Ordering::SeqCst) {
                if let Some(e) = poll_stat(raddr, "replica_epoch") {
                    epochs.push(e);
                }
                if let Ok(mut c) = Client::connect(raddr) {
                    // `list` errors while the replica has not yet
                    // replayed the `build` — that is "not yet", not a
                    // violation.
                    if let Ok(Ok(payload)) = c.request("list") {
                        listings.push(parse_listing(&payload).unwrap());
                    }
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            (epochs, listings)
        })
    };

    let mut c = Client::connect(primary.addr()).unwrap();
    run_script(&mut c, &wl.setup_script());
    for k in 0..wl.batches.len() {
        run_script(&mut c, &wl.batch_script(k));
    }
    let target = primary_epoch(&mut c);
    assert!(
        wait_for_epoch(raddr, target, Duration::from_secs(30)),
        "replica never caught up to epoch {target}"
    );
    stop.store(true, Ordering::SeqCst);
    let (epochs, listings) = sampler.join().unwrap();

    // Staleness is monotone: the applied epoch never moves backwards.
    for w in epochs.windows(2) {
        assert!(w[0] <= w[1], "replica_epoch went backwards: {w:?}");
    }
    // Every mid-stream read equals brute force on SOME committed
    // prefix — never a torn round, never a reordered one.
    for l in &listings {
        assert!(
            oracles.iter().any(|o| o == l),
            "replica served a state matching no committed prefix: {l:?}"
        );
    }
    assert!(
        !listings.is_empty(),
        "the sampler must have observed the replica mid-stream"
    );
    // Converged, the replica serves the full history.
    assert_eq!(listing(raddr), oracles[wl.batches.len()]);

    // Writes and admin are refused with a redirect naming the primary.
    let mut rc = Client::connect(raddr).unwrap();
    for cmd in [
        "insert R 999,999",
        "delete S 1,1",
        "query Q(A,C) :- R(A,B), S(B,C)",
        "build",
        "epsilon 0.25",
    ] {
        let err = rc
            .request(cmd)
            .expect("connection must survive a refusal")
            .expect_err("replicas must refuse writes and admin");
        assert!(err.contains("read-only replica"), "`{cmd}`: {err}");
        assert!(
            err.contains(&repl_addr.to_string()),
            "`{cmd}` must name the primary: {err}"
        );
    }
    // …and reads on the same connection still work afterwards.
    assert_eq!(
        parse_listing(&rc.expect_ok("list")).unwrap(),
        oracles[wl.batches.len()]
    );
    let stats = rc.expect_ok("stats");
    assert_eq!(stat_field(&stats, "replica_epoch"), target, "{stats}");
    assert_eq!(stat_field(&stats, "replica_broken"), 0, "{stats}");

    drop(rc);
    drop(c);
    drop(replica);
    drop(primary);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Reserves a concrete port so the primary can be restarted on the same
/// replication address (ephemeral port 0 would move on restart).
fn reserve_port() -> u16 {
    std::net::TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap()
        .port()
}

/// `Server::start` with retries: rebinding a just-released port can
/// transiently fail while old sockets linger in TIME_WAIT.
fn start_primary_retry(config: &ServerConfig) -> Server {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        match Server::start(config.clone()) {
            Ok(s) => return s,
            Err(e) => {
                assert!(Instant::now() < deadline, "primary never restarted: {e}");
                std::thread::sleep(Duration::from_millis(100));
            }
        }
    }
}

#[test]
fn kills_of_either_side_reconnect_and_converge() {
    let wl = RecoveryWorkload::generate(0x0FF1, 18, 12, 4);
    let dir = temp_dir("kills");
    let repl_listen = format!("127.0.0.1:{}", reserve_port());

    // The replica comes up FIRST, pointed at an address nothing listens
    // on yet: its capped-backoff dial must pick the primary up when it
    // arrives.
    let replica = Replica::start(ReplicaConfig {
        primary: repl_listen.clone(),
        listen: "127.0.0.1:0".to_owned(),
    })
    .unwrap();
    let raddr = replica.addr();
    let config = primary_config(&dir, 4, &repl_listen);
    let primary = start_primary_retry(&config);
    let mut c = Client::connect(primary.addr()).unwrap();
    run_script(&mut c, &wl.setup_script());
    for k in 0..6 {
        run_script(&mut c, &wl.batch_script(k));
    }
    let t1 = primary_epoch(&mut c);
    assert!(
        wait_for_epoch(raddr, t1, Duration::from_secs(30)),
        "initial backoff dial must converge"
    );
    assert_eq!(listing(raddr), oracle(&wl, 6));

    // Hard-kill the primary. The replica keeps serving its last applied
    // state — stale, consistent, available.
    drop(c);
    drop(primary);
    assert_eq!(
        listing(raddr),
        oracle(&wl, 6),
        "replica must keep serving while the primary is down"
    );

    // Restart the primary on the same data dir and replication address:
    // the follower reconnects and *resumes* from its applied epoch (its
    // hello is mid-log — no full re-bootstrap needed).
    let primary = start_primary_retry(&config);
    let mut c = Client::connect(primary.addr()).unwrap();
    for k in 6..9 {
        run_script(&mut c, &wl.batch_script(k));
    }
    let t2 = primary_epoch(&mut c);
    assert!(
        wait_for_epoch(raddr, t2, Duration::from_secs(30)),
        "reconnect after a primary restart must converge (target {t2}, replica stats: {:?})",
        Client::connect(raddr).map(|mut rc| rc.request("stats"))
    );
    assert_eq!(listing(raddr), oracle(&wl, 9));

    // Kill the follower mid-stream; the primary keeps committing
    // unbothered; a brand-new replica bootstraps the full history
    // (snapshot + WAL tail) and converges.
    drop(replica);
    for k in 9..wl.batches.len() {
        run_script(&mut c, &wl.batch_script(k));
    }
    let replica2 = start_replica(primary.repl_addr().unwrap());
    let t3 = primary_epoch(&mut c);
    assert!(
        wait_for_epoch(replica2.addr(), t3, Duration::from_secs(30)),
        "a fresh replica must bootstrap and converge"
    );
    let k_all = wl.batches.len();
    assert_eq!(listing(replica2.addr()), oracle(&wl, k_all));
    // The primary's stats see the follower and its acked frontier.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = c.expect_ok("stats");
        if stat_field(&stats, "repl_followers") == 1
            && stats.contains(&format!("acked_epoch = {t3}"))
        {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "primary stats must report the follower's acked epoch: {stats}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    drop(c);
    drop(replica2);
    drop(primary);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two-position valve for the replication barrier hook: `PASS` lets the
/// follower sender through, `BLOCK` freezes it — an arbitrarily slow
/// follower, pinned at the exact point where it stops draining its queue.
struct Gate {
    state: Mutex<u8>,
    cv: Condvar,
}

const PASS: u8 = 0;
const BLOCK: u8 = 1;

impl Gate {
    fn new(initial: u8) -> Arc<Gate> {
        Arc::new(Gate {
            state: Mutex::new(initial),
            cv: Condvar::new(),
        })
    }

    fn set(&self, v: u8) {
        *self.state.lock().unwrap() = v;
        self.cv.notify_all();
    }

    fn check(&self) {
        let mut s = self.state.lock().unwrap();
        while *s == BLOCK {
            s = self.cv.wait(s).unwrap();
        }
    }
}

/// The commit-insulation contract: a follower that stops draining is
/// disconnected by the sync thread's `try_send` overflow — primary acks
/// are never delayed, pinned by freezing the follower's *sender* thread
/// (not the sync thread) at the barrier for more rounds than its queue
/// holds.
#[test]
fn a_slow_follower_is_disconnected_and_never_delays_primary_acks() {
    const K: usize = QUEUE_DEPTH + 8;
    let wl = RecoveryWorkload::generate(0x510, 16, K, 4);
    let dir = temp_dir("slow");
    let gate = Gate::new(PASS);
    let hook_gate = Arc::clone(&gate);
    let primary = Server::start(ServerConfig {
        data_dir: Some(dir.clone()),
        snapshot_every: 0,
        repl_listen: Some("127.0.0.1:0".to_owned()),
        hooks: TestHooks {
            repl_barrier: Some(Arc::new(move |_epoch| hook_gate.check())),
            ..TestHooks::default()
        },
        ..ServerConfig::default()
    })
    .expect("primary must start");
    let replica = start_replica(primary.repl_addr().unwrap());
    let raddr = replica.addr();
    let mut c = Client::connect(primary.addr()).unwrap();
    run_script(&mut c, &wl.setup_script());
    let t0 = primary_epoch(&mut c);
    assert!(
        wait_for_epoch(raddr, t0, Duration::from_secs(30)),
        "replica must be live-tailing before the freeze"
    );
    assert_eq!(primary.follower_count(), 1);

    // Freeze the follower's sender and keep committing. Every ack must
    // come back promptly (`expect_ok` would hang forever if a commit
    // waited on the frozen follower) while its queue overflows and the
    // sync thread drops the follower.
    gate.set(BLOCK);
    let t_start = Instant::now();
    for k in 0..K {
        run_script(&mut c, &wl.batch_script(k));
    }
    assert!(
        t_start.elapsed() < Duration::from_secs(30),
        "acks must not be gated on the frozen follower"
    );
    assert_eq!(listing(primary.addr()), oracle(&wl, K));
    let deadline = Instant::now() + Duration::from_secs(10);
    while primary.follower_count() != 0 {
        assert!(
            Instant::now() < deadline,
            "the frozen follower must have been disconnected by the overflow"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // Thaw: the disconnected follower reconnects, resumes from its
    // applied epoch, and converges on everything it missed.
    gate.set(PASS);
    let target = primary_epoch(&mut c);
    assert!(
        wait_for_epoch(raddr, target, Duration::from_secs(30)),
        "the dropped follower must reconnect and converge"
    );
    assert_eq!(listing(raddr), oracle(&wl, K));
    let stats = c.expect_ok("stats");
    assert!(stats.contains("repl_followers = 1"), "{stats}");

    drop(c);
    drop(replica);
    drop(primary);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The replication listener reads `hello` and `ack` lines from whoever
/// reaches it, so those reads are bounded like a client's: a peer that
/// streams past `MAX_LINE` without a newline is dropped instead of
/// growing a buffer for as long as it cares to send.
#[test]
fn a_newline_free_stream_into_the_replication_listener_is_dropped() {
    let wl = RecoveryWorkload::generate(0xB0B, 14, 8, 3);
    let dir = temp_dir("hostile");
    let primary = start_primary(&dir, 0);
    let repl_addr = primary.repl_addr().unwrap();
    let mut c = Client::connect(primary.addr()).unwrap();
    run_script(&mut c, &wl.setup_script());

    // More than the limit, and never a newline. The listener stops
    // reading at the limit, so the tail of this write may fail — fine.
    let mut hostile = TcpStream::connect(repl_addr).unwrap();
    let _ = hostile.write_all(&vec![b'h'; MAX_LINE + 4096]);
    // Dropped means EOF, or a reset for the unread tail — promptly, not
    // when the handshake timeout of an unbounded read expires.
    hostile
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    if let Err(e) = hostile.read_to_end(&mut Vec::new()) {
        assert!(
            !matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
            "the listener kept reading past MAX_LINE: {e}"
        );
    }

    // The primary is unharmed: commits still ack, and a real follower
    // still bootstraps and converges.
    for k in 0..wl.batches.len() {
        run_script(&mut c, &wl.batch_script(k));
    }
    let replica = start_replica(repl_addr);
    let target = primary_epoch(&mut c);
    assert!(
        wait_for_epoch(replica.addr(), target, Duration::from_secs(30)),
        "a follower must still converge after the hostile peer"
    );
    assert_eq!(listing(replica.addr()), oracle(&wl, wl.batches.len()));

    drop(c);
    drop(replica);
    drop(primary);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Version 4 frames never hold `.shards`; a version-3 peer could still
/// ship or expect them. A follower that says `hello 3` is dropped before
/// it registers or receives a byte, and a `hello 4` one is served.
#[test]
fn a_version_3_follower_is_refused() {
    let wl = RecoveryWorkload::generate(0x7E3, 10, 4, 3);
    let dir = temp_dir("hello_3");
    let primary = start_primary(&dir, 0);
    let repl_addr = primary.repl_addr().unwrap();
    let mut c = Client::connect(primary.addr()).unwrap();
    run_script(&mut c, &wl.setup_script());

    let reply = |hello: &str| {
        let mut s = TcpStream::connect(repl_addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        s.write_all(hello.as_bytes()).unwrap();
        let mut first = [0u8; 6];
        match s.read(&mut first) {
            Ok(n) => String::from_utf8_lossy(&first[..n]).into_owned(),
            Err(e) => {
                assert!(
                    !matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
                    "`{hello}` was neither served nor dropped: {e}"
                );
                String::new()
            }
        }
    };
    assert_eq!(reply("hello 3 0\n"), "", "a v3 follower was served");
    assert_eq!(stat_field(&c.expect_ok("stats"), "repl_followers"), 0);
    // Epoch 0 against a tip past it: a v4 follower gets the log.
    assert!(reply("hello 4 0\n").starts_with("round "));

    drop(c);
    drop(primary);
    let _ = std::fs::remove_dir_all(&dir);
}
