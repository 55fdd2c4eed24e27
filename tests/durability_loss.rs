//! The one failure rule, end to end: once the write-ahead log has failed,
//! a durable server acks no write `ok` — the `no-acked-write-lost` row of
//! docs/ARCHITECTURE.md holds *after* a log failure too. Reads keep being
//! served, `shutdown` still stops the listener, and a restart recovers
//! every write that was acked `ok`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use ivme::workload::Client;
use ivme_server::{FsyncMode, Server, ServerConfig, TestHooks};

mod support;
use support::temp_dir;

#[test]
fn after_the_log_fails_no_write_is_acked_and_every_acked_write_survives_a_restart() {
    let dir = temp_dir("thread");
    let config = |hooks| ServerConfig {
        data_dir: Some(dir.clone()),
        fsync: FsyncMode::Group,
        hooks,
        ..ServerConfig::default()
    };
    // The injected failure: a panic on the sync thread before an append,
    // standing in for a bug anywhere in the log's code.
    let crash = Arc::new(AtomicBool::new(false));
    let hook_crash = Arc::clone(&crash);
    let mut server = Server::start(config(TestHooks {
        sync_barrier: Some(Arc::new(move |_epoch| {
            assert!(!hook_crash.load(Ordering::SeqCst), "injected log failure");
        })),
        ..TestHooks::default()
    }))
    .unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    for line in [
        "query Q(A) :- R(A,B), S(B)",
        "insert R 1,10",
        "insert R 2,20",
    ] {
        c.expect_ok(line);
    }
    c.expect_ok("build");
    c.expect_ok("insert S 10");
    assert_eq!(c.expect_ok("count"), "1\n");

    crash.store(true, Ordering::SeqCst);
    // The write in flight when the log dies, and every write after it: an
    // `err`, never an `ok` — none of them can be made durable. The panic
    // loses durability before the round is released, so the first write
    // reads the same `err` as the rest, and the later ones are refused
    // before they touch the session.
    for attempt in 0..3 {
        let reply = c.request("insert S 20").unwrap();
        assert!(
            reply.as_ref().is_err_and(|e| e.contains("durability lost")),
            "write {attempt} after the log failed: {reply:?}"
        );
    }
    assert_eq!(
        c.expect_ok("get 2"),
        "(2) x1\n",
        "a refused write was applied"
    );
    let refusal = c.request("insert S 20").unwrap().unwrap_err();
    assert!(refusal.contains("durability lost"), "{refusal}");
    assert!(refusal.contains("restart the server"), "{refusal}");
    // Admin verbs are writes too; reads are not.
    let admin = c.request("epsilon 0.25").unwrap().unwrap_err();
    assert!(admin.contains("durability lost"), "{admin}");
    assert!(c.request("count").unwrap().is_ok());
    assert!(c.expect_ok("stats").contains("wal_epoch = "));
    // `shutdown` still stops the listener — there is nothing to persist.
    let msg = c.expect_ok("shutdown");
    assert!(msg.contains("durability was lost"), "{msg}");
    assert!(server.is_shutdown());
    drop(c);
    server.stop();
    drop(server);

    // Exactly the acked prefix comes back: `insert S 10` and nothing else.
    let server = Server::start(config(TestHooks::default())).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    assert_eq!(c.expect_ok("count"), "1\n");
    assert_eq!(c.expect_ok("get 1"), "(1) x1\n");
    c.expect_ok("insert S 20");
    assert_eq!(c.expect_ok("count"), "2\n");
    drop(c);
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The same rule for a real I/O error, no hook involved: `wal.tmp` is a
/// directory, so the first rotation cannot create its temp file. The old
/// log is left as it is (it still holds every acked round) and writes are
/// refused from then on.
#[test]
fn a_failed_rotation_refuses_later_writes_and_loses_no_acked_one() {
    let dir = temp_dir("rotation");
    let config = ServerConfig {
        data_dir: Some(dir.clone()),
        snapshot_every: 4,
        ..ServerConfig::default()
    };
    let server = Server::start(config.clone()).unwrap();
    std::fs::create_dir(dir.join("wal.tmp")).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    // Two rounds: no checkpoint, hence no rotation, can precede them.
    c.expect_ok("query Q(A) :- S(A)");
    c.expect_ok("build");
    // The fourth round dispatches a checkpoint; once it has installed,
    // its rotation fails and the next write is refused.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut acked = 0u64;
    let refusal = loop {
        assert!(
            Instant::now() < deadline,
            "the failed rotation never surfaced"
        );
        match c.request(&format!("insert S {}", acked + 1)).unwrap() {
            Ok(_) => acked += 1,
            Err(e) => break e,
        }
    };
    assert!(refusal.contains("durability lost"), "{refusal}");
    assert!(acked >= 2, "rounds before the first checkpoint cannot fail");
    assert!(c.request("insert S 0").unwrap().is_err());
    drop(c);
    drop(server);

    std::fs::remove_dir(dir.join("wal.tmp")).unwrap();
    let server = Server::start(config).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    // Every acked write is back — and nothing else: a round queued behind
    // the failed rotation is released as lost without being appended.
    for i in 1..=acked {
        assert_eq!(c.expect_ok(&format!("get {i}")), format!("({i}) x1\n"));
    }
    assert_eq!(c.expect_ok("count"), format!("{acked}\n"));
    drop(c);
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A checkpoint never holds a round the log may still lose. The rotation
/// behind the checkpoint of round 2 fails, and round 4's frames are queued
/// behind that rotation, so round 4 is released `err durability lost` —
/// but the writer captured a checkpoint of round 4 before the sync thread
/// met the failed rotation. That checkpoint must not install, or a
/// restart serves the refused write. The hooks order the writer, sync and
/// snapshot threads, and checkpoints are due every second round, so no
/// round but the 2nd and the 4th can take one; nothing sleeps.
#[test]
fn a_checkpoint_captured_behind_a_failed_rotation_never_installs() {
    let dir = temp_dir("behind_rotation");
    // The sync thread reports round 3 and holds its frames until told; the
    // snapshot thread reports every checkpoint and holds the first.
    let (sync_at, sync_seen) = mpsc::channel();
    let (sync_go, sync_wait) = mpsc::channel::<()>();
    let (snap_at, snap_seen) = mpsc::channel();
    let (snap_go, snap_wait) = mpsc::channel::<()>();
    let (sync_wait, snap_wait) = (Mutex::new(sync_wait), Mutex::new(snap_wait));
    let hooks = TestHooks {
        sync_barrier: Some(Arc::new(move |epoch| {
            if epoch == 3 {
                let _ = sync_at.send(epoch);
                let _ = sync_wait.lock().unwrap().recv();
            }
        })),
        snapshot_barrier: Some(Arc::new(move |epoch| {
            let _ = snap_at.send(epoch);
            if epoch == 2 {
                let _ = snap_wait.lock().unwrap().recv();
            }
        })),
        ..TestHooks::default()
    };
    let server = Server::start(ServerConfig {
        data_dir: Some(dir.clone()),
        snapshot_every: 2,
        hooks,
        ..ServerConfig::default()
    })
    .unwrap();
    // Every rotation from here on fails.
    std::fs::create_dir(dir.join("wal.tmp")).unwrap();
    let addr = server.addr();
    let mut a = Client::connect(addr).unwrap();
    // Rounds 1 and 2 are durable and acked; round 2's checkpoint is held.
    a.expect_ok("query Q(A) :- S(A)");
    a.expect_ok("build");
    assert_eq!(snap_seen.recv().unwrap(), 2);
    // Round 3 is published; its frames are held on the sync thread.
    let kept = std::thread::spawn(move || a.request("insert S 5").unwrap());
    assert_eq!(sync_seen.recv().unwrap(), 3);
    // The checkpoint installs and queues its rotation behind round 3.
    snap_go.send(()).unwrap();
    let mut reader = Client::connect(addr).unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    while !reader
        .expect_ok("stats")
        .contains("snapshot_in_progress = 0")
    {
        assert!(Instant::now() < deadline, "the checkpoint never finished");
    }
    // Round 4 passes the writer's check — nothing has failed yet — so its
    // frames queue behind the rotation, and the writer captures a
    // checkpoint of it.
    let mut b = Client::connect(addr).unwrap();
    let lost = std::thread::spawn(move || b.request("insert S 1").unwrap());
    assert_eq!(snap_seen.recv().unwrap(), 4);
    // Round 3 becomes durable, the rotation fails, round 4 is lost.
    sync_go.send(()).unwrap();
    assert!(kept.join().unwrap().is_ok());
    let refused = lost.join().unwrap().unwrap_err();
    assert!(refused.contains("durability lost"), "{refused}");
    drop(reader);
    drop(server);

    std::fs::remove_dir(dir.join("wal.tmp")).unwrap();
    let server = Server::start(ServerConfig {
        data_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    assert_eq!(
        c.expect_ok("get 1"),
        "(1) not in result\n",
        "a write answered `err` came back after a restart"
    );
    assert_eq!(c.expect_ok("get 5"), "(5) x1\n");
    assert_eq!(c.expect_ok("count"), "1\n");
    drop(c);
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}
