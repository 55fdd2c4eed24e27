//! The one failure rule, end to end: once the write-ahead log has failed,
//! a durable server acks no write `ok` — the `no-acked-write-lost` row of
//! docs/ARCHITECTURE.md holds *after* a log failure too. Reads keep being
//! served, `shutdown` still stops the listener, and a restart recovers
//! every write that was acked `ok`.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ivme::workload::Client;
use ivme_server::{FsyncMode, Server, ServerConfig, TestHooks};

fn temp_dir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("ivme_durloss_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

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
    for line in ["query Q(A) :- R(A,B), S(B)", "row R 1,10", "row R 2,20"] {
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
