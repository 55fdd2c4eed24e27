//! Crash recovery: a killed server restarts into exactly the state the
//! last acked commit left behind.
//!
//! Pattern mirrors `tests/snapshot_stability.rs`: drive a randomized
//! batch history whose every prefix has a brute-force oracle, kill the
//! server at chosen points (including mid-append, by truncating or
//! corrupting the WAL tail on disk), restart against the same data dir,
//! and compare the recovered result — over the wire, through the same
//! `list`/`stats` commands a client would use — against the prefix
//! oracle. Dropping a [`Server`] is the in-process "hard kill": it stops
//! the threads without the clean-shutdown path, so nothing is persisted
//! beyond what the WAL already made durable (fsync-before-ack).

use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use ivme::data::Tuple;
use ivme::workload::{Client, RecoveryWorkload};
use ivme_server::{FsyncMode, Server, ServerConfig, TestHooks};

mod support;
use support::{damaged, listing, oracle, run_batches, run_script, stat_field, temp_dir};

fn start(dir: &Path, snapshot_every: u64) -> Server {
    Server::start(ServerConfig {
        data_dir: Some(dir.to_owned()),
        fsync: FsyncMode::Group,
        snapshot_every,
        ..ServerConfig::default()
    })
    .expect("server must start")
}

#[test]
fn kill_and_recover_matches_the_prefix_oracle() {
    let wl = RecoveryWorkload::generate(0xD1F, 20, 24, 5);
    let dir = temp_dir("kill");
    const K1: usize = 10;

    // Phase 1: setup + 10 batches, then a hard kill. snapshot_every=7
    // makes several checkpoint/rotation cycles happen mid-run, so
    // recovery exercises snapshot-load + WAL-tail replay together.
    {
        let server = start(&dir, 7);
        let mut c = Client::connect(server.addr()).unwrap();
        run_script(&mut c, &wl.setup_script());
        run_batches(&mut c, &wl, 0..K1);
        assert_eq!(listing(server.addr()), oracle(&wl, K1), "live");
        // drop(server): hard kill — no final snapshot.
    }

    // Phase 2: restart, verify the recovered state byte-for-byte,
    // then keep committing on top of it.
    let server = start(&dir, 7);
    assert_eq!(listing(server.addr()), oracle(&wl, K1), "recovered");
    let mut c = Client::connect(server.addr()).unwrap();
    let stats = c.expect_ok("stats");
    assert_eq!(
        stat_field(&stats, "updates"),
        wl.total_updates_after(K1),
        "cumulative updates must survive recovery: {stats}"
    );
    assert!(
        stat_field(&stats, "recovered_groups") > 0,
        "some rounds must have replayed from the WAL: {stats}"
    );
    assert_eq!(stat_field(&stats, "misroutes"), 0);
    run_batches(&mut c, &wl, K1..wl.batches.len());
    let k_all = wl.batches.len();
    assert_eq!(listing(server.addr()), oracle(&wl, k_all));
    drop(c);
    drop(server);

    // Phase 3: one more kill/recover cycle over the full history.
    let server = start(&dir, 7);
    assert_eq!(
        listing(server.addr()),
        oracle(&wl, k_all),
        "second recovery"
    );
    let mut c = Client::connect(server.addr()).unwrap();
    let stats = c.expect_ok("stats");
    assert_eq!(
        stat_field(&stats, "updates"),
        wl.total_updates_after(k_all),
        "{stats}"
    );
    drop(c);
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_final_wal_record_recovers_to_the_previous_batch() {
    let wl = RecoveryWorkload::generate(0x70A7, 15, 8, 4);
    let dir = temp_dir("torn");
    const K: usize = 8;
    {
        // snapshot_every = 0: no checkpoints, the WAL carries everything —
        // so the injected tear provably lands in the last batch's frame.
        let server = start(&dir, 0);
        let mut c = Client::connect(server.addr()).unwrap();
        run_script(&mut c, &wl.setup_script());
        run_batches(&mut c, &wl, 0..K);
    }
    // Fault injection: chop one byte off the log, as if the process died
    // mid-append of its final frame.
    let wal = dir.join("wal.log");
    let bytes = std::fs::read(&wal).unwrap();
    std::fs::write(&wal, &bytes[..bytes.len() - 1]).unwrap();

    let server = start(&dir, 0);
    assert_eq!(
        listing(server.addr()),
        oracle(&wl, K - 1),
        "a torn final record must roll back exactly one committed batch"
    );
    let mut c = Client::connect(server.addr()).unwrap();
    let stats = c.expect_ok("stats");
    assert_eq!(stat_field(&stats, "updates"), wl.total_updates_after(K - 1));
    // The truncated log is clean again: new commits append and survive.
    run_script(&mut c, &wl.batch_script(K - 1));
    assert_eq!(listing(server.addr()), oracle(&wl, K));
    drop(c);
    drop(server);
    let server = start(&dir, 0);
    assert_eq!(listing(server.addr()), oracle(&wl, K));
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn flipped_bit_recovers_a_valid_prefix_and_never_panics() {
    let wl = RecoveryWorkload::generate(0xB17F, 12, 8, 4);
    let dir = temp_dir("flip");
    const K: usize = 8;
    {
        let server = start(&dir, 0);
        let mut c = Client::connect(server.addr()).unwrap();
        run_script(&mut c, &wl.setup_script());
        run_batches(&mut c, &wl, 0..K);
    }
    // Corrupt a byte in the last quarter of the log — inside some batch
    // frame past the setup prefix. Recovery must truncate from the
    // damaged frame and serve the surviving prefix, never partial state.
    let wal = dir.join("wal.log");
    let mut bytes = std::fs::read(&wal).unwrap();
    let pos = bytes.len() - bytes.len() / 4;
    bytes[pos] ^= 0x10;
    std::fs::write(&wal, &bytes).unwrap();

    let server = start(&dir, 0);
    let served = listing(server.addr());
    let matched = (0..=K).rev().find(|&k| served == oracle(&wl, k));
    let Some(k) = matched else {
        panic!("recovered state matches no prefix oracle: {served:?}");
    };
    assert!(k < K, "corruption must cost at least the damaged frame");
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn clean_shutdown_persists_everything_and_replays_nothing() {
    let wl = RecoveryWorkload::generate(0xC1EA, 15, 6, 4);
    let dir = temp_dir("clean");
    const K: usize = 6;
    {
        let server = start(&dir, 0);
        let mut c = Client::connect(server.addr()).unwrap();
        run_script(&mut c, &wl.setup_script());
        run_batches(&mut c, &wl, 0..K);
        // The wire-level clean shutdown: drains, fsyncs, snapshots.
        let msg = c.expect_ok("shutdown");
        assert!(msg.contains("snapshot written"), "{msg}");
        assert!(server.is_shutdown());
    }
    let server = start(&dir, 0);
    assert_eq!(listing(server.addr()), oracle(&wl, K));
    let mut c = Client::connect(server.addr()).unwrap();
    let stats = c.expect_ok("stats");
    assert_eq!(stat_field(&stats, "updates"), wl.total_updates_after(K));
    assert_eq!(
        stat_field(&stats, "recovered_groups"),
        0,
        "a clean shutdown leaves nothing to replay: {stats}"
    );
    // Serve-layer counters also survive, via the checkpoint's `counters`
    // line.
    assert!(
        server.serve_stats().group_commits >= K as u64,
        "group_commits must be cumulative across restarts: {:?}",
        server.serve_stats()
    );
    drop(c);
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

/// admin-keeps-writes across a hard kill: an update, then `epsilon` and a
/// second `build`, then an `insert`. Replay runs the
/// logged `epsilon` and `build` under the live rule — rebuild from the
/// engine's own rows — so the recovered state still holds every write,
/// with or without checkpoints in between. A clean shutdown then writes a
/// checkpoint whose one `.batch` frame holds each row once.
#[test]
fn an_update_survives_epsilon_build_and_a_hard_kill() {
    let ints = |rows: &[[i64; 2]]| -> Vec<(Tuple, i64)> {
        rows.iter().map(|r| (Tuple::ints(r), 1)).collect()
    };
    let want = ints(&[[1, 3], [1, 4], [5, 3], [5, 4]]);
    for snapshot_every in [0, 2] {
        let dir = temp_dir(&format!("rebuild_{snapshot_every}"));
        {
            let server = start(&dir, snapshot_every);
            let mut c = Client::connect(server.addr()).unwrap();
            run_script(
                &mut c,
                "query Q(A,C) :- R(A,B), S(B,C)\ninsert R 1,2\ninsert S 2,3\nbuild\n\
                 update S 1 2,4\nepsilon 0.3\nbuild\ninsert R 5,2\n",
            );
            assert_eq!(listing(server.addr()), want, "live");
            // drop(server): hard kill — no final snapshot.
        }
        let server = start(&dir, snapshot_every);
        assert_eq!(listing(server.addr()), want, "every={snapshot_every}");
        let mut c = Client::connect(server.addr()).unwrap();
        let stats = c.expect_ok("stats");
        assert_eq!(stat_field(&stats, "updates"), 2, "{stats}");
        assert_eq!(stat_field(&stats, "batches"), 2, "{stats}");
        assert!(c.expect_ok("shutdown").contains("snapshot written"));
        drop(c);
        drop(server);
        let (checkpoint, _) = ivme_server::snapshot::load_latest(&dir).unwrap();
        let frames = checkpoint.expect("the final checkpoint").frames;
        let lines = || frames.iter().flat_map(|f| f.lines());
        let rows: Vec<&str> = lines().filter(|l| l.starts_with("insert ")).collect();
        assert_eq!(
            rows,
            [
                "insert R 1,2",
                "insert R 5,2",
                "insert S 2,3",
                "insert S 2,4"
            ]
        );
        assert_eq!(lines().filter(|&l| l == "build").count(), 1, "{frames:?}");
        assert_eq!(
            lines().filter(|&l| l == ".batch begin").count(),
            1,
            "{frames:?}"
        );
        let server = start(&dir, snapshot_every);
        assert_eq!(listing(server.addr()), want, "from the checkpoint");
        drop(server);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Replay rebuilds the serve-layer counters exactly: a round's frames
/// share its epoch and one batch frame is one committed client batch.
/// Concurrent writers make rounds of several batches; a rejected batch is
/// counted nowhere, live or replayed.
#[test]
fn kill_and_recover_rebuilds_the_group_commit_counters_exactly() {
    let wl = RecoveryWorkload::generate(0x6C0C, 15, 8, 4);
    let dir = temp_dir("counters");
    const K: usize = 8;
    const WRITERS: usize = 4;
    const INSERTS: usize = 8;
    let before = {
        let server = start(&dir, 0);
        let addr = server.addr();
        let mut c = Client::connect(addr).unwrap();
        run_script(&mut c, &wl.setup_script());
        run_batches(&mut c, &wl, 0..K);
        assert!(c.request("delete R 999,999").unwrap().is_err());
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                std::thread::spawn(move || {
                    let mut c = Client::connect(addr).unwrap();
                    for j in 0..INSERTS {
                        c.expect_ok(&format!("insert R {},{j}", 1000 + w));
                    }
                })
            })
            .collect();
        for h in writers {
            h.join().unwrap();
        }
        server.serve_stats()
        // drop(server): hard kill — snapshot_every = 0, so the restart
        // replays every round from the WAL.
    };
    // One batch per seed `insert`, the K batches, then the writers'.
    let batches = wl.seed.len() + K + WRITERS * INSERTS;
    assert_eq!(before.grouped_batches, batches as u64);
    let server = start(&dir, 0);
    let after = server.serve_stats();
    assert_eq!(
        (after.group_commits, after.grouped_batches),
        (before.group_commits, before.grouped_batches),
        "replay must rebuild the counters read before the kill"
    );
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A clean shutdown whose final checkpoint cannot be installed — a
/// directory sits where its temp file goes — says so instead of claiming
/// a snapshot, and loses nothing: the synced WAL replays on the next boot.
#[test]
fn a_final_checkpoint_that_cannot_land_is_not_reported_written() {
    let wl = RecoveryWorkload::generate(0xF1A1, 15, 6, 4);
    let dir = temp_dir("final_fails");
    const K: usize = 6;
    {
        let server = start(&dir, 0);
        let mut c = Client::connect(server.addr()).unwrap();
        run_script(&mut c, &wl.setup_script());
        run_batches(&mut c, &wl, 0..K);
        let epoch = stat_field(&c.expect_ok("stats"), "snapshot_epoch");
        std::fs::create_dir(dir.join(format!("snapshot-{epoch}.ivme.tmp"))).unwrap();
        let msg = c.expect_ok("shutdown");
        assert!(!msg.contains("final snapshot written"), "{msg}");
        assert!(msg.contains("WAL synced"), "{msg}");
        assert!(server.is_shutdown());
    }
    let server = start(&dir, 0);
    assert_eq!(listing(server.addr()), oracle(&wl, K));
    let stats = Client::connect(server.addr()).unwrap().expect_ok("stats");
    assert!(
        stat_field(&stats, "recovered_groups") > 0,
        "without a final snapshot the WAL must replay: {stats}"
    );
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Three-position valve for the durability barrier hooks: `PASS` lets
/// the hooked thread through, `BLOCK` freezes it at the barrier, `CRASH`
/// panics it exactly at the injection point.
struct Gate {
    state: Mutex<u8>,
    cv: Condvar,
}

const PASS: u8 = 0;
const BLOCK: u8 = 1;
const CRASH: u8 = 2;

impl Gate {
    fn new(initial: u8) -> Arc<Gate> {
        Arc::new(Gate {
            state: Mutex::new(initial),
            cv: Condvar::new(),
        })
    }

    // The CRASH panic unwinds out of `check` while the lock is held,
    // poisoning the mutex — deliberate, so both methods shrug off poison.
    fn set(&self, v: u8) {
        *self.state.lock().unwrap_or_else(|e| e.into_inner()) = v;
        self.cv.notify_all();
    }

    /// The hook body: waits while blocked, panics on crash.
    fn check(&self) {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        while *s == BLOCK {
            s = self.cv.wait(s).unwrap_or_else(|e| e.into_inner());
        }
        if *s == CRASH {
            panic!("injected crash before WAL append");
        }
    }
}

/// The pipelined ordering contract, pinned by fault injection: a write
/// that was *published* but whose fsync never completed is (a) never
/// acked `ok` and (b) rolled back by recovery, while every write acked
/// before the crash survives. The sync-barrier hook freezes the sync
/// thread between the writer's publish and the WAL append, then panics
/// there — the crash window the pipeline opened. The panic fails that
/// round's log operation, so durability is lost before its ack is sent.
#[test]
fn crash_between_publish_and_fsync_loses_only_unacked_writes() {
    let wl = RecoveryWorkload::generate(0xFA58, 16, 10, 4);
    let dir = temp_dir("inject");
    const K: usize = 6;
    let gate = Gate::new(PASS);
    {
        let hook_gate = Arc::clone(&gate);
        let server = Server::start(ServerConfig {
            data_dir: Some(dir.clone()),
            fsync: FsyncMode::Group,
            snapshot_every: 0,
            hooks: TestHooks {
                sync_barrier: Some(Arc::new(move |_epoch| hook_gate.check())),
                ..TestHooks::default()
            },
            ..ServerConfig::default()
        })
        .expect("server must start");
        let addr = server.addr();
        let mut c = Client::connect(addr).unwrap();
        run_script(&mut c, &wl.setup_script());
        run_batches(&mut c, &wl, 0..K);
        assert_eq!(listing(addr), oracle(&wl, K), "acked prefix");

        // Freeze the sync thread, then submit exactly one more batch:
        // the writer applies and publishes it, but its frames never
        // reach the disk and its ack is held behind the frozen fsync.
        gate.set(BLOCK);
        let script = wl.batch_script(K);
        let blocked = std::thread::spawn(move || {
            let mut c = Client::connect(addr).unwrap();
            let mut last: Result<String, String> = Ok(String::new());
            for line in script.lines() {
                last = c.request(line).expect("connection must stay alive");
            }
            last
        });
        // Publish-before-ack means other readers see the gated batch
        // while its submitter is still waiting on durability.
        let deadline = Instant::now() + Duration::from_secs(10);
        while listing(addr) != oracle(&wl, K + 1) {
            assert!(
                Instant::now() < deadline,
                "the gated batch never became visible"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        let stats = Client::connect(addr).unwrap().expect_ok("stats");
        assert!(
            stat_field(&stats, "fsync_backlog") >= 1,
            "the gated round must show as backlog: {stats}"
        );
        assert!(
            stat_field(&stats, "durable_epoch") < stat_field(&stats, "snapshot_epoch"),
            "durable frontier must lag the published epoch: {stats}"
        );

        // Crash: the sync thread panics at the barrier, before the
        // append. The gated submitter must see an error, not an ok.
        gate.set(CRASH);
        let last = blocked.join().unwrap();
        assert!(
            last.is_err(),
            "a write whose fsync never ran must not ack ok: {last:?}"
        );
        drop(c);
    }
    // Recovery: the acked prefix survives byte-for-byte; the
    // published-but-unacked batch rolled back.
    gate.set(PASS);
    let server = start(&dir, 0);
    assert_eq!(
        listing(server.addr()),
        oracle(&wl, K),
        "acked writes must survive, unacked may roll back"
    );
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The background-snapshot contract: commit rounds never wait on
/// snapshot serialization. The snapshot-barrier hook freezes the
/// snapshot thread mid-snapshot while a client keeps committing —
/// every ack arrives (`expect_ok` panics otherwise) and the published
/// epoch advances — and after release the installed snapshot plus the
/// rotated WAL tail reproduce the full acked history.
#[test]
fn commits_proceed_while_a_snapshot_is_in_progress() {
    let wl = RecoveryWorkload::generate(0x51AB, 16, 10, 4);
    let dir = temp_dir("slowsnap");
    const K: usize = 10;
    let gate = Gate::new(BLOCK); // the first snapshot freezes immediately
    {
        let hook_gate = Arc::clone(&gate);
        let server = Server::start(ServerConfig {
            data_dir: Some(dir.clone()),
            fsync: FsyncMode::Group,
            snapshot_every: 3,
            hooks: TestHooks {
                snapshot_barrier: Some(Arc::new(move |_epoch| hook_gate.check())),
                ..TestHooks::default()
            },
            ..ServerConfig::default()
        })
        .expect("server must start");
        let addr = server.addr();
        let mut c = Client::connect(addr).unwrap();
        run_script(&mut c, &wl.setup_script());
        // The cadence (every 3 dirty rounds) has dispatched a snapshot by
        // now; it is frozen inside the hook. Everything below runs with
        // that snapshot "in progress".
        let e0 = stat_field(&c.expect_ok("stats"), "snapshot_epoch");
        run_batches(&mut c, &wl, 0..K);
        let stats = c.expect_ok("stats");
        let e1 = stat_field(&stats, "snapshot_epoch");
        assert!(
            e1 >= e0 + K as u64,
            "epochs must advance while the snapshot thread is frozen: {e0} -> {e1}"
        );
        assert_eq!(
            stat_field(&stats, "snapshot_in_progress"),
            1,
            "the frozen snapshot must be visible in stats: {stats}"
        );
        assert!(
            stat_field(&stats, "durable_epoch") <= stat_field(&stats, "snapshot_epoch"),
            "{stats}"
        );
        assert_eq!(listing(addr), oracle(&wl, K));
        // Release the snapshot thread; dropping the server drains the
        // install and the WAL rotation it queues.
        gate.set(PASS);
        drop(c);
    }
    let snapshots = std::fs::read_dir(&dir)
        .unwrap()
        .filter(|e| {
            let name = e
                .as_ref()
                .unwrap()
                .file_name()
                .to_string_lossy()
                .into_owned();
            name.starts_with("snapshot-") && name.ends_with(".ivme")
        })
        .count();
    assert!(
        snapshots >= 1,
        "the background snapshot must have installed"
    );
    let server = start(&dir, 0);
    assert_eq!(
        listing(server.addr()),
        oracle(&wl, K),
        "snapshot + rotated WAL tail must reproduce the acked history"
    );
    let mut c = Client::connect(server.addr()).unwrap();
    let stats = c.expect_ok("stats");
    assert!(
        stat_field(&stats, "recovered_groups") >= 1,
        "frames committed during the snapshot must survive its rotation: {stats}"
    );
    drop(c);
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unreadable_wal_refuses_to_start() {
    // A WAL with a bad header must stop the boot, not be wiped.
    let dir = logged("badmagic", 0, &[]);
    std::fs::write(dir.join("wal.log"), b"definitely not a wal file").unwrap();
    refused_boot(&dir);
}

/// A checkpoint in the keyword format servers wrote before replication
/// version 5 (`IVMESNAP1`) is not read, and not converted. A data dir whose
/// log continues from it refuses to boot on the gap check, and the refusal
/// names the skipped file's format; both files are left as they were.
#[test]
fn a_checkpoint_of_the_retired_format_is_refused_by_name() {
    let dir = logged(
        "retired_checkpoint",
        5,
        &[".batch begin\ninsert S 10,7\n.batch commit\n"],
    );
    let text = "IVMESNAP1\nepoch 5\nengine_stats 3 2 0\nserve_stats 2 2\nepsilon 0.5\n\
                mode dynamic\nquery Q(A,C) :- R(A,B), S(B,C)\nbuilt 1\nbase 1 R 1,10\n\
                base 2 S 10,5\ncrc 00000000\n";
    std::fs::write(dir.join("snapshot-5.ivme"), text).unwrap();
    let err = refused_boot(&dir);
    assert!(
        err.contains("refusing to serve a state with a gap"),
        "{err}"
    );
    assert!(err.contains("an IVMESNAP1 checkpoint"), "{err}");
}

/// A `.batch` over a relation the engine holds and one only the row store
/// holds, whose row-store delta over-deletes, is refused whole: the
/// listing, `snapshot_epoch`, the log and the row store are as they were.
#[test]
fn a_batch_that_over_deletes_the_row_store_is_refused_whole() {
    let dir = temp_dir("store_over_delete");
    let server = start(&dir, 0);
    let mut c = Client::connect(server.addr()).unwrap();
    run_script(
        &mut c,
        "query Q(A,C) :- R(A,B), S(B,C)\ninsert R 1,10\ninsert S 10,5\nbuild\ninsert T 7\n",
    );
    let state = |c: &mut Client| {
        let epoch = stat_field(&c.expect_ok("stats"), "snapshot_epoch");
        let wal = std::fs::read(dir.join("wal.log")).unwrap();
        (listing(server.addr()), epoch, wal)
    };
    let before = state(&mut c);
    run_script(
        &mut c,
        ".batch begin\ninsert R 2,10\ndelete T 7\ndelete T 7\n",
    );
    let err = c.request(".batch commit").unwrap().unwrap_err();
    let why = "batch rejected (engine unchanged): negative multiplicity";
    assert!(err.starts_with(why), "{err}");
    assert_eq!(state(&mut c), before);
    // The row store still holds one T(7): one delete commits, the next
    // is refused.
    c.expect_ok("delete T 7");
    assert!(c.request("delete T 7").unwrap().is_err());
    drop(c);
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A data dir whose log continues from `base` and holds `frames`, one
/// round each.
fn logged(name: &str, base: u64, frames: &[&str]) -> PathBuf {
    let dir = temp_dir(name);
    std::fs::create_dir_all(&dir).unwrap();
    let mut wal = ivme_server::wal::Wal::create(&dir.join("wal.log"), base).unwrap();
    for (epoch, text) in (base + 1..).zip(frames) {
        wal.append(epoch, text).unwrap();
    }
    wal.sync().unwrap();
    dir
}

/// Boots `dir`, which must refuse to start and leave every file in it as
/// it was; returns why.
fn refused_boot(dir: &Path) -> String {
    let files = || {
        let entries = std::fs::read_dir(dir).unwrap().map(|e| e.unwrap().path());
        let mut files: Vec<_> = entries.map(|p| (std::fs::read(&p).unwrap(), p)).collect();
        files.sort_unstable();
        files
    };
    let before = files();
    let config = ServerConfig {
        data_dir: Some(dir.to_owned()),
        ..ServerConfig::default()
    };
    let Err(err) = Server::start(config) else {
        panic!("{} booted", dir.display());
    };
    assert_eq!(files(), before, "the data dir was changed");
    let _ = std::fs::remove_dir_all(dir);
    err.to_string()
}

/// A log written while `.shards` was a command may hold its frame. Replay
/// cannot honour it, so the boot is refused, naming the frame, and the
/// log is left as it was.
#[test]
fn a_wal_with_a_shards_frame_refuses_to_start() {
    let frames = [
        "query Q(A,C) :- R(A,B), S(B,C)\n",
        "insert R 1,10\ninsert R 2,10\n",
        ".shards 2\n",
        "build\n",
    ];
    let err = refused_boot(&logged("shards_frame", 0, &frames));
    assert!(err.contains("WAL replay failed at epoch 3"), "{err}");
    assert!(
        err.contains("unreplayable command in WAL: .shards 2"),
        "{err}"
    );
}

/// A log written while `row` stored rows before `build` holds `row`
/// frames. There is one write verb now and no converter, so the boot is
/// refused, naming the line, and the log is left as it was.
#[test]
fn a_wal_with_a_row_frame_refuses_to_start() {
    let frames = [
        "query Q(A,C) :- R(A,B), S(B,C)\n",
        "row R 1,10\nrow R 2,10\n",
        "build\n",
    ];
    let err = refused_boot(&logged("row_frame", 0, &frames));
    assert!(err.contains("WAL replay failed at epoch 2"), "{err}");
    let line = "unreplayable command in WAL: row R 1,10 (unknown command `row`";
    assert!(err.contains(line), "{err}");
}

/// `Wal::open` under seeded damage — one flipped bit, or a truncation —
/// over 256 seeds, on copies of a log a server wrote while it loaded rows
/// before `build`, committed batches and then built. It never panics, and
/// returns either a prefix of the clean log's frames or an error.
#[test]
fn a_damaged_wal_opens_to_a_prefix_or_refuses() {
    let dir = temp_dir("wal_fuzz");
    std::fs::create_dir_all(&dir).unwrap();
    let csv = dir.join("r.csv");
    std::fs::write(&csv, "1,10\n2,10\n3,11\n").unwrap();
    let server = start(&dir, 0);
    let script = format!(
        "query Q(A,C) :- R(A,B), S(B,C)\nload R {}\ninsert S 10,5\n.batch begin\n\
         insert S 11,6\nupdate T 3 7\n.batch commit\nbuild\ninsert R 4,10\n",
        csv.display()
    );
    run_script(&mut Client::connect(server.addr()).unwrap(), &script);
    drop(server); // a hard kill: the log keeps every round
    let path = dir.join("wal.log");
    let clean = std::fs::read(&path).unwrap();
    let frames = ivme_server::wal::Wal::open(&path).unwrap().1.frames;
    assert_eq!(frames.len(), 6, "{frames:?}");
    let mut prefixes = 0;
    for seed in 0..256u64 {
        std::fs::write(&path, damaged(&clean, seed)).unwrap();
        if let Ok((_, got)) = ivme_server::wal::Wal::open(&path) {
            assert_eq!(got.frames, frames[..got.frames.len()], "seed {seed}");
            prefixes += 1;
        }
    }
    assert!(prefixes > 200, "{prefixes} of 256 opened");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A server-written checkpoint under seeded damage — one flipped bit, or a
/// truncation — over 256 seeds. Its data dir's log continues from it, so
/// every damaged copy is skipped and the boot refuses on the gap check,
/// naming why; none panics, and none serves part of the checkpoint. The
/// undamaged control serves exactly the checkpoint's state.
#[test]
fn a_damaged_checkpoint_boots_whole_or_refuses() {
    let dir = temp_dir("fuzz_source");
    let server = start(&dir, 0);
    let mut c = Client::connect(server.addr()).unwrap();
    run_script(
        &mut c,
        "query Q(A,C) :- R(A,B), S(B,C)\ninsert R 1,10\ninsert R 2,10\ninsert S 10,5\ninsert T 7\n\
         build\nupdate S 3 10,5\ninsert R 3,11\ninsert S 11,6\n",
    );
    let want = (listing(server.addr()), c.expect_ok("count"));
    let epoch = stat_field(&c.expect_ok("stats"), "snapshot_epoch");
    assert!(c.expect_ok("shutdown").contains("final snapshot written"));
    drop(c);
    drop(server);
    let name = format!("snapshot-{epoch}.ivme");
    let clean = std::fs::read(dir.join(&name)).unwrap();
    let wal = std::fs::read(dir.join("wal.log")).unwrap();
    let _ = std::fs::remove_dir_all(&dir);

    let (mut served, mut refused) = (0, 0);
    // The last boot, seedless, is the control: the file as it was written.
    for seed in (0..256u64).map(Some).chain([None]) {
        let bytes = seed.map_or_else(|| clean.clone(), |s| damaged(&clean, s));
        let seed = seed.map_or("control".to_owned(), |s| s.to_string());
        let dir = temp_dir(&format!("fuzz_{seed}"));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("wal.log"), &wal).unwrap();
        std::fs::write(dir.join(&name), &bytes).unwrap();
        match Server::start(ServerConfig {
            data_dir: Some(dir.clone()),
            ..ServerConfig::default()
        }) {
            Ok(server) => {
                let mut c = Client::connect(server.addr()).unwrap();
                let got = (listing(server.addr()), c.expect_ok("count"));
                assert_eq!(got, want, "seed {seed} served a different state");
                served += 1;
            }
            Err(e) => {
                let e = e.to_string();
                assert!(
                    e.contains("refusing to serve a state with a gap"),
                    "seed {seed}: {e}"
                );
                assert!(e.contains(&name), "seed {seed} does not say why: {e}");
                refused += 1;
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    // The magic, the base epoch and every frame's CRC guard every byte, so
    // only the control is served.
    assert_eq!((served, refused), (1, 256));
}
