//! Durability cost and crash-recovery time for `ivme-server`
//! (group-commit WAL, pipelined fsync, engine snapshots) — the sweeps
//! `fig_ledger` does not run: every `--fsync` mode, and WAL length.
//!
//! Measured phases:
//!
//! 1. **fsync cost** — the same group-commit write storm (atomic
//!    insert/delete batch pairs over loopback, one writer, closed loop at
//!    script granularity) against three servers: no data dir at all, and
//!    `--fsync none|group`. What durability costs the write path, mode by
//!    mode.
//! 2. **Recovery time vs WAL length** — with `--snapshot-every 0`
//!    (checkpoint only on clean shutdown) the whole history lives in the
//!    WAL. Commit `W` rounds, hard-kill the server, and time the next
//!    `Server::start` on the same dir: replay is the live admin/apply
//!    path, so the cost scales with the replayed history.
//! 3. **Recovery with checkpoints** — the same largest history with
//!    periodic snapshots enabled: boot loads the newest snapshot and
//!    replays only the tail, so recovery time decouples from history
//!    length.
//!
//! The `--fsync group` / no-WAL throughput ratio is printed, not gated:
//! the bench cannot tell whether its temp dir's fsync reaches a disk or
//! only the page cache (tmpfs, overlay), and the ratio means something
//! only in the first case.
//!
//! Correctness anchors (asserted on every run): every storm is fully
//! acked, the served count is unchanged after each balanced storm, and
//! every recovery replays exactly the expected number of WAL frames and
//! commit rounds and serves the same count as before the kill.
//!
//! `IVME_BENCH_QUICK=1` shrinks the grids (CI).

use std::path::{Path, PathBuf};
use std::time::Instant;

use ivme_data::Tuple;
use ivme_server::{FsyncMode, Server, ServerConfig};
use ivme_workload::serve::{delete_batch_script, drive, insert_batch_script, Client, Script};
use ivme_workload::RecoveryWorkload;

fn quick() -> bool {
    std::env::var("IVME_BENCH_QUICK").is_ok_and(|v| v == "1")
}

struct Shape {
    /// Seed rows staged before `build`.
    n_seed: usize,
    /// Tuples per storm batch.
    batch: usize,
    /// Insert/delete round pairs in the fsync-cost storm.
    rounds: usize,
    /// WAL lengths (in storm rounds) for the recovery-time grid.
    recovery_rounds: &'static [usize],
    /// `--snapshot-every` for the checkpointed-recovery phase.
    snap_every: u64,
}

fn shape() -> Shape {
    if quick() {
        Shape {
            n_seed: 20,
            batch: 32,
            rounds: 6,
            recovery_rounds: &[4, 16],
            snap_every: 8,
        }
    } else {
        Shape {
            n_seed: 40,
            batch: 128,
            rounds: 10,
            recovery_rounds: &[16, 64, 256],
            snap_every: 32,
        }
    }
}

/// A fresh per-phase data dir under the system temp root.
fn bench_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("ivme_fig_recovery_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn start(dir: Option<&Path>, fsync: FsyncMode, snapshot_every: u64) -> Server {
    Server::start(ServerConfig {
        data_dir: dir.map(Path::to_owned),
        fsync,
        snapshot_every,
        ..ServerConfig::default()
    })
    .expect("server start")
}

/// Runs the workload's setup script over the wire; returns the request
/// count (== the number of commit rounds the setup produced).
fn run_setup(addr: std::net::SocketAddr, wl: &RecoveryWorkload) -> usize {
    let text = wl.setup_script();
    let requests = text.lines().count();
    let mut admin = Client::connect(addr).expect("admin connect");
    let errors = admin
        .run_script(&Script {
            text,
            requests,
            updates: 0,
        })
        .expect("setup script");
    assert_eq!(errors, 0, "setup must succeed");
    requests
}

fn served_count(addr: std::net::SocketAddr) -> usize {
    let mut c = Client::connect(addr).expect("count connect");
    c.expect_ok("count").trim().parse().expect("count payload")
}

fn stat_field(stats: &str, key: &str) -> u64 {
    stats
        .split(&format!("{key} = "))
        .nth(1)
        .and_then(|s| s.split(|c: char| c == ',' || c.is_whitespace()).next())
        .unwrap_or_else(|| panic!("no `{key}` in stats: {stats}"))
        .parse()
        .unwrap_or_else(|_| panic!("unparsable `{key}` in stats: {stats}"))
}

/// The balanced write storm: `rounds` insert/delete pairs of `batch`
/// distinct S-tuples outside the workload's domain — every pair restores
/// the state, so the served count is an invariant the anchors can check.
fn storm_scripts(batch: usize, rounds: usize) -> Vec<Script> {
    let tuples: Vec<Tuple> = (0..batch as i64)
        .map(|j| Tuple::ints(&[1000 + j, 2000 + j]))
        .collect();
    (0..rounds)
        .flat_map(|_| {
            [
                insert_batch_script("S", &tuples),
                delete_batch_script("S", &tuples),
            ]
        })
        .collect()
}

fn main() {
    let sh = shape();
    let wl = RecoveryWorkload::generate(0xF16, sh.n_seed, 1, 1);
    println!(
        "# fig_recovery: WAL fsync cost and crash-recovery time (seed {} rows, batch {})",
        sh.n_seed, sh.batch
    );

    // ------------------------------------------------------------------
    // Phase 1: write throughput per fsync mode.
    // ------------------------------------------------------------------
    let scripts = storm_scripts(sh.batch, sh.rounds);
    let modes: [(&str, Option<FsyncMode>); 3] = [
        ("no-wal", None),
        ("fsync=none", Some(FsyncMode::None)),
        ("fsync=group", Some(FsyncMode::Group)),
    ];
    println!(
        "\n# phase 1 — group-commit write storm ({} updates/script x {} scripts):",
        sh.batch,
        scripts.len()
    );
    let mut ups = [0f64; 3];
    for (i, (label, mode)) in modes.iter().enumerate() {
        let dir = bench_dir(&format!("mode{i}"));
        let server = match mode {
            None => start(None, FsyncMode::Group, 0),
            Some(m) => start(Some(&dir), *m, 0),
        };
        let addr = server.addr();
        run_setup(addr, &wl);
        let before = served_count(addr);
        let report = drive(addr, 0, "count", 0, 0, std::slice::from_ref(&scripts));
        assert_eq!(report.write_errors, 0, "{label}: storm must be accepted");
        assert_eq!(
            served_count(addr),
            before,
            "{label}: balanced storm must not change the served state"
        );
        ups[i] = report.updates_per_sec();
        println!("{label:<14} {:>12.0} updates/s", ups[i]);
        drop(server);
        let _ = std::fs::remove_dir_all(&dir);
    }
    let group_ratio = ups[2] / ups[0].max(1e-9);
    println!("# fsync=group sustains {group_ratio:.2}x the no-WAL path (printed, not gated)");

    // ------------------------------------------------------------------
    // Phase 2: recovery time vs WAL length (no checkpoints).
    // ------------------------------------------------------------------
    println!("\n# phase 2 — crash recovery, whole history in the WAL (--snapshot-every 0):");
    let setup_rounds = wl.setup_script().lines().count() as u64;
    let mut full_ms = 0.0;
    for &rounds in sh.recovery_rounds {
        let dir = bench_dir(&format!("rec{rounds}"));
        let scripts = storm_scripts(sh.batch, rounds);
        let (count_before, expect_frames) = {
            let server = start(Some(&dir), FsyncMode::None, 0);
            let addr = server.addr();
            run_setup(addr, &wl);
            let report = drive(addr, 0, "count", 0, 0, std::slice::from_ref(&scripts));
            assert_eq!(report.write_errors, 0);
            // One WAL frame per committed unit: the setup's admin rounds
            // plus each storm script's one batch commit.
            (served_count(addr), setup_rounds + scripts.len() as u64)
            // drop(server): hard kill, no final snapshot.
        };
        let t0 = Instant::now();
        let server = start(Some(&dir), FsyncMode::None, 0);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let addr = server.addr();
        assert_eq!(served_count(addr), count_before, "recovered count diverged");
        let stats = Client::connect(addr).unwrap().expect_ok("stats");
        assert_eq!(stat_field(&stats, "wal_frames"), expect_frames, "{stats}");
        assert_eq!(
            stat_field(&stats, "recovered_groups"),
            expect_frames,
            "every frame is its own commit round here: {stats}"
        );
        println!(
            "rounds = {rounds:<5} frames = {expect_frames:<6} recovery = {ms:>9.2} ms  ({:.0} frames/s)",
            expect_frames as f64 / (ms / 1e3).max(1e-9)
        );
        full_ms = ms;
        drop(server);
        let _ = std::fs::remove_dir_all(&dir);
    }

    let rounds = *sh.recovery_rounds.last().unwrap();

    // ------------------------------------------------------------------
    // Phase 3: recovery with periodic checkpoints.
    // ------------------------------------------------------------------
    println!(
        "\n# phase 3 — same {rounds}-round history with --snapshot-every {}:",
        sh.snap_every
    );
    let dir = bench_dir("snap");
    let scripts = storm_scripts(sh.batch, rounds);
    let count_before = {
        let server = start(Some(&dir), FsyncMode::None, sh.snap_every);
        let addr = server.addr();
        run_setup(addr, &wl);
        let report = drive(addr, 0, "count", 0, 0, std::slice::from_ref(&scripts));
        assert_eq!(report.write_errors, 0);
        served_count(addr)
    };
    let t0 = Instant::now();
    let server = start(Some(&dir), FsyncMode::None, sh.snap_every);
    let snap_ms = t0.elapsed().as_secs_f64() * 1e3;
    let addr = server.addr();
    assert_eq!(served_count(addr), count_before, "recovered count diverged");
    let stats = Client::connect(addr).unwrap().expect_ok("stats");
    let replayed = stat_field(&stats, "recovered_groups");
    assert!(
        replayed < 2 * sh.snap_every,
        "checkpoints must bound the replayed tail: {stats}"
    );
    println!(
        "recovery = {snap_ms:.2} ms, {replayed} round(s) replayed past the snapshot \
         (vs {full_ms:.2} ms replaying all {rounds} rounds)"
    );
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}
