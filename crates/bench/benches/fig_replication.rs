//! Log-shipping replication for `ivme-server` (PR 10): what a follower
//! costs, how fast one catches up, and what a read fleet buys.
//!
//! Measured phases:
//!
//! 1. **Catch-up throughput vs WAL length** — with `--snapshot-every 0`
//!    the whole history lives in the WAL. Commit `W` storm rounds, then
//!    boot a *fresh* replica against the live primary and time until its
//!    `replica_epoch` reaches the primary's committed epoch: the
//!    bootstrap scan-and-ship path, end to end (scan, wire, parse,
//!    apply, publish). Reported as frames/s over the full shipped
//!    history.
//! 2. **Steady-state lag under the write storm** — a group-commit storm
//!    (4 concurrent writers, atomic insert/delete batch
//!    pairs over disjoint ranges) against a primary with one live-tailing
//!    replica. A sampler polls the primary's per-follower `lag_frames`
//!    (frames sent minus frames acked) throughout; reported are the peak
//!    and final lag plus the time the replica needs to drain to the
//!    primary's final epoch once the storm stops.
//! 3. **Read scaling: 1 primary + 2 replicas vs primary-only** — the
//!    capacity argument for read replicas. Offered load is fixed *per
//!    endpoint* (the same closed-loop reader count against every member),
//!    so the fleet row measures whether each added replica adds real
//!    serving capacity: aggregate reads/s over 3 endpoints vs the same
//!    per-endpoint load on the primary alone. Replicas are converged
//!    before the row runs and every endpoint must serve the same count.
//!
//! The primary runs at `--fsync group`, the only mode a replicating
//! primary accepts, so every phase pays one fsync per committed round.
//!
//! The fleet / primary-only ratio is printed, not gated: closed-loop
//! readers are latency-bound until the CPUs saturate, and with fewer
//! cores than endpoints the members time-share them, so added endpoints
//! add no capacity on the machines this runs on.
//!
//! Correctness anchors (asserted on every run): every storm is fully
//! acked, each converged replica serves exactly the primary's count, and
//! no replica ever reports `replica_broken`.
//!
//! `IVME_BENCH_QUICK=1` shrinks the grids (CI).

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ivme_data::Tuple;
use ivme_server::repl::{Replica, ReplicaConfig};
use ivme_server::{FsyncMode, Server, ServerConfig};
use ivme_workload::serve::{delete_batch_script, drive_multi, insert_batch_script, Client, Script};
use ivme_workload::{poll_stat, wait_for_epoch, RecoveryWorkload};

fn quick() -> bool {
    std::env::var("IVME_BENCH_QUICK").is_ok_and(|v| v == "1")
}

struct Shape {
    /// Seed rows staged before `build`.
    n_seed: usize,
    /// Tuples per storm batch.
    batch: usize,
    /// WAL lengths (in storm rounds) for the catch-up grid.
    catchup_rounds: &'static [usize],
    /// Insert/delete round pairs per writer in the lag storm.
    storm_rounds: usize,
    /// Closed-loop readers per endpoint in the scaling row.
    readers_per_endpoint: usize,
    /// Timed reads per reader in the scaling row.
    reads_per_client: usize,
}

fn shape() -> Shape {
    if quick() {
        Shape {
            n_seed: 20,
            batch: 32,
            catchup_rounds: &[8, 32],
            storm_rounds: 6,
            readers_per_endpoint: 2,
            reads_per_client: 400,
        }
    } else {
        Shape {
            n_seed: 40,
            batch: 128,
            catchup_rounds: &[16, 64, 256],
            storm_rounds: 10,
            readers_per_endpoint: 4,
            reads_per_client: 2000,
        }
    }
}

/// A fresh per-phase data dir under the system temp root.
fn bench_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("ivme_fig_repl_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn start_primary(dir: &Path, snapshot_every: u64) -> Server {
    Server::start(ServerConfig {
        data_dir: Some(dir.to_owned()),
        fsync: FsyncMode::Group,
        snapshot_every,
        repl_listen: Some("127.0.0.1:0".to_owned()),
        ..ServerConfig::default()
    })
    .expect("primary start")
}

fn start_replica(primary: SocketAddr) -> Replica {
    Replica::start(ReplicaConfig {
        primary: primary.to_string(),
        listen: "127.0.0.1:0".to_owned(),
    })
    .expect("replica start")
}

/// Runs the workload's setup script over the wire; returns the request
/// count (== the number of commit rounds the setup produced).
fn run_setup(addr: SocketAddr, wl: &RecoveryWorkload) -> usize {
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

fn served_count(addr: SocketAddr) -> usize {
    let mut c = Client::connect(addr).expect("count connect");
    c.expect_ok("count").trim().parse().expect("count payload")
}

/// The primary's committed epoch (its published `snapshot_epoch`).
fn primary_epoch(addr: SocketAddr) -> u64 {
    poll_stat(addr, "snapshot_epoch").expect("primary stats")
}

/// Converges `addr` to the primary's epoch and anchors the result: same
/// count as the primary, and never broken.
fn converge(addr: SocketAddr, target: u64, primary: SocketAddr, what: &str) {
    assert!(
        wait_for_epoch(addr, target, Duration::from_secs(120)),
        "{what}: replica never reached epoch {target}"
    );
    assert_eq!(poll_stat(addr, "replica_broken"), Some(0), "{what}");
    assert_eq!(served_count(addr), served_count(primary), "{what}");
}

/// The balanced write storm over a caller-chosen tuple range (disjoint
/// ranges let concurrent writers storm without over-deleting).
fn storm_scripts_at(batch: usize, rounds: usize, base: i64) -> Vec<Script> {
    let tuples: Vec<Tuple> = (0..batch as i64)
        .map(|j| Tuple::ints(&[base + j, base + 1000 + j]))
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
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let wl = RecoveryWorkload::generate(0xF17, sh.n_seed, 1, 1);
    println!(
        "# fig_replication: log-shipping replicas (seed {} rows, batch {}, {cores} core(s))",
        sh.n_seed, sh.batch
    );

    // ------------------------------------------------------------------
    // Phase 1: catch-up throughput vs WAL length.
    // ------------------------------------------------------------------
    println!("\n# phase 1 — fresh-replica catch-up vs WAL length (--snapshot-every 0):");
    for &rounds in sh.catchup_rounds {
        let dir = bench_dir(&format!("catchup{rounds}"));
        let primary = start_primary(&dir, 0);
        let addr = primary.addr();
        let setup_rounds = run_setup(addr, &wl) as u64;
        let scripts = storm_scripts_at(sh.batch, rounds / 2, 1000);
        let report = drive_multi(&[addr], 0, "count", 0, 0, std::slice::from_ref(&scripts));
        assert_eq!(report.write_errors, 0, "storm must be accepted");
        let target = primary_epoch(addr);
        let frames = setup_rounds + scripts.len() as u64;

        let t0 = Instant::now();
        let replica = start_replica(primary.repl_addr().expect("repl listener"));
        let raddr = replica.addr();
        converge(raddr, target, addr, &format!("catch-up rounds={rounds}"));
        let secs = t0.elapsed().as_secs_f64();
        println!(
            "rounds = {rounds:<5} frames = {frames:<6} catch-up = {:>9.2} ms  ({:.0} frames/s)",
            secs * 1e3,
            frames as f64 / secs.max(1e-9)
        );
        drop(replica);
        drop(primary);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // ------------------------------------------------------------------
    // Phase 2: steady-state lag under the 4-writer storm.
    // ------------------------------------------------------------------
    const WRITERS: usize = 4;
    println!(
        "\n# phase 2 — live-tail lag under the write storm ({WRITERS} writers x {} scripts):",
        2 * sh.storm_rounds
    );
    let dir = bench_dir("lag");
    let primary = start_primary(&dir, 0);
    let addr = primary.addr();
    run_setup(addr, &wl);
    let replica = start_replica(primary.repl_addr().expect("repl listener"));
    let raddr = replica.addr();
    converge(raddr, primary_epoch(addr), addr, "pre-storm tail");

    let stop = Arc::new(AtomicBool::new(false));
    let sampler = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut peak = 0u64;
            let mut last = 0u64;
            while !stop.load(Ordering::SeqCst) {
                if let Some(lag) = poll_stat(addr, "lag_frames") {
                    peak = peak.max(lag);
                    last = lag;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            (peak, last)
        })
    };
    let writer_scripts: Vec<Vec<Script>> = (0..WRITERS as i64)
        .map(|w| storm_scripts_at(sh.batch, sh.storm_rounds, 1000 + w * 10_000))
        .collect();
    let report = drive_multi(&[addr], 0, "count", 0, 0, &writer_scripts);
    assert_eq!(report.write_errors, 0, "storm must be accepted");
    let storm_updates_per_s = report.updates_per_sec();
    stop.store(true, Ordering::SeqCst);
    let (peak_lag, end_lag) = sampler.join().expect("lag sampler");

    let t0 = Instant::now();
    converge(raddr, primary_epoch(addr), addr, "post-storm drain");
    let drain_ms = t0.elapsed().as_secs_f64() * 1e3;
    println!(
        "storm = {storm_updates_per_s:>10.0} updates/s   lag peak = {peak_lag} frames, \
         at storm end = {end_lag} frames, drained in {drain_ms:.2} ms"
    );
    drop(replica);
    drop(primary);
    let _ = std::fs::remove_dir_all(&dir);

    // ------------------------------------------------------------------
    // Phase 3: read scaling — 1 primary + 2 replicas vs primary-only.
    // ------------------------------------------------------------------
    let r = sh.readers_per_endpoint;
    println!(
        "\n# phase 3 — read scaling, {r} closed-loop readers per endpoint x {} reads:",
        sh.reads_per_client
    );
    let dir = bench_dir("scale");
    let primary = start_primary(&dir, 0);
    let addr = primary.addr();
    run_setup(addr, &wl);
    let target = primary_epoch(addr);
    let replicas: Vec<Replica> = (0..2)
        .map(|_| start_replica(primary.repl_addr().expect("repl listener")))
        .collect();
    for (i, rep) in replicas.iter().enumerate() {
        converge(rep.addr(), target, addr, &format!("scale replica {i}"));
    }

    let warmup = (sh.reads_per_client / 10).max(10);
    let solo = drive_multi(&[addr], r, "count", warmup, sh.reads_per_client, &[]);
    let fleet_addrs = [addr, replicas[0].addr(), replicas[1].addr()];
    let fleet = drive_multi(
        &fleet_addrs,
        3 * r,
        "count",
        warmup,
        sh.reads_per_client,
        &[],
    );
    let solo_rps = solo.reads_per_sec();
    let fleet_rps = fleet.reads_per_sec();
    let scaling = fleet_rps / solo_rps.max(1e-9);
    println!("primary-only      {solo_rps:>12.0} reads/s  ({r} readers)");
    println!(
        "primary+2replicas {fleet_rps:>12.0} reads/s  ({} readers over 3 endpoints)",
        3 * r
    );
    println!(
        "# fleet sustains {scaling:.2}x the primary-only aggregate on {cores} core(s) \
         (printed, not gated)"
    );
    for rep in &replicas {
        assert_eq!(poll_stat(rep.addr(), "replica_broken"), Some(0));
    }
    drop(replicas);
    drop(primary);
    let _ = std::fs::remove_dir_all(&dir);
}
