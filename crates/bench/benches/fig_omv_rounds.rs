//! Experiment E7 — Proposition 10 / Figure 3: the OMv workload,
//! per-tuple vs batched rounds.
//!
//! Prop. 10 encodes Online Matrix-Vector Multiplication into the
//! maintenance of `Q(A) = R(A,B), S(B)`: each round loads a vector into S
//! (n updates), enumerates the result (the non-zero entries of M·v), and
//! retracts the vector. Update cost scales like N^ε and enumeration like
//! N^{1−ε}; with n rounds of n updates + one enumeration each, total round
//! cost is minimized in the middle of the ε range — the weakly
//! Pareto-optimal ε = ½ regime of Fig. 3.
//!
//! Each round's vector load/retract is exactly a [`DeltaBatch`], so this
//! harness measures both execution strategies: `seq` applies the n
//! single-tuple updates through `insert`/`delete`, `batch` applies the
//! same updates as one `apply_delta_batch` call. The next section is the
//! acceptance check for the batched pipeline: a k = 1000 vector load must
//! be ≥ 2× faster batched than as 1000 sequential inserts. The last one
//! sweeps `ShardedEngine` over k ∈ {64, 1,000, 10,000} at S ∈ {1, 2} and
//! prints the S = 2 / S = 1 speed without gating it.

//! Setting `IVME_BENCH_QUICK=1` runs a reduced grid (one matrix size, three
//! ε values, fewer rounds, the sharded sweep at k ∈ {64, 1,000} with a
//! shorter budget) that finishes in well under a minute — the CI
//! throughput-regression gate. The acceptance assertions run in both modes.

use std::time::{Duration, Instant};

use ivme_bench::{fmt_dur, time_once};
use ivme_core::{Database, EngineOptions, IvmEngine, ShardedEngine};
use ivme_workload::OmvInstance;

/// True when the reduced CI grid was requested via `IVME_BENCH_QUICK=1`.
fn quick() -> bool {
    std::env::var("IVME_BENCH_QUICK").is_ok_and(|v| v == "1")
}

fn engine_for(inst: &OmvInstance, eps: f64) -> IvmEngine {
    let mut db = Database::new();
    for t in inst.matrix_tuples() {
        db.insert("R", t, 1);
    }
    IvmEngine::from_sql("Q(A) :- R(A,B), S(B)", &db, EngineOptions::dynamic(eps)).unwrap()
}

fn sharded_engine_for(inst: &OmvInstance, eps: f64, shards: usize) -> ShardedEngine {
    let mut db = Database::new();
    for t in inst.matrix_tuples() {
        db.insert("R", t, 1);
    }
    ShardedEngine::from_sql(
        "Q(A) :- R(A,B), S(B)",
        &db,
        EngineOptions::dynamic(eps),
        shards,
    )
    .unwrap()
}

fn enumerate_rows(eng: &IvmEngine) -> Vec<i64> {
    let mut rows: Vec<i64> = eng.enumerate().map(|(t, _)| t.get(0).as_int()).collect();
    rows.sort_unstable();
    rows
}

fn main() {
    println!("# E7 / Prop. 10: OMv rounds for Q(A) = R(A,B), S(B), per-tuple vs batched");
    println!(
        "{:<8} {:>8} {:>10} {:>14} {:>14} {:>14} {:>14} {:>8}",
        "eps",
        "n",
        "entries",
        "seq updates",
        "batch updates",
        "enumerate",
        "total(batch)",
        "speedup"
    );
    let (sizes, rounds, eps_grid): (&[usize], usize, &[f64]) = if quick() {
        (&[64], 8, &[0.0, 0.5, 1.0])
    } else {
        (&[64, 128], 16, &[0.0, 0.25, 0.5, 0.75, 1.0])
    };
    for &n in sizes {
        let inst = OmvInstance::generate(n, rounds, 0.25, 42);
        for &eps in eps_grid {
            let mut seq = engine_for(&inst, eps);
            let mut bat = engine_for(&inst, eps);
            let mut seq_update = std::time::Duration::ZERO;
            let mut bat_update = std::time::Duration::ZERO;
            let mut enum_time = std::time::Duration::ZERO;
            let mut verified = 0usize;
            for r in 0..rounds {
                let vt = inst.vector_tuples(r);
                // Per-tuple round.
                let (_, t1) = time_once(|| {
                    for t in &vt {
                        seq.insert("S", t.clone()).unwrap();
                    }
                });
                // Batched round on the twin engine.
                let load = inst.vector_batch(r);
                let (_, b1) = time_once(|| bat.apply_delta_batch(&load).unwrap());
                let (rows, t2) = time_once(|| enumerate_rows(&bat));
                assert_eq!(
                    rows,
                    inst.expected_product(r),
                    "ε={eps} round {r} (batched)"
                );
                assert_eq!(
                    enumerate_rows(&seq),
                    rows,
                    "ε={eps} round {r}: strategies diverged"
                );
                verified += rows.len();
                let (_, t3) = time_once(|| {
                    for t in &vt {
                        seq.delete("S", t.clone()).unwrap();
                    }
                });
                let retract = inst.vector_retract_batch(r);
                let (_, b3) = time_once(|| bat.apply_delta_batch(&retract).unwrap());
                seq_update += t1 + t3;
                bat_update += b1 + b3;
                enum_time += t2;
            }
            let speedup = seq_update.as_secs_f64() / bat_update.as_secs_f64().max(1e-12);
            println!(
                "{:<8} {:>8} {:>10} {:>14} {:>14} {:>14} {:>14} {:>7.1}x",
                eps,
                n,
                verified,
                fmt_dur(seq_update),
                fmt_dur(bat_update),
                fmt_dur(enum_time),
                fmt_dur(bat_update + enum_time),
                speedup
            );
        }
        println!();
    }
    println!("# Expectation: update cost rises and enumeration cost falls with eps;");
    println!("# the balanced total sits in the middle (the OMv barrier allows no");
    println!("# algorithm with both below N^(1/2-γ), Prop. 10).\n");

    // ------------------------------------------------------------------
    // Acceptance check: k = 1000 single-tuple updates, batched vs
    // sequential, on the OMv workload.
    // ------------------------------------------------------------------
    // Sparse matrix, one full vector: loading it is exactly k = 1000 unit
    // inserts.
    let inst = OmvInstance::sparse_acceptance(1000);
    println!("# Batched apply of k=1000 updates vs 1000 sequential inserts (same engine state):");
    println!(
        "{:<8} {:>14} {:>14} {:>10}",
        "eps", "sequential", "batched", "speedup"
    );
    let accept_eps: &[f64] = if quick() { &[0.5] } else { &[0.25, 0.5, 0.75] };
    for &eps in accept_eps {
        let mut seq = engine_for(&inst, eps);
        let mut bat = engine_for(&inst, eps);
        let vt = inst.vector_tuples(0);
        assert_eq!(vt.len(), 1000);
        // One untimed warm-up round, then best of three timed trials per
        // strategy (each trial retracts untimed to reset the state), so
        // first-touch faults and scheduler noise stay out of the ratio.
        let load = inst.vector_batch(0);
        let retract = inst.vector_retract_batch(0);
        for t in &vt {
            seq.insert("S", t.clone()).unwrap();
        }
        for t in &vt {
            seq.delete("S", t.clone()).unwrap();
        }
        bat.apply_delta_batch(&load).unwrap();
        bat.apply_delta_batch(&retract).unwrap();
        // The acceptance metric is the k-insert load itself (best of three
        // timed trials; retracts between trials are untimed resets).
        let mut t_seq = std::time::Duration::MAX;
        let mut t_bat = std::time::Duration::MAX;
        for trial in 0..3 {
            let (_, t) = time_once(|| {
                for t in &vt {
                    seq.insert("S", t.clone()).unwrap();
                }
            });
            t_seq = t_seq.min(t);
            if trial < 2 {
                for t in &vt {
                    seq.delete("S", t.clone()).unwrap();
                }
            }
            let (_, t) = time_once(|| bat.apply_delta_batch(&load).unwrap());
            t_bat = t_bat.min(t);
            if trial < 2 {
                bat.apply_delta_batch(&retract).unwrap();
            }
        }
        assert_eq!(
            enumerate_rows(&seq),
            enumerate_rows(&bat),
            "ε={eps}: batched k=1000 load diverged from sequential"
        );
        assert_eq!(enumerate_rows(&bat), inst.expected_product(0), "ε={eps}");
        let speedup = t_seq.as_secs_f64() / t_bat.as_secs_f64().max(1e-12);
        println!(
            "{:<8} {:>14} {:>14} {:>9.1}x",
            eps,
            fmt_dur(t_seq),
            fmt_dur(t_bat),
            speedup
        );
        assert!(
            speedup >= 2.0,
            "batched apply of k=1000 updates must be ≥2x faster than sequential \
             (ε={eps}: {:?} vs {:?}, {speedup:.2}x)",
            t_seq,
            t_bat
        );
    }
    println!("\n# Acceptance: batched k=1000 apply is >=2x sequential at every ε above.");

    // ------------------------------------------------------------------
    // Sharded rows: a k-update OMv load and its retraction, cycled
    // through ShardedEngine at S = 1 and S = 2, the two engines taking
    // turns cycle by cycle so the box's drift hits both alike. Reported:
    // the median µs per batch (loads and retracts alike) and the
    // S = 2 / S = 1 speed, printed, not gated — the shards apply one after
    // another on this thread, so the ratio prices what partitioning costs.
    // The result anchor runs at every k and S.
    //
    // This sweep is the evidence ROADMAP item 9 closed on: on a 2-vCPU box
    // S = 2 runs at 0.80–0.84x of S = 1 for k = 64 and 0.84–0.89x for
    // k = 1,000, so the shell and the server run one engine. What would
    // reopen it: a box with at least 4 cores where a threaded S = 2 beats
    // this sequential one.
    // ------------------------------------------------------------------
    let (ks, budget): (&[usize], Duration) = if quick() {
        (&[64, 1_000], Duration::from_millis(300))
    } else {
        (&[64, 1_000, 10_000], Duration::from_secs(2))
    };
    let eps = 0.5;
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "\n# Sharded apply, median per batch over alternating load/retract cycles \
         (eps={eps}, {cores} cores):"
    );
    println!(
        "{:<8} {:<8} {:>12} {:>10} {:>10} {:>16}",
        "k", "shards", "per batch", "vs S=1", "batches", "shard sizes"
    );
    for &k in ks {
        let inst = OmvInstance::sparse_acceptance(k);
        let load = inst.vector_batch(0);
        let retract = inst.vector_retract_batch(0);
        let mut engines = [1, 2].map(|shards| sharded_engine_for(&inst, eps, shards));
        let mut samples: [Vec<Duration>; 2] = Default::default();
        // One untimed warm-up cycle per engine, then cycles until the
        // budget is spent.
        for eng in &mut engines {
            eng.apply_delta_batch(&load).unwrap();
            eng.apply_delta_batch(&retract).unwrap();
        }
        let start = Instant::now();
        while start.elapsed() < budget {
            for (eng, times) in engines.iter_mut().zip(&mut samples) {
                for batch in [&load, &retract] {
                    times.push(time_once(|| eng.apply_delta_batch(batch).unwrap()).1);
                }
            }
        }
        let mut single_shard = None;
        for (eng, times) in engines.iter_mut().zip(&mut samples) {
            let shards = eng.num_shards();
            eng.apply_delta_batch(&load).unwrap();
            let mut rows: Vec<i64> = eng
                .snapshot(0)
                .enumerate()
                .map(|(t, _)| t.get(0).as_int())
                .collect();
            rows.sort_unstable();
            assert_eq!(rows, inst.expected_product(0), "k={k}: S={shards} diverged");
            times.sort_unstable();
            let median = times[times.len() / 2];
            let s1 = *single_shard.get_or_insert(median);
            println!(
                "{:<8} {:<8} {:>12} {:>9.2}x {:>10} {:>16}",
                k,
                shards,
                fmt_dur(median),
                s1.as_secs_f64() / median.as_secs_f64().max(1e-12),
                times.len(),
                format!("{:?}", eng.shard_sizes())
            );
        }
    }
}
