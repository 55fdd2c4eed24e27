//! Profiling driver for the engine hot paths on the OMv instance at ε = ½.
//!
//! Default (write) mode: 3000 alternating k = 1000 vector load/retract
//! batches on one engine. Run it under a sampling profiler (e.g.
//! `gprofng collect app`) to see where batched maintenance time goes
//! without the twin-engine cache interference of the `fig_omv_rounds`
//! harness.
//!
//! `--read` mode: the serving read path instead — with the vector loaded,
//! loop full enumerations and point lookups (`multiplicity`) so a profiler
//! sees where steady-state read time goes (`cargo run --release
//! --example profile_omv -- --read`).
//!
//! `--publish [eps] [shards]` mode (default ½ and 1): what a commit costs
//! after the apply — a Zipf-skewed two-path with a result the size of the
//! ledger's (480 rows per relation plus the stream, ~22k tuples), a
//! seeded stream of 64-update batches applied forward and then retracted
//! in reverse through `ShardedEngine::apply_delta_batch`, and a
//! `snapshot()` after every batch. Prints apply and snapshot µs/round,
//! the walk alone (every shard's drain into a no-op sink, timed in the
//! same rounds: snapshot minus walk is what the merge table costs),
//! tuples/round, the occurrences/round the drain pushes (snapshot time
//! over this is the cost per occurrence) and the heavy keys, so a change
//! to the publish path is iterated in seconds.

use std::time::{Duration, Instant};

use ivme_core::{Database, DeltaBatch, EngineOptions, IvmEngine, ShardedEngine};
use ivme_data::Tuple;
use ivme_workload::{chunk_stream, two_path_db, update_stream, OmvInstance};

/// The `--publish` loop.
fn publish(eps: f64, shards: usize) {
    let db = two_path_db(480, 240, 1.0, 7);
    let opts = EngineOptions::dynamic(eps);
    let mut eng = ShardedEngine::from_sql("Q(A,C) :- R(A,B), S(B,C)", &db, opts, shards).unwrap();
    let ops = update_stream(64 * 64, &[("R", 2), ("S", 2)], 240, 1.0, 0.25, 11);
    let forward = chunk_stream(&ops, 64);
    let retract = forward.iter().rev().map(|b| {
        let mut inv = DeltaBatch::new();
        for rel in b.relations() {
            inv.extend_relation(rel, b.deltas(rel).map(|(t, d)| (t.clone(), -d)));
        }
        inv
    });
    let palindrome: Vec<DeltaBatch> = forward.iter().cloned().chain(retract).collect();
    let (mut t_apply, mut t_snap, mut t_walk) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let (mut rounds, mut tuples, mut occurrences, mut heavy) = (0u64, 0usize, 0usize, 0usize);
    for _ in 0..3 {
        for batch in &palindrome {
            let t0 = Instant::now();
            eng.apply_delta_batch(batch).unwrap();
            t_apply += t0.elapsed();
            rounds += 1;
            let t0 = Instant::now();
            let snap = eng.snapshot(rounds);
            t_snap += t0.elapsed();
            tuples += snap.count_distinct();
            let t0 = Instant::now();
            for s in 0..eng.num_shards() {
                eng.shard(s).drain_component(0, |_, _| occurrences += 1);
            }
            t_walk += t0.elapsed();
            for s in 0..eng.num_shards() {
                heavy += eng.shard(s).heavy_keys();
            }
        }
    }
    let per_round = |d: Duration| d.as_secs_f64() * 1e6 / rounds as f64;
    println!(
        "eps {eps}, {} shard(s), {rounds} rounds of 64 updates: apply {:.0} us/round, \
         snapshot {:.0} us/round (walk alone {:.0}), {} tuples/round, {} occurrences/round, \
         {} heavy keys",
        eng.num_shards(),
        per_round(t_apply),
        per_round(t_snap),
        per_round(t_walk),
        tuples / rounds as usize,
        occurrences / rounds as usize,
        heavy / rounds as usize,
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--publish") {
        let eps = args.get(i + 1).map_or(0.5, |a| a.parse().expect("eps"));
        let shards = args.get(i + 2).map_or(1, |a| a.parse().expect("shards"));
        return publish(eps, shards);
    }
    let read_mode = args.iter().any(|a| a == "--read");
    let inst = OmvInstance::sparse_acceptance(1000);
    let mut db = Database::new();
    for t in inst.matrix_tuples() {
        db.insert("R", t, 1);
    }
    let mut eng =
        IvmEngine::from_sql("Q(A) :- R(A,B), S(B)", &db, EngineOptions::dynamic(0.5)).unwrap();
    let load = inst.vector_batch(0);
    if read_mode {
        // Serving read loop: enumerate the full result + point-look-up
        // every row, repeatedly, on a quiescent engine.
        eng.apply_delta_batch(&load).unwrap();
        let rounds = 3000u32;
        let n = inst.n as i64;
        let mut t_enum = std::time::Duration::ZERO;
        let mut t_lookup = std::time::Duration::ZERO;
        let mut tuples = 0usize;
        let mut mult_sum = 0i64;
        for _ in 0..rounds {
            let t0 = std::time::Instant::now();
            tuples += eng.enumerate().count();
            t_enum += t0.elapsed();
            let t0 = std::time::Instant::now();
            for a in 0..n {
                mult_sum += eng.multiplicity(&Tuple::ints(&[a]));
            }
            t_lookup += t0.elapsed();
        }
        println!(
            "{rounds} read rounds: enumerate {:?}/round ({} tuples/round), \
             {} lookups/round at {:.0}ns each (mult sum {mult_sum})",
            t_enum / rounds,
            tuples / rounds as usize,
            n,
            t_lookup.as_secs_f64() * 1e9 / (rounds as f64 * n as f64),
        );
        return;
    }
    let retract = inst.vector_retract_batch(0);
    let rounds = 3000;
    let mut t_load = std::time::Duration::ZERO;
    let mut t_retract = std::time::Duration::ZERO;
    for _ in 0..rounds {
        let t0 = std::time::Instant::now();
        eng.apply_delta_batch(&load).unwrap();
        t_load += t0.elapsed();
        let t0 = std::time::Instant::now();
        eng.apply_delta_batch(&retract).unwrap();
        t_retract += t0.elapsed();
    }
    println!(
        "{rounds} rounds: load {:?}/batch, retract {:?}/batch",
        t_load / rounds,
        t_retract / rounds
    );
}
