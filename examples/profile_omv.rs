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

use ivme_core::{Database, EngineOptions, IvmEngine};
use ivme_data::Tuple;
use ivme_workload::OmvInstance;

fn main() {
    let read_mode = std::env::args().any(|a| a == "--read");
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
