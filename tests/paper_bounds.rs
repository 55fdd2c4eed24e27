//! The paper's asymptotic bounds as deterministic gates: counts of stored
//! tuples fitted over a small `N` grid, no wall clock, so they arm on any
//! machine. (ROADMAP item 3 adds the work counters — touches per update
//! and per `next()` — that the time bounds need.)

use ivme_bench::loglog_slope;
use ivme_core::{EngineOptions, IvmEngine};
use ivme_workload::two_path_db;

/// Space. Preprocessing time `O(N^{1+(w−1)ε})` (Thm. 2) bounds what it
/// can materialize, and a heavy/light partition with threshold `θ = N^ε`
/// keeps at most `2N/θ` heavy keys (Def. 11: a heavy key has degree at
/// least `θ/2`). On the Zipf-skewed two-path (`w = 2`):
#[test]
fn aux_space_and_heavy_keys_stay_within_the_papers_space_bound() {
    const W: f64 = 2.0;
    for eps in [0.0, 0.5, 1.0] {
        let mut points = Vec::new();
        for log_n in 10..=13 {
            let n = 1usize << log_n;
            let db = two_path_db(n / 2, n / 8, 1.0, 7);
            let opts = EngineOptions::dynamic(eps);
            let eng = IvmEngine::from_sql("Q(A,C) :- R(A,B), S(B,C)", &db, opts).unwrap();
            let size = eng.db_size() as f64;
            assert_eq!(size, n as f64, "the generator fills both relations");
            let heavy = eng.heavy_keys() as f64;
            assert!(
                heavy <= 2.0 * size / eng.theta(),
                "eps {eps}, N {n}: {heavy} heavy keys exceed 2N/θ = {}",
                2.0 * size / eng.theta()
            );
            points.push((size, eng.aux_space() as f64));
        }
        let slope = loglog_slope(&points);
        let bound = 1.0 + (W - 1.0) * eps;
        assert!(
            slope <= bound + 0.1,
            "eps {eps}: aux space grows as N^{slope:.2}, bound N^{bound}: {points:?}"
        );
    }
}
