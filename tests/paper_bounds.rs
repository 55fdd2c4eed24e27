//! The paper's asymptotic bounds as deterministic gates: counts of stored
//! tuples fitted over a small `N` grid and counts of enumeration lookups,
//! no wall clock, so they arm on any machine. (ROADMAP item 3 adds the
//! update-side work counters the update-time bound needs.)

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

/// Delay. The enumeration delay `O(N^{1−ε})` (Prop. 22) is the Union
/// algorithm's lookups: per emitted tuple, one membership probe per other
/// part, and an indicator node has one part per heavy key. Counted, not
/// timed, on the Zipf-skewed two-path: every `next()` of
/// `IvmEngine::enumerate` costs at least one and at most `C · heavy_keys()`
/// stateless tree lookups while there are heavy keys (measured: at most
/// 6.5 per heavy key for `N` up to `2^13`), none at ε = 1 where the single
/// tree is fully materialized, and fewer in total as ε grows. The push
/// drain behind `ShardedEngine::snapshot` needs no delay bound and pays
/// no lookup at any ε — it emits the duplicates instead, counted here
/// through its sink. That it makes no lookup is no longer asserted on a
/// counter: `IvmEngine::drain_component` is handed no `EnumScratch`, the
/// only thing the tree lookup can be called with, so its signature says it.
#[test]
fn enumeration_lookups_per_tuple_follow_the_heavy_keys_and_the_drain_makes_none() {
    const C: u64 = 8;
    let n = 1usize << 10;
    let db = two_path_db(n / 2, n / 8, 1.0, 7);
    let mut totals = Vec::new();
    for eps in [0.0, 0.5, 1.0] {
        let opts = EngineOptions::dynamic(eps);
        let eng = IvmEngine::from_sql("Q(A,C) :- R(A,B), S(B,C)", &db, opts).unwrap();
        let heavy = eng.heavy_keys() as u64;
        assert_eq!(heavy > 0, eps < 1.0, "eps {eps}: the instance is skewed");

        let mut it = eng.enumerate();
        let (mut emitted, mut before) = (0usize, 0u64);
        while it.next().is_some() {
            let step = it.lookups() - before;
            before = it.lookups();
            emitted += 1;
            assert!(
                step <= C * heavy && (heavy == 0 || step >= 1),
                "eps {eps}: {step} lookups for tuple {emitted}, {heavy} heavy keys"
            );
        }
        totals.push(it.lookups());

        let mut occurrences = 0usize;
        eng.drain_component(0, |_, _| occurrences += 1);
        assert!(occurrences >= emitted, "eps {eps}: the drain skips nothing");
        assert_eq!(occurrences > emitted, heavy > 0, "eps {eps}: duplicates");
    }
    assert!(
        totals[0] > totals[1] && totals[1] > totals[2] && totals[2] == 0,
        "total lookups must fall as ε grows: {totals:?}"
    );
}
