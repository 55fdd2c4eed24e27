//! The paper's asymptotic bounds as deterministic gates: counts of stored
//! tuples fitted over a small `N` grid and counts of enumeration lookups,
//! no wall clock, so they arm on any machine. (ROADMAP item 3 adds the
//! update-side work counters the update-time bound needs.)

use ivme_bench::loglog_slope;
use ivme_core::{EngineOptions, FreezeSink, IvmEngine};
use ivme_data::Value;
use ivme_workload::two_path_db;

/// What a freeze pushes, counted: the flat rows, and per bucket the rows
/// of each factor.
#[derive(Default)]
struct Counted {
    flat: usize,
    buckets: Vec<Vec<usize>>,
}

impl FreezeSink for Counted {
    fn flat(&mut self, _: &[Value], _: u64, _: i64) {
        self.flat += 1;
    }

    fn bucket(&mut self) {
        self.buckets.push(Vec::new());
    }

    fn factor(&mut self, f: usize, _: &[Value], _: i64) {
        let bucket = self.buckets.last_mut().unwrap();
        bucket.resize(bucket.len().max(f + 1), 0);
        bucket[f] += 1;
    }
}

impl Counted {
    /// Rows pushed.
    fn rows(&self) -> usize {
        self.flat + self.buckets.iter().flatten().sum::<usize>()
    }

    /// The occurrences those rows stand for: the flat rows plus every
    /// bucket's product.
    fn occurrences(&self) -> usize {
        let products: usize = self
            .buckets
            .iter()
            .map(|b| b.iter().product::<usize>())
            .sum();
        self.flat + products
    }
}

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
/// tree is fully materialized, and fewer in total as ε grows. The freeze
/// behind `ShardedEngine::snapshot` needs no delay bound and pays no
/// lookup at any ε: it pushes the flat trees' occurrences and, per heavy
/// key, the children's groups, counted here through its sink. Those stand
/// for every occurrence (duplicates included), yet below ε = 1 they are
/// fewer rows than the result has tuples — the heavy part is never
/// joined. That it makes no lookup is not asserted on a counter:
/// `IvmEngine::freeze_component` is handed no `EnumScratch`, the only
/// thing the tree lookup can be called with, so its signature says it.
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

        let mut counted = Counted::default();
        eng.freeze_component(0, &mut counted);
        let occurrences = counted.occurrences();
        assert!(
            occurrences >= emitted,
            "eps {eps}: the freeze skips nothing"
        );
        assert_eq!(occurrences > emitted, heavy > 0, "eps {eps}: duplicates");
        assert_eq!(
            counted.rows() < emitted,
            heavy > 0,
            "eps {eps}: {} rows pushed for {emitted} tuples",
            counted.rows()
        );
    }
    assert!(
        totals[0] > totals[1] && totals[1] > totals[2] && totals[2] == 0,
        "total lookups must fall as ε grows: {totals:?}"
    );
}
