//! Serving read-path equivalence suite.
//!
//! Randomized interleavings of `apply_delta_batch` with the read APIs —
//! `enumerate`, `enumerate_page`, `multiplicity`/`contains`,
//! `count_distinct`, `result_sorted` — on both `IvmEngine` and
//! `ShardedEngine::snapshot` (S ∈ {1, 2, 4}), checked against brute force
//! after every round. The interleaving specifically exercises the sharded
//! engine's merge cache: reads *between* updates hit the cache, reads
//! *after* updates must see the invalidation, including
//!
//! * partial-component updates on multi-component queries (only the
//!   touched component may re-merge — the untouched component's cached
//!   merge must still be correct), and
//! * updates that trigger `major_rebalance` (the internal representation
//!   is rebuilt wholesale while the result — and the caches keyed on
//!   component versions, which a pure rebalance does not bump — stays
//!   valid).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ivme_core::{
    brute_force, Database, DeltaBatch, EngineOptions, IvmEngine, ShardedEngine, ShardedSnapshot,
    Update,
};
use ivme_data::Tuple;
use ivme_query::parse_query;

mod support;
use support::{random_tuple, relations};

/// The paper's example queries (single- and multi-component, bound and
/// free roots, repeated structure) plus boolean and multi-component forms.
const QUERIES: &[&str] = &[
    "Q(A,C) :- R(A,B), S(B,C)",                             // Example 28
    "Q(A) :- R(A,B), S(B)",                                 // Example 29 / OMv
    "Q(A,D,E) :- R(A,B,C), S(A,B,D), T(A,E)",               // Example 18
    "Q(C,D,E,F) :- R(A,B,D), S(A,B,E), T(A,C,F), U(A,C,G)", // Example 19
    "Q(X,Y0,Y1) :- R(X,Y0), S(X,Y1)",                       // δ0 star
    "Q() :- R(A,B), S(B,C)",                                // Boolean
    "Q(A,C) :- R(A,B), S(C)",                               // two components
    "Q(A) :- R(A,B), T(C)", // times a component with no free variable
];

const SHARD_GRID: &[usize] = &[1, 2, 4];

/// Read-API cross-check of one engine state against the brute-force
/// oracle: sorted enumeration, distinct count, paging consistency with the
/// engine's own enumeration order, and point lookups for every present
/// tuple plus random absent probes.
fn check_reads<E>(
    label: &str,
    oracle: &[(Tuple, i64)],
    rng: &mut StdRng,
    free_arity: usize,
    result_sorted: impl Fn(&E) -> Vec<(Tuple, i64)>,
    enumerate: impl Fn(&E) -> Vec<(Tuple, i64)>,
    page: impl Fn(&E, usize, usize) -> Vec<(Tuple, i64)>,
    count: impl Fn(&E) -> usize,
    mult: impl Fn(&E, &Tuple) -> i64,
    eng: &E,
) {
    assert_eq!(result_sorted(eng), oracle, "{label}: result_sorted");
    assert_eq!(count(eng), oracle.len(), "{label}: count_distinct");
    let full = enumerate(eng);
    {
        let mut sorted = full.clone();
        sorted.sort();
        assert_eq!(sorted, oracle, "{label}: enumerate");
    }
    // Pages must slice the engine's own enumeration stream exactly —
    // including the empty page past the end.
    for _ in 0..3 {
        let offset = rng.gen_range(0..=full.len() + 2);
        let limit = rng.gen_range(0..=full.len() + 2);
        let expect: Vec<(Tuple, i64)> = full.iter().skip(offset).take(limit).cloned().collect();
        assert_eq!(
            page(eng, offset, limit),
            expect,
            "{label}: page({offset}, {limit})"
        );
    }
    assert!(
        page(eng, full.len(), 5).is_empty(),
        "{label}: page past end"
    );
    // Point lookups: every present tuple at its exact multiplicity, plus
    // random probes (absent ones must report 0).
    for (t, m) in oracle {
        assert_eq!(mult(eng, t), *m, "{label}: multiplicity of {t:?}");
    }
    for _ in 0..5 {
        let probe = random_tuple(rng, free_arity, 9);
        let expect = oracle
            .iter()
            .find(|(t, _)| *t == probe)
            .map_or(0, |(_, m)| *m);
        assert_eq!(mult(eng, &probe), expect, "{label}: probe {probe:?}");
    }
}

#[test]
fn randomized_interleaved_reads_match_brute_force() {
    for (qi, src) in QUERIES.iter().enumerate() {
        let q = parse_query(src).unwrap();
        let rels = relations(&q);
        let free_arity = q.free.arity();
        for &shards in SHARD_GRID {
            let seed = 7000 * qi as u64 + shards as u64;
            let mut rng = StdRng::seed_from_u64(seed);
            let mut db = Database::new();
            for (name, arity) in &rels {
                for _ in 0..rng.gen_range(10..50) {
                    db.apply(name, random_tuple(&mut rng, *arity, 6), 1);
                }
            }
            let eps = [0.0, 0.5, 1.0][rng.gen_range(0..3usize)];
            let opts = EngineOptions::dynamic(eps);
            let mut plain = IvmEngine::new(&q, &db, opts).unwrap();
            let mut sharded = ShardedEngine::new(&q, &db, opts, shards).unwrap();
            for round in 0..10 {
                // A read before the update warms the sharded merge cache,
                // so the post-update read below exercises invalidation.
                if round % 2 == 1 {
                    let _ = sharded.snapshot(0).enumerate().count();
                    let _ = sharded.snapshot(0).enumerate_page(1, 3);
                }
                // Mixed batch: random relations (often only a strict
                // subset — on multi-component queries a partial-component
                // update), deletes only of live rows.
                let mut batch = DeltaBatch::new();
                let mut net = Vec::new();
                let touch_all = rng.gen_bool(0.3);
                let focus = rng.gen_range(0..rels.len());
                for _ in 0..rng.gen_range(5..30) {
                    let ri = if touch_all {
                        rng.gen_range(0..rels.len())
                    } else {
                        focus
                    };
                    let (name, arity) = &rels[ri];
                    let t = random_tuple(&mut rng, *arity, 6);
                    let live = db.get(name, &t)
                        + net
                            .iter()
                            .filter(|(n, nt, _)| n == name && nt == &t)
                            .map(|(_, _, d)| d)
                            .sum::<i64>();
                    let delta = if live > 0 && rng.gen_bool(0.4) { -1 } else { 1 };
                    batch.push(name, t.clone(), delta);
                    net.push((name.clone(), t, delta));
                }
                plain.apply_delta_batch(&batch).unwrap();
                sharded.apply_delta_batch(&batch).unwrap();
                for (name, t, d) in net {
                    db.apply(&name, t, d);
                }
                let oracle = brute_force(&q, &db);
                check_reads(
                    &format!("{src} plain round {round}"),
                    &oracle,
                    &mut rng,
                    free_arity,
                    IvmEngine::result_sorted,
                    |e: &IvmEngine| e.enumerate().collect(),
                    IvmEngine::enumerate_page,
                    IvmEngine::count_distinct,
                    |e: &IvmEngine, t: &Tuple| e.multiplicity(t),
                    &plain,
                );
                check_reads(
                    &format!("{src} S={shards} round {round}"),
                    &oracle,
                    &mut rng,
                    free_arity,
                    ShardedSnapshot::result_sorted,
                    |e: &ShardedSnapshot| e.enumerate().collect(),
                    ShardedSnapshot::enumerate_page,
                    ShardedSnapshot::count_distinct,
                    |e: &ShardedSnapshot, t: &Tuple| e.multiplicity(t),
                    &sharded.snapshot(0),
                );
                // contains agrees with multiplicity on a sample.
                if let Some((t, _)) = oracle.first() {
                    assert!(
                        plain.contains(t) && sharded.snapshot(0).contains(t),
                        "{src}"
                    );
                }
                // Wrong-arity probes are never in the result: report 0,
                // never panic (serving layers forward untrusted tuples).
                let bad = random_tuple(&mut rng, free_arity + 1, 6);
                assert_eq!(plain.multiplicity(&bad), 0, "{src}");
                assert_eq!(sharded.snapshot(0).multiplicity(&bad), 0, "{src}");
                assert!(!plain.contains(&bad) && !sharded.snapshot(0).contains(&bad));
            }
            sharded.check_consistency().unwrap();
        }
    }
}

#[test]
fn partial_component_update_invalidates_only_that_component() {
    // Two components: R(A,B) and S(C). Updates to S must bump only
    // component 1's version, and cached sharded reads must still see them.
    let q = parse_query("Q(A,C) :- R(A,B), S(C)").unwrap();
    let mut db = Database::new();
    db.insert_ints("R", &[&[1, 10], &[2, 11]]);
    db.insert_ints("S", &[&[7], &[8]]);
    let opts = EngineOptions::dynamic(0.5);
    let mut plain = IvmEngine::new(&q, &db, opts).unwrap();
    let mut sharded = ShardedEngine::new(&q, &db, opts, 2).unwrap();
    assert_eq!(plain.num_components(), 2);
    let v0 = (plain.component_version(0), plain.component_version(1));
    // Warm the merge cache, then update only S (component 1).
    assert_eq!(sharded.snapshot(0).count_distinct(), 4);
    plain.insert("S", Tuple::ints(&[9])).unwrap();
    sharded.insert("S", Tuple::ints(&[9])).unwrap();
    db.apply("S", Tuple::ints(&[9]), 1);
    assert_eq!(
        plain.component_version(0),
        v0.0,
        "untouched component version must not move"
    );
    assert_eq!(
        plain.component_version(1),
        v0.1 + 1,
        "touched component version must bump"
    );
    assert_eq!(sharded.snapshot(0).result_sorted(), brute_force(&q, &db));
    assert_eq!(sharded.snapshot(0).count_distinct(), 6);
    assert_eq!(plain.result_sorted(), brute_force(&q, &db));
    // And the other way round: touch only R (component 0).
    let v1 = (plain.component_version(0), plain.component_version(1));
    plain.delete("R", Tuple::ints(&[2, 11])).unwrap();
    sharded.delete("R", Tuple::ints(&[2, 11])).unwrap();
    db.apply("R", Tuple::ints(&[2, 11]), -1);
    assert_eq!(plain.component_version(0), v1.0 + 1);
    assert_eq!(plain.component_version(1), v1.1);
    assert_eq!(sharded.snapshot(0).result_sorted(), brute_force(&q, &db));
    assert_eq!(
        sharded.snapshot(0).multiplicity(&Tuple::ints(&[1, 9])),
        1,
        "fresh S row visible through the point lookup"
    );
    assert_eq!(sharded.snapshot(0).multiplicity(&Tuple::ints(&[2, 9])), 0);
}

#[test]
fn reads_survive_major_rebalance() {
    // A batch several times the database size forces threshold doubling
    // (major rebalance) on every engine; warmed caches must keep serving
    // correct results afterwards.
    let q = parse_query("Q(A) :- R(A,B), S(B)").unwrap();
    let mut db = Database::new();
    for i in 0..8i64 {
        db.insert("R", Tuple::ints(&[i, i % 4]), 1);
    }
    let opts = EngineOptions::dynamic(0.5);
    for shards in [1usize, 2, 4] {
        let mut plain = IvmEngine::new(&q, &db, opts).unwrap();
        let mut sharded = ShardedEngine::new(&q, &db, opts, shards).unwrap();
        let _ = sharded.snapshot(0).enumerate().count(); // warm the merge cache
        let mut wdb = db.clone();
        let majors_before = plain.stats().major_rebalances;
        let mut batch = Vec::new();
        for i in 0..64i64 {
            batch.push(Update::insert("R", Tuple::ints(&[100 + i, i % 4])));
        }
        for j in 0..4i64 {
            batch.push(Update::insert("S", Tuple::ints(&[j])));
        }
        plain.apply_batch(&batch).unwrap();
        sharded.apply_batch(&batch).unwrap();
        for u in &batch {
            wdb.apply(&u.relation, u.tuple.clone(), u.delta);
        }
        assert!(
            plain.stats().major_rebalances > majors_before,
            "batch was sized to force a major rebalance"
        );
        let oracle = brute_force(&q, &wdb);
        assert_eq!(plain.result_sorted(), oracle, "S={shards}");
        assert_eq!(sharded.snapshot(0).result_sorted(), oracle, "S={shards}");
        let full: Vec<(Tuple, i64)> = sharded.snapshot(0).enumerate().collect();
        assert_eq!(
            sharded.snapshot(0).enumerate_page(10, 7),
            full[10..17].to_vec()
        );
        for (t, m) in &oracle {
            assert_eq!(plain.multiplicity(t), *m);
            assert_eq!(sharded.snapshot(0).multiplicity(t), *m);
        }
    }
}
