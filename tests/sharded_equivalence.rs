//! Sharded-engine equivalence and atomicity suite.
//!
//! A `ShardedEngine` over any shard count must be observationally
//! indistinguishable from a plain `IvmEngine`:
//!
//! 1. randomized workloads (insert/delete/mixed batches with mid-run
//!    enumerations) on the paper's example queries agree for
//!    `S ∈ {1, 2, 4, 7}`,
//! 2. rejection is atomic **across** shards: a batch that over-deletes on
//!    one shard leaves every other shard untouched, and one that
//!    over-deletes on several reports the lowest shard's tuple,
//! 3. multi-component queries (where per-shard result *products* would be
//!    wrong) and nullary-atom components (pinned to shard 0) still agree.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ivme_core::{
    brute_force, Database, DeltaBatch, EngineOptions, IvmEngine, ShardedEngine, Update,
};
use ivme_data::Tuple;
use ivme_query::parse_query;

/// The paper's example queries (single- and multi-component, bound and
/// free roots, repeated structure).
const QUERIES: &[&str] = &[
    "Q(A,C) :- R(A,B), S(B,C)",                             // Example 28
    "Q(A) :- R(A,B), S(B)",                                 // Example 29 / OMv
    "Q(A,D,E) :- R(A,B,C), S(A,B,D), T(A,E)",               // Example 18
    "Q(C,D,E,F) :- R(A,B,D), S(A,B,E), T(A,C,F), U(A,C,G)", // Example 19
    "Q(X,Y0,Y1) :- R(X,Y0), S(X,Y1)",                       // δ0 star
    "Q() :- R(A,B), S(B,C)",                                // Boolean
    "Q(A,C) :- R(A,B), S(C)",                               // two components
];

const SHARD_GRID: &[usize] = &[1, 2, 4, 7];

fn rel_names(q: &ivme_query::Query) -> Vec<(String, usize)> {
    let mut out: Vec<(String, usize)> = Vec::new();
    for a in &q.atoms {
        if !out.iter().any(|(n, _)| n == &a.relation) {
            out.push((a.relation.clone(), a.schema.arity()));
        }
    }
    out
}

fn random_tuple(rng: &mut StdRng, arity: usize, domain: i64) -> Tuple {
    Tuple::ints(
        &(0..arity)
            .map(|_| rng.gen_range(0..domain))
            .collect::<Vec<i64>>(),
    )
}

#[test]
fn randomized_workloads_match_unsharded_engine() {
    for (qi, src) in QUERIES.iter().enumerate() {
        let q = parse_query(src).unwrap();
        let rels = rel_names(&q);
        for &shards in SHARD_GRID {
            let seed = 1000 * qi as u64 + shards as u64;
            let mut rng = StdRng::seed_from_u64(seed);
            // Random initial database (skewed: small domain ⇒ heavy keys).
            let mut db = Database::new();
            for (name, arity) in &rels {
                for _ in 0..rng.gen_range(10..60) {
                    db.apply(name, random_tuple(&mut rng, *arity, 6), 1);
                }
            }
            let eps = [0.0, 0.5, 1.0][rng.gen_range(0..3usize)];
            let opts = EngineOptions::dynamic(eps);
            let mut plain = IvmEngine::new(&q, &db, opts).unwrap();
            let mut sharded = ShardedEngine::new(&q, &db, opts, shards).unwrap();
            if shards > 1 && qi < 6 {
                assert_eq!(sharded.num_shards(), shards, "{src}");
            }
            assert_eq!(
                sharded.snapshot(0).result_sorted(),
                plain.result_sorted(),
                "{src} S={shards}: preprocessing diverged"
            );
            assert_eq!(
                sharded.snapshot(0).result_sorted(),
                brute_force(&q, &db),
                "{src}"
            );
            // Mixed update rounds: single tuples and batches, enumerating
            // mid-run after every round.
            for round in 0..8 {
                if rng.gen_bool(0.3) {
                    // Single-tuple update (insert, or delete of a live row).
                    let (name, arity) = &rels[rng.gen_range(0..rels.len())];
                    let t = random_tuple(&mut rng, *arity, 6);
                    let delta = if db.get(name, &t) > 0 && rng.gen_bool(0.5) {
                        -1
                    } else {
                        1
                    };
                    plain.apply_update(name, t.clone(), delta).unwrap();
                    sharded.apply_update(name, t.clone(), delta).unwrap();
                    db.apply(name, t, delta);
                } else {
                    // Batch across relations, deletes only of live rows.
                    let mut batch = DeltaBatch::new();
                    let mut net = Vec::new();
                    for _ in 0..rng.gen_range(5..40) {
                        let (name, arity) = &rels[rng.gen_range(0..rels.len())];
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
                }
                assert_eq!(
                    sharded.snapshot(0).result_sorted(),
                    plain.result_sorted(),
                    "{src} S={shards} round {round}"
                );
            }
            assert_eq!(
                sharded.snapshot(0).result_sorted(),
                brute_force(&q, &db),
                "{src}"
            );
            sharded.check_consistency().unwrap();
            assert_eq!(sharded.db_size(), plain.db_size(), "{src} S={shards}");
            assert_eq!(sharded.shard_sizes().iter().sum::<usize>(), plain.db_size());
        }
    }
}

#[test]
fn cross_shard_rejection_is_atomic() {
    // Q(A) :- R(A,B), S(B): root B ⇒ R routed on column 1, S on column 0.
    let q = parse_query("Q(A) :- R(A,B), S(B)").unwrap();
    let mut db = Database::new();
    for i in 0..64 {
        db.insert("R", Tuple::ints(&[i, i % 16]), 1);
    }
    for j in 0..16 {
        db.insert("S", Tuple::ints(&[j]), 1);
    }
    let mut eng = ShardedEngine::new(&q, &db, EngineOptions::dynamic(0.5), 4).unwrap();
    assert_eq!(eng.num_shards(), 4);
    // Pick a victim shard and a B value it owns, then build a batch that
    // writes to every *other* shard and over-deletes on the victim.
    let victim = eng.shard_of("S", &Tuple::ints(&[0])).unwrap();
    let before: Vec<_> = (0..4).map(|s| eng.shard(s).result_sorted()).collect();
    let before_sizes = eng.shard_sizes();
    let before_stats = eng.stats();
    let mut batch = DeltaBatch::new();
    let mut touched = [false; 4];
    for j in 0..16 {
        let s = eng.shard_of("S", &Tuple::ints(&[j])).unwrap();
        if s != victim {
            batch.push("S", Tuple::ints(&[j]), 1);
            touched[s] = true;
        }
    }
    assert!(
        touched.iter().filter(|&&t| t).count() >= 2,
        "test needs inserts on several non-victim shards"
    );
    // Over-delete: S(999) is absent everywhere; it hashes to *some* shard,
    // so make sure the batch is invalid on the victim specifically.
    batch.push("S", Tuple::ints(&[0]), -2); // S(0) has multiplicity 1 on victim
    let err = eng.apply_delta_batch(&batch).unwrap_err();
    assert!(matches!(err, ivme_core::UpdateError::Negative(_)), "{err}");
    // Every shard — including those whose sub-batch was valid — is
    // untouched.
    for s in 0..4 {
        assert_eq!(
            eng.shard(s).result_sorted(),
            before[s],
            "shard {s} leaked state from a rejected batch"
        );
    }
    assert_eq!(eng.shard_sizes(), before_sizes);
    assert_eq!(eng.stats(), before_stats);
    eng.check_consistency().unwrap();
    // The same updates without the over-delete go through.
    let mut ok = DeltaBatch::new();
    for j in 0..16 {
        if eng.shard_of("S", &Tuple::ints(&[j])).unwrap() != victim {
            ok.push("S", Tuple::ints(&[j]), 1);
        }
    }
    eng.apply_delta_batch(&ok).unwrap();
    assert!(eng.stats().batches > before_stats.batches);
}

#[test]
fn over_deletes_on_two_shards_report_the_lower_shard_and_change_nothing() {
    // Q(A) :- R(A,B), S(B): root B ⇒ S routed on its only column.
    let q = parse_query("Q(A) :- R(A,B), S(B)").unwrap();
    let mut db = Database::new();
    for i in 0..64 {
        db.insert("R", Tuple::ints(&[i, i % 16]), 1);
    }
    for j in 0..16 {
        db.insert("S", Tuple::ints(&[j]), 1);
    }
    let mut eng = ShardedEngine::new(&q, &db, EngineOptions::dynamic(0.5), 4).unwrap();
    assert_eq!(eng.num_shards(), 4);
    // One stored S value per shard that owns any: the lowest and the
    // highest of those shards are the two victims.
    let mut owned: Vec<Option<i64>> = vec![None; 4];
    for j in 0..16 {
        let s = eng.shard_of("S", &Tuple::ints(&[j])).unwrap();
        owned[s].get_or_insert(j);
    }
    let owners: Vec<(usize, i64)> = owned
        .iter()
        .enumerate()
        .filter_map(|(s, j)| j.map(|j| (s, j)))
        .collect();
    assert!(
        owners.len() >= 2,
        "test needs stored S values on two shards"
    );
    let (low, high) = (owners[0], owners[owners.len() - 1]);
    let before: Vec<_> = (0..4).map(|s| eng.shard(s).result_sorted()).collect();
    let before_sizes = eng.shard_sizes();
    let before_stats = eng.stats();
    // Both over-deletes (multiplicity 1, delta −2), the higher shard's
    // pushed first, beside valid inserts that land on every shard.
    let mut batch = DeltaBatch::new();
    batch.push("S", Tuple::ints(&[high.1]), -2);
    batch.push("S", Tuple::ints(&[low.1]), -2);
    for j in 100..140 {
        batch.push("S", Tuple::ints(&[j]), 1);
    }
    match eng.apply_delta_batch(&batch).unwrap_err() {
        ivme_core::UpdateError::Negative(n) => assert_eq!(
            (n.tuple, n.present, n.delta),
            (Tuple::ints(&[low.1]), 1, -2),
            "shard {}'s error must win over shard {}'s",
            low.0,
            high.0
        ),
        other => panic!("expected an over-delete, got {other}"),
    }
    for s in 0..4 {
        assert_eq!(
            eng.shard(s).result_sorted(),
            before[s],
            "shard {s} leaked state from a rejected batch"
        );
    }
    assert_eq!(eng.shard_sizes(), before_sizes);
    assert_eq!(eng.stats(), before_stats);
    eng.check_consistency().unwrap();
}

#[test]
fn unknown_relation_and_arity_reject_atomically() {
    let q = parse_query("Q(A,C) :- R(A,B), S(B,C)").unwrap();
    let mut db = Database::new();
    db.insert_ints("R", &[&[1, 10], &[2, 11]]);
    db.insert_ints("S", &[&[10, 7], &[11, 8]]);
    let mut eng = ShardedEngine::new(&q, &db, EngineOptions::dynamic(0.5), 3).unwrap();
    let before = eng.snapshot(0).result_sorted();
    let mut bad = DeltaBatch::new();
    bad.push("R", Tuple::ints(&[3, 10]), 1);
    bad.push("Mystery", Tuple::ints(&[1]), 1);
    assert!(matches!(
        eng.apply_delta_batch(&bad).unwrap_err(),
        ivme_core::UpdateError::UnknownRelation(_)
    ));
    let mut bad = DeltaBatch::new();
    bad.push("R", Tuple::ints(&[3, 10]), 1);
    bad.push("S", Tuple::ints(&[1, 2, 3]), 1); // wrong arity
    assert!(matches!(
        eng.apply_delta_batch(&bad).unwrap_err(),
        ivme_core::UpdateError::Arity(_)
    ));
    // S routes on column 0, which a too-long tuple has: no misroute.
    assert_eq!(eng.stats().misroutes, 0);
    // R routes on column 1: a unary R tuple has none, so the split sends
    // it to shard 0 and counts it once.
    let mut bad = DeltaBatch::new();
    bad.push("R", Tuple::ints(&[3]), 1);
    assert!(matches!(
        eng.apply_delta_batch(&bad).unwrap_err(),
        ivme_core::UpdateError::Arity(_)
    ));
    assert_eq!(eng.stats().misroutes, 1);
    assert_eq!(eng.snapshot(0).result_sorted(), before);
}

#[test]
fn asking_where_a_wrong_arity_tuple_goes_counts_no_misroute() {
    let q = parse_query("Q(A,C) :- R(A,B), S(B,C)").unwrap();
    let mut db = Database::new();
    db.insert_ints("R", &[&[1, 10]]);
    let eng = ShardedEngine::new(&q, &db, EngineOptions::dynamic(0.5), 3).unwrap();
    // R routes on column 1, which a unary tuple lacks: shard 0 owns it.
    assert_eq!(eng.shard_of("R", &Tuple::ints(&[3])), Some(0));
    assert_eq!(eng.stats().misroutes, 0);
}

#[test]
fn a_single_delete_of_an_absent_tuple_changes_no_shard() {
    let q = parse_query("Q(A) :- R(A,B), S(B)").unwrap();
    let mut db = Database::new();
    for i in 0..64 {
        db.insert("R", Tuple::ints(&[i, i % 16]), 1);
    }
    for j in 0..16 {
        db.insert("S", Tuple::ints(&[j]), 1);
    }
    let mut eng = ShardedEngine::new(&q, &db, EngineOptions::dynamic(0.5), 4).unwrap();
    assert_eq!(eng.num_shards(), 4);
    let before: Vec<_> = (0..4).map(|s| eng.shard(s).result_sorted()).collect();
    let before_sizes = eng.shard_sizes();
    let before_stats = eng.stats();
    // Absent tuples on every shard: each delete is refused where it routes.
    for j in 100..132 {
        let err = eng.delete("S", Tuple::ints(&[j])).unwrap_err();
        assert!(matches!(err, ivme_core::UpdateError::Negative(_)), "{err}");
    }
    let owners: std::collections::BTreeSet<usize> = (100..132)
        .map(|j| eng.shard_of("S", &Tuple::ints(&[j])).unwrap())
        .collect();
    assert_eq!(
        owners.len(),
        4,
        "test needs a refused delete on every shard"
    );
    for (s, b) in before.iter().enumerate() {
        assert_eq!(&eng.shard(s).result_sorted(), b, "shard {s} changed");
    }
    assert_eq!(eng.shard_sizes(), before_sizes);
    assert_eq!(eng.stats(), before_stats);
    eng.check_consistency().unwrap();
}

#[test]
fn nullary_atoms_pin_to_shard_zero_and_stay_correct() {
    let q = parse_query("Q(A) :- R(A), S()").unwrap();
    let mut db = Database::new();
    for i in 0..20 {
        db.insert("R", Tuple::ints(&[i]), 1);
    }
    db.insert("S", Tuple::empty(), 2);
    let opts = EngineOptions::dynamic(0.5);
    let plain = IvmEngine::new(&q, &db, opts).unwrap();
    let mut sharded = ShardedEngine::new(&q, &db, opts, 4).unwrap();
    assert_eq!(sharded.shard_of("S", &Tuple::empty()), Some(0));
    assert_eq!(sharded.snapshot(0).result_sorted(), plain.result_sorted());
    // Deleting one copy of S() halves nothing; deleting both empties Q.
    sharded.delete("S", Tuple::empty()).unwrap();
    assert_eq!(sharded.snapshot(0).count_distinct(), 20);
    sharded.delete("S", Tuple::empty()).unwrap();
    assert_eq!(sharded.snapshot(0).count_distinct(), 0);
}

/// A zero delta is a batch of one: `apply_update(r, t, 0)` counts exactly
/// what `apply_batch(&[Update::new(r, t, 0)])` counts, unsharded and at
/// `S ∈ {1, 2}`, and static mode refuses both forms.
#[test]
fn zero_delta_is_a_batch_of_one() {
    let q = parse_query("Q(A) :- R(A,B), S(B)").unwrap();
    let mut db = Database::new();
    db.insert_ints("R", &[&[1, 10], &[2, 11]]);
    db.insert_ints("S", &[&[10]]);
    let t = Tuple::ints(&[10]);
    let zero = [Update::new("S", t.clone(), 0)];
    let dynamic = EngineOptions::dynamic(0.5);
    let mut single = IvmEngine::new(&q, &db, dynamic).unwrap();
    let mut batched = IvmEngine::new(&q, &db, dynamic).unwrap();
    single.apply_update("S", t.clone(), 0).unwrap();
    batched.apply_batch(&zero).unwrap();
    assert_eq!(single.stats(), batched.stats(), "unsharded");
    assert_eq!((single.stats().updates, single.stats().batches), (1, 1));
    assert_eq!(single.result_sorted(), brute_force(&q, &db));
    for shards in [1, 2] {
        let mut single = ShardedEngine::new(&q, &db, dynamic, shards).unwrap();
        let mut batched = ShardedEngine::new(&q, &db, dynamic, shards).unwrap();
        single.apply_update("S", t.clone(), 0).unwrap();
        batched.apply_batch(&zero).unwrap();
        assert_eq!(single.stats(), batched.stats(), "S = {shards}");
        assert_eq!((single.stats().updates, single.stats().batches), (1, 1));
        assert_eq!(single.snapshot(0).result_sorted(), brute_force(&q, &db));
    }
    let st = EngineOptions::static_eval(0.5);
    let mut stat_eng = IvmEngine::new(&q, &db, st).unwrap();
    assert!(matches!(
        stat_eng.apply_update("S", t.clone(), 0).unwrap_err(),
        ivme_core::UpdateError::StaticMode
    ));
    assert!(matches!(
        stat_eng.apply_batch(&zero).unwrap_err(),
        ivme_core::UpdateError::StaticMode
    ));
    for shards in [1, 2] {
        let mut stat_eng = ShardedEngine::new(&q, &db, st, shards).unwrap();
        assert!(matches!(
            stat_eng.apply_update("S", t.clone(), 0).unwrap_err(),
            ivme_core::UpdateError::StaticMode
        ));
        assert!(matches!(
            stat_eng.apply_batch(&zero).unwrap_err(),
            ivme_core::UpdateError::StaticMode
        ));
    }
}

#[test]
fn batch_api_and_stats_counters() {
    let q = parse_query("Q(A) :- R(A,B), S(B)").unwrap();
    let mut db = Database::new();
    db.insert_ints("R", &[&[1, 10], &[2, 11]]);
    let opts = EngineOptions::dynamic(0.5);
    let mut eng = ShardedEngine::new(&q, &db, opts, 2).unwrap();
    eng.apply_batch(&[
        Update::insert("S", Tuple::ints(&[10])),
        Update::insert("S", Tuple::ints(&[11])),
        Update::insert("S", Tuple::ints(&[12])),
        Update::delete("S", Tuple::ints(&[12])),
    ])
    .unwrap();
    let s = eng.stats();
    assert_eq!(s.updates, 4, "cardinality counted at the sharded level");
    assert_eq!(s.batches, 1);
    assert_eq!(eng.snapshot(0).count_distinct(), 2);
    // Static mode refuses updates through the sharded path too — including
    // batches whose net effect is empty (parity with IvmEngine).
    let st = EngineOptions::static_eval(0.5);
    let mut stat_eng = ShardedEngine::new(&q, &db, st, 2).unwrap();
    assert!(matches!(
        stat_eng.insert("S", Tuple::ints(&[10])).unwrap_err(),
        ivme_core::UpdateError::StaticMode
    ));
    assert!(matches!(
        stat_eng.apply_delta_batch(&DeltaBatch::new()).unwrap_err(),
        ivme_core::UpdateError::StaticMode
    ));
}
