//! Integration tests spanning parser → classifier → planner → engine →
//! enumeration, on larger inputs than the unit tests.

use ivme_core::{brute_force, Database, EngineOptions, IvmEngine};
use ivme_data::Tuple;
use ivme_query::parse_query;
use ivme_workload::{star_db, two_path_db, update_stream};

#[test]
fn two_path_large_skewed_all_eps() {
    let db = two_path_db(800, 60, 1.1, 3);
    let q = parse_query("Q(A,C) :- R(A,B), S(B,C)").unwrap();
    let want = brute_force(&q, &db);
    for eps in [0.0, 0.3, 0.5, 0.8, 1.0] {
        let eng = IvmEngine::new(&q, &db, EngineOptions::dynamic(eps)).unwrap();
        assert_eq!(eng.result_sorted(), want, "ε={eps}");
        eng.check_consistency().unwrap();
    }
}

#[test]
fn star_query_skewed_stream() {
    let db = star_db(3, 200, 40, 1.0, 9);
    let q = parse_query("Q(Y0,Y1,Y2) :- R0(X,Y0), R1(X,Y1), R2(X,Y2)").unwrap();
    let mut mirror = db.clone();
    let mut eng = IvmEngine::new(&q, &db, EngineOptions::dynamic(0.5)).unwrap();
    let ops = update_stream(200, &[("R0", 2), ("R1", 2), ("R2", 2)], 40, 1.0, 0.3, 21);
    for (i, op) in ops.iter().enumerate() {
        // The stream may delete tuples it inserted; guard against deleting
        // pre-existing data twice by checking the mirror first.
        if op.delta < 0 && mirror.get(&op.relation, &op.tuple) == 0 {
            continue;
        }
        eng.apply_update(&op.relation, op.tuple.clone(), op.delta)
            .unwrap();
        mirror.apply(&op.relation, op.tuple.clone(), op.delta);
        if i % 25 == 0 {
            assert_eq!(eng.result_sorted(), brute_force(&q, &mirror), "step {i}");
        }
    }
    assert_eq!(eng.result_sorted(), brute_force(&q, &mirror));
}

#[test]
fn enumeration_is_lazy_and_restartable() {
    let db = two_path_db(400, 30, 1.0, 5);
    let eng =
        IvmEngine::from_sql("Q(A,C) :- R(A,B), S(B,C)", &db, EngineOptions::dynamic(0.5)).unwrap();
    let total = eng.count_distinct();
    assert!(total > 0);
    // Taking a prefix is cheap and leaves the engine reusable.
    let prefix: Vec<_> = eng.enumerate().take(5).collect();
    assert_eq!(prefix.len(), 5.min(total));
    // Two full enumerations agree (same distinct set).
    let a = eng.result_sorted();
    let b = eng.result_sorted();
    assert_eq!(a, b);
    assert_eq!(a.len(), total);
}

#[test]
fn distinctness_of_enumerated_tuples() {
    // The Union algorithm must never emit a tuple twice, even with heavy
    // overlap between buckets.
    let mut db = Database::new();
    for b in 0..10i64 {
        for a in 0..10i64 {
            db.insert("R", Tuple::ints(&[a, b]), 1);
            db.insert("S", Tuple::ints(&[b, a]), 1);
        }
    }
    for eps in [0.0, 0.5, 1.0] {
        let eng = IvmEngine::from_sql("Q(A,C) :- R(A,B), S(B,C)", &db, EngineOptions::dynamic(eps))
            .unwrap();
        let tuples: Vec<Tuple> = eng.enumerate().map(|(t, _)| t).collect();
        let mut dedup = tuples.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(tuples.len(), dedup.len(), "duplicates at ε={eps}");
        assert_eq!(tuples.len(), 100);
        // Every multiplicity is the number of shared b values = 10.
        assert!(eng.enumerate().all(|(_, m)| m == 10));
    }
}

#[test]
fn mixed_value_types_roundtrip() {
    // String-valued columns flow through planning, maintenance, and
    // enumeration unchanged.
    use ivme_data::Value;
    let mut db = Database::new();
    db.insert(
        "R",
        Tuple::new(vec![Value::from("alice"), Value::from(10i64)]),
        1,
    );
    db.insert(
        "S",
        Tuple::new(vec![Value::from(10i64), Value::from("db-conf")]),
        2,
    );
    let q = parse_query("Q(A,C) :- R(A,B), S(B,C)").unwrap();
    let mut eng = IvmEngine::new(&q, &db, EngineOptions::dynamic(0.5)).unwrap();
    let res = eng.result_sorted();
    assert_eq!(res.len(), 1);
    assert_eq!(res[0].1, 2);
    assert_eq!(res[0].0.get(0).as_str(), Some("alice"));
    eng.insert(
        "R",
        Tuple::new(vec![Value::from("bob"), Value::from(10i64)]),
    )
    .unwrap();
    assert_eq!(eng.count_distinct(), 2);
}
