//! End-to-end engine tests: every paper example, static and dynamic modes,
//! the full ε grid, and randomized update streams — all validated against
//! the brute-force oracle.

use ivme_data::{Tuple, Update};
use ivme_query::parse_query;

use crate::database::Database;
use crate::engine::{EngineOptions, IvmEngine};
use crate::oracle::brute_force;

const EPS_GRID: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 1.0];

fn check_engine_matches_oracle(src: &str, db: &Database, opts: EngineOptions) {
    let q = parse_query(src).unwrap();
    let eng = IvmEngine::new(&q, db, opts).unwrap();
    let got = eng.result_sorted();
    let want = brute_force(&q, db);
    assert_eq!(
        got, want,
        "{src} (ε={}, {:?}): engine disagrees with oracle",
        opts.epsilon, opts.mode
    );
    eng.check_consistency().unwrap();
}

fn check_all_modes(src: &str, db: &Database) {
    for eps in EPS_GRID {
        check_engine_matches_oracle(src, db, EngineOptions::static_eval(eps));
        check_engine_matches_oracle(src, db, EngineOptions::dynamic(eps));
    }
}

/// A deterministic pseudo-random sequence (xorshift) for data generation.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: u64) -> i64 {
        (self.next() % n) as i64
    }
}

fn skewed_two_path_db(n: usize, seed: u64) -> Database {
    // B-values follow a crude skew: half the tuples share few B values.
    let mut rng = Rng(seed | 1);
    let mut db = Database::new();
    for _ in 0..n {
        let b = if rng.below(2) == 0 {
            rng.below(3)
        } else {
            rng.below(n as u64 + 3)
        };
        db.insert("R", Tuple::ints(&[rng.below(20), b]), 1 + rng.below(2));
        let b2 = if rng.below(2) == 0 {
            rng.below(3)
        } else {
            rng.below(n as u64 + 3)
        };
        db.insert("S", Tuple::ints(&[b2, rng.below(20)]), 1 + rng.below(2));
    }
    db
}

#[test]
fn example_28_two_path_all_eps() {
    // Q(A,C) = R(A,B), S(B,C), the paper's running δ1 example.
    let db = skewed_two_path_db(60, 7);
    check_all_modes("Q(A,C) :- R(A,B), S(B,C)", &db);
}

#[test]
fn example_29_all_eps() {
    let mut rng = Rng(11);
    let mut db = Database::new();
    for _ in 0..80 {
        db.insert("R", Tuple::ints(&[rng.below(15), rng.below(10)]), 1);
        db.insert("S", Tuple::ints(&[rng.below(10)]), 1 + rng.below(3));
    }
    check_all_modes("Q(A) :- R(A,B), S(B)", &db);
}

#[test]
fn example_18_free_connex_all_eps() {
    let mut rng = Rng(13);
    let mut db = Database::new();
    for _ in 0..60 {
        db.insert(
            "R",
            Tuple::ints(&[rng.below(6), rng.below(6), rng.below(6)]),
            1,
        );
        db.insert(
            "S",
            Tuple::ints(&[rng.below(6), rng.below(6), rng.below(6)]),
            1,
        );
        db.insert("T", Tuple::ints(&[rng.below(6), rng.below(6)]), 1);
    }
    check_all_modes("Q(A,D,E) :- R(A,B,C), S(A,B,D), T(A,E)", &db);
}

#[test]
fn example_19_four_atoms_all_eps() {
    let mut rng = Rng(17);
    let mut db = Database::new();
    for _ in 0..40 {
        db.insert(
            "R",
            Tuple::ints(&[rng.below(4), rng.below(4), rng.below(5)]),
            1,
        );
        db.insert(
            "S",
            Tuple::ints(&[rng.below(4), rng.below(4), rng.below(5)]),
            1,
        );
        db.insert(
            "T",
            Tuple::ints(&[rng.below(4), rng.below(4), rng.below(5)]),
            1,
        );
        db.insert(
            "U",
            Tuple::ints(&[rng.below(4), rng.below(4), rng.below(5)]),
            1,
        );
    }
    check_all_modes("Q(C,D,E,F) :- R(A,B,D), S(A,B,E), T(A,C,F), U(A,C,G)", &db);
}

#[test]
fn boolean_and_full_queries() {
    let db = skewed_two_path_db(40, 23);
    check_all_modes("Q() :- R(A,B), S(B,C)", &db);
    check_all_modes("Q(A,B) :- R(A,B)", &db);
    check_all_modes("Q(B) :- R(A,B), S(B,C)", &db);
    check_all_modes("Q(A,B,C) :- R(A,B), S(B,C)", &db);
}

#[test]
fn cartesian_product_components() {
    let mut db = Database::new();
    db.insert_ints("R", &[&[1, 5], &[2, 5], &[3, 6]]);
    db.insert_ints("S", &[&[7], &[8]]);
    check_all_modes("Q(A,C) :- R(A,B), S(C)", &db);
    check_all_modes("Q(C) :- R(A,B), S(C)", &db);
}

#[test]
fn star_queries_all_eps() {
    let mut rng = Rng(29);
    let mut db = Database::new();
    for _ in 0..50 {
        db.insert("R0", Tuple::ints(&[rng.below(8), rng.below(12)]), 1);
        db.insert("R1", Tuple::ints(&[rng.below(8), rng.below(12)]), 1);
        db.insert("R2", Tuple::ints(&[rng.below(8), rng.below(12)]), 1);
    }
    // δ0 (q-hierarchical), δ1, δ2 members of the star family.
    check_all_modes("Q(X,Y0,Y1) :- R0(X,Y0), R1(X,Y1)", &db);
    check_all_modes("Q(Y0,Y1) :- R0(X,Y0), R1(X,Y1)", &db);
    check_all_modes("Q(Y0,Y1,Y2) :- R0(X,Y0), R1(X,Y1), R2(X,Y2)", &db);
}

#[test]
fn empty_database_everywhere() {
    let db = Database::new();
    check_all_modes("Q(A,C) :- R(A,B), S(B,C)", &db);
    check_all_modes("Q(A) :- R(A,B), S(B)", &db);
}

#[test]
fn multiplicities_are_reported() {
    let mut db = Database::new();
    db.insert("R", Tuple::ints(&[1, 10]), 2);
    db.insert("R", Tuple::ints(&[1, 20]), 1);
    db.insert("S", Tuple::ints(&[10, 5]), 3);
    db.insert("S", Tuple::ints(&[20, 5]), 1);
    let q = parse_query("Q(A,C) :- R(A,B), S(B,C)").unwrap();
    for eps in EPS_GRID {
        let eng = IvmEngine::new(&q, &db, EngineOptions::dynamic(eps)).unwrap();
        // (1,5) = 2*3 (via 10) + 1*1 (via 20) = 7.
        assert_eq!(
            eng.result_sorted(),
            vec![(Tuple::ints(&[1, 5]), 7)],
            "ε={eps}"
        );
    }
}

// ---------------------------------------------------------------------
// Dynamic maintenance
// ---------------------------------------------------------------------

/// Runs a mixed insert/delete stream through the engine and the mirror
/// database, checking the result after every step.
fn run_stream(src: &str, eps: f64, steps: usize, seed: u64, arities: &[(&str, usize)]) {
    let q = parse_query(src).unwrap();
    let mut db = Database::new();
    let mut eng = IvmEngine::new(&q, &db, EngineOptions::dynamic(eps)).unwrap();
    let mut rng = Rng(seed | 1);
    let mut inserted: Vec<(String, Tuple)> = Vec::new();
    for step in 0..steps {
        let do_delete = !inserted.is_empty() && rng.below(4) == 0;
        if do_delete {
            let i = rng.below(inserted.len() as u64) as usize;
            let (rel, t) = inserted.swap_remove(i);
            eng.delete(&rel, t.clone()).unwrap();
            db.apply(&rel, t, -1);
        } else {
            let (rel, arity) = arities[(rng.below(arities.len() as u64)) as usize];
            // Skewed domain: low values are frequent.
            let t: Tuple = Tuple::ints(
                &(0..arity)
                    .map(|_| {
                        if rng.below(3) == 0 {
                            rng.below(2)
                        } else {
                            rng.below(12)
                        }
                    })
                    .collect::<Vec<i64>>(),
            );
            eng.insert(rel, t.clone()).unwrap();
            db.apply(rel, t.clone(), 1);
            inserted.push((rel.to_owned(), t));
        }
        let got = eng.result_sorted();
        let want = brute_force(&q, &db);
        assert_eq!(got, want, "{src} ε={eps} diverged at step {step}");
        eng.check_consistency()
            .unwrap_or_else(|e| panic!("{src} ε={eps} step {step}: {e}"));
    }
    assert!(eng.stats().updates as usize >= steps);
}

#[test]
fn stream_two_path_all_eps() {
    for eps in EPS_GRID {
        run_stream(
            "Q(A,C) :- R(A,B), S(B,C)",
            eps,
            120,
            41 + (eps * 100.0) as u64,
            &[("R", 2), ("S", 2)],
        );
    }
}

#[test]
fn stream_example_29() {
    for eps in [0.0, 0.5, 1.0] {
        run_stream("Q(A) :- R(A,B), S(B)", eps, 120, 43, &[("R", 2), ("S", 1)]);
    }
}

#[test]
fn stream_q_hierarchical() {
    run_stream(
        "Q(X,Y0,Y1) :- R0(X,Y0), R1(X,Y1)",
        0.5,
        120,
        47,
        &[("R0", 2), ("R1", 2)],
    );
}

#[test]
fn stream_example_19() {
    for eps in [0.0, 0.5, 1.0] {
        run_stream(
            "Q(C,D,E,F) :- R(A,B,D), S(A,B,E), T(A,C,F), U(A,C,G)",
            eps,
            80,
            53,
            &[("R", 3), ("S", 3), ("T", 3), ("U", 3)],
        );
    }
}

#[test]
fn stream_free_connex_example_18() {
    run_stream(
        "Q(A,D,E) :- R(A,B,C), S(A,B,D), T(A,E)",
        0.5,
        100,
        59,
        &[("R", 3), ("S", 3), ("T", 2)],
    );
}

#[test]
fn repeated_relation_symbol_updates() {
    let src = "Q(A,C) :- E(A,B), E(B,C)";
    let q = parse_query(src).unwrap();
    let mut db = Database::new();
    let mut eng = IvmEngine::new(&q, &db, EngineOptions::dynamic(0.5)).unwrap();
    let mut rng = Rng(61);
    for step in 0..100 {
        let t = Tuple::ints(&[rng.below(6), rng.below(6)]);
        eng.insert("E", t.clone()).unwrap();
        db.apply("E", t, 1);
        assert_eq!(eng.result_sorted(), brute_force(&q, &db), "step {step}");
    }
}

#[test]
fn rebalancing_is_exercised() {
    // Grow far beyond the initial M, then shrink: major rebalances must
    // fire in both directions, plus minor migrations under skew.
    let q = parse_query("Q(A,C) :- R(A,B), S(B,C)").unwrap();
    let mut db = Database::new();
    let mut eng = IvmEngine::new(&q, &db, EngineOptions::dynamic(0.5)).unwrap();
    let mut all: Vec<(&str, Tuple)> = Vec::new();
    for i in 0..200i64 {
        // Everything shares B = 0: keys flip heavy quickly.
        let t = Tuple::ints(&[i, i % 3]);
        eng.insert("R", t.clone()).unwrap();
        db.apply("R", t.clone(), 1);
        all.push(("R", t));
        let t = Tuple::ints(&[i % 3, i]);
        eng.insert("S", t.clone()).unwrap();
        db.apply("S", t.clone(), 1);
        all.push(("S", t));
    }
    assert!(
        eng.stats().major_rebalances > 0,
        "growth must trigger major rebalancing"
    );
    assert!(
        eng.stats().minor_rebalances > 0,
        "skew must trigger minor rebalancing"
    );
    assert_eq!(eng.result_sorted(), brute_force(&q, &db));
    // Shrink to trigger downward major rebalancing.
    for (rel, t) in all.drain(..) {
        eng.delete(rel, t.clone()).unwrap();
        db.apply(rel, t, -1);
    }
    assert!(eng.result_sorted().is_empty());
    assert!(eng.stats().major_rebalances >= 2);
    eng.check_consistency().unwrap();
}

/// One batch per threshold crossing, at ε ∈ {0, ½}: a batch routes each
/// delta by its key's side before the batch, and the key moves after its
/// atom is applied, in minor rebalancing. (a) carries a light key past `1.5·θ`; (b) inserts
/// `≥ 1.5·θ` tuples under a key absent from `R`; (c) deletes a heavy key's
/// tuples below `½·θ`. Keys 1 and 2 are light in `S`, so each is heavy
/// (`∃H`) exactly while it is heavy in `R`.
#[test]
fn threshold_crossings_migrate_after_the_batch() {
    let q = parse_query("Q(A,C) :- R(A,B), S(B,C)").unwrap();
    for eps in [0.0, 0.5] {
        let mut db = Database::new();
        for i in 0..400 {
            db.insert("R", Tuple::ints(&[i, 100 + i % 20]), 1);
        }
        for b in 100..120 {
            db.insert("S", Tuple::ints(&[b, 0]), 1);
        }
        let mut eng = IvmEngine::new(&q, &db, EngineOptions::dynamic(eps)).unwrap();
        let theta = eng.theta();
        let rows = |key: i64, from: i64, to: i64, delta: i64| -> Vec<Update> {
            (from..to)
                .map(|a| Update::new("R", Tuple::ints(&[a, key]), delta))
                .collect()
        };
        let apply = |eng: &mut IvmEngine, db: &mut Database, batch: &[Update]| {
            eng.apply_batch(batch).unwrap();
            for u in batch {
                db.apply(&u.relation, u.tuple.clone(), u.delta);
            }
            eng.check_consistency().unwrap();
            assert_eq!(eng.result_sorted(), brute_force(&q, db), "ε = {eps}");
        };
        // Setup: keys 1 and 2 enter S light, and key 1 enters R light.
        let light = ((1.5 * theta).ceil() as i64 - 1).min(10);
        let mut setup = rows(1, 0, light, 1);
        setup.push(Update::insert("S", Tuple::ints(&[1, 7])));
        setup.push(Update::insert("S", Tuple::ints(&[2, 7])));
        apply(&mut eng, &mut db, &setup);
        let before = eng.stats();
        let heavy = eng.heavy_keys();
        let lights = eng.light_tuples();
        let crossing = (1.5 * theta).ceil() as i64;

        // (a) Key 1's new tuples go light with the old ones; the key then
        // migrates out whole.
        apply(&mut eng, &mut db, &rows(1, light, crossing, 1));
        assert_eq!(eng.heavy_keys(), heavy + 1, "(a) ε = {eps}");
        assert_eq!(eng.light_tuples(), lights - light as usize, "(a)");
        assert_eq!(eng.stats().minor_rebalances, before.minor_rebalances + 1);

        // (b) Key 2 is absent from R: its tuples go light, then migrate out.
        apply(&mut eng, &mut db, &rows(2, 0, crossing, 1));
        assert_eq!(eng.heavy_keys(), heavy + 2, "(b) ε = {eps}");
        assert_eq!(eng.light_tuples(), lights - light as usize, "(b)");
        assert_eq!(eng.stats().minor_rebalances, before.minor_rebalances + 2);

        // (c) Heavy key 1 drops below ½·θ: what is left migrates in (at
        // ε = 0, ½·θ = ½, so nothing is left and the key leaves R).
        let left = (0.5 * theta).ceil() as i64 - 1;
        apply(&mut eng, &mut db, &rows(1, left, crossing, -1));
        assert_eq!(eng.heavy_keys(), heavy + 1, "(c) ε = {eps}");
        assert_eq!(
            eng.light_tuples(),
            lights - light as usize + left as usize,
            "(c)"
        );
        let minor = if left > 0 { 3 } else { 2 };
        assert_eq!(
            eng.stats().minor_rebalances,
            before.minor_rebalances + minor
        );
        assert_eq!(eng.stats().major_rebalances, before.major_rebalances);
        assert_eq!(eng.theta(), theta);
    }
}

/// A batch that puts `k ≥ 1.5·θ` tuples under one new key into two atoms
/// joined on it must not join the two `k`-tuple groups in the light trees:
/// the first atom's key migrates out before the second atom is applied, so
/// view deltas stay linear in `k`. Covers two relations and a self-join.
#[test]
fn a_batch_never_joins_two_over_threshold_light_groups() {
    use crate::delta::VIEW_DELTA_TUPLES;
    let view_tuples = || VIEW_DELTA_TUPLES.with(|n| n.get());
    for (src, other) in [
        ("Q(A,C) :- R(A,B), S(B,C)", "S"),
        ("Q(A,C) :- R(A,B), R(B,C)", "R"),
    ] {
        let q = parse_query(src).unwrap();
        for eps in [0.0, 0.5] {
            let mut db = Database::new();
            for i in 0..1000 {
                db.insert("R", Tuple::ints(&[i, i % 50]), 1);
                db.insert("S", Tuple::ints(&[i % 50, i]), 1);
            }
            let mut eng = IvmEngine::new(&q, &db, EngineOptions::dynamic(eps)).unwrap();
            let k = 128;
            assert!(k as f64 >= 1.5 * eng.theta());
            // Key 5000 is absent from both atoms' relations.
            let mut batch = Vec::new();
            for i in 0..k {
                batch.push(Update::insert("R", Tuple::ints(&[10_000 + i, 5000])));
                batch.push(Update::insert(other, Tuple::ints(&[5000, 20_000 + i])));
            }
            let before = view_tuples();
            eng.apply_batch(&batch).unwrap();
            let work = view_tuples() - before;
            assert!(
                work < 32 * k as u64,
                "{src} ε = {eps}: {work} view-delta tuples for k = {k}"
            );
            assert_eq!(eng.stats().major_rebalances, 0);
            for u in &batch {
                db.apply(&u.relation, u.tuple.clone(), u.delta);
            }
            assert_eq!(eng.result_sorted(), brute_force(&q, &db), "{src} ε = {eps}");
        }
    }
}

/// An insert under a heavy join value costs `O(N^ε)`: at ε = 0 the key is
/// heavy and the insert touches a constant number of view tuples; at
/// ε = 1 everything is light and the insert joins the whole `S` group of
/// its value. Counted, not timed, so it runs in every profile.
#[test]
fn heavy_value_inserts_cost_constant_work_at_eps_0_and_the_group_at_eps_1() {
    use crate::delta::VIEW_DELTA_TUPLES;
    let view_tuples = || VIEW_DELTA_TUPLES.with(|n| n.get());
    let n = 2_000i64;
    let mut db = Database::new();
    for i in 0..n {
        // One heavy B = 0 plus a light tail.
        let b = if i % 4 == 0 { 0 } else { i };
        db.insert("R", Tuple::ints(&[i, b]), 1);
        db.insert("S", Tuple::ints(&[b, i]), 1);
    }
    let group = db
        .rows("S")
        .iter()
        .filter(|(t, _)| t.get(0).as_int() == 0)
        .count();
    let q = parse_query("Q(A,C) :- R(A,B), S(B,C)").unwrap();
    for eps in [0.0, 1.0] {
        let mut eng = IvmEngine::new(&q, &db, EngineOptions::dynamic(eps)).unwrap();
        for i in 0..40 {
            let before = view_tuples();
            eng.insert("R", Tuple::ints(&[n + i, 0])).unwrap();
            let work = view_tuples() - before;
            if eps == 0.0 {
                assert!(work < 8, "ε = 0, insert {i}: {work} view-delta tuples");
            } else {
                assert!(
                    work >= group as u64,
                    "ε = 1, insert {i}: {work} < |S[b=0]| = {group}"
                );
            }
        }
        assert_eq!(eng.stats().major_rebalances, 0, "ε = {eps}");
    }
}

// ---------------------------------------------------------------------
// Error paths
// ---------------------------------------------------------------------

#[test]
fn static_mode_rejects_updates() {
    let db = Database::new();
    let mut eng = IvmEngine::from_sql(
        "Q(A,C) :- R(A,B), S(B,C)",
        &db,
        EngineOptions::static_eval(0.5),
    )
    .unwrap();
    assert!(eng.insert("R", Tuple::ints(&[1, 2])).is_err());
}

#[test]
fn invalid_inputs_rejected() {
    let db = Database::new();
    let q = parse_query("Q(A,C) :- R(A,B), S(B,C)").unwrap();
    assert!(IvmEngine::new(&q, &db, EngineOptions::dynamic(1.5)).is_err());
    let nh = parse_query("Q(A) :- R(A,B), S(B,C), T(C)").unwrap();
    assert!(IvmEngine::new(&nh, &db, EngineOptions::dynamic(0.5)).is_err());

    let mut eng = IvmEngine::new(&q, &db, EngineOptions::dynamic(0.5)).unwrap();
    assert!(eng.insert("Zap", Tuple::ints(&[1, 2])).is_err());
    assert!(eng.insert("R", Tuple::ints(&[1])).is_err());
    // Over-delete rejected, state unchanged.
    eng.insert("R", Tuple::ints(&[1, 2])).unwrap();
    assert!(eng.apply_update("R", Tuple::ints(&[1, 2]), -2).is_err());
    assert_eq!(eng.db_size(), 1);
}

#[test]
fn engine_stats_and_introspection() {
    let mut db = Database::new();
    db.insert_ints("R", &[&[1, 2], &[3, 4]]);
    db.insert_ints("S", &[&[2, 5]]);
    let eng =
        IvmEngine::from_sql("Q(A,C) :- R(A,B), S(B,C)", &db, EngineOptions::dynamic(0.5)).unwrap();
    assert_eq!(eng.db_size(), 3);
    assert_eq!(eng.threshold_base(), 7);
    assert!(eng.theta() > 1.0);
    assert!(eng.num_views() > 0);
    assert!(eng.aux_space() > 0);
    assert_eq!(eng.epsilon(), 0.5);
    assert_eq!(eng.plan().components.len(), 1);
}

/// `Q() :- R1(A1), …, R8(A8)` over 256 unit tuples each: the one result
/// tuple `()` has multiplicity 256⁸ = 2⁶⁴, past `i64`. Every read
/// saturates at `i64::MAX` — never a wrapped 0 that would drop `()` from
/// the result, nor a debug overflow panic on a reader — on the engine's
/// own reads and on a snapshot's, while `count` stays 1.
#[test]
fn a_multiplicity_past_i64_saturates_on_every_read() {
    use crate::sharded::ShardedEngine;
    let src = "Q() :- R1(A1), R2(A2), R3(A3), R4(A4), R5(A5), R6(A6), R7(A7), R8(A8)";
    let mut db = Database::new();
    for r in 1..=8 {
        for a in 0..256 {
            db.insert(&format!("R{r}"), Tuple::ints(&[a]), 1);
        }
    }
    let unit = Tuple::empty();
    let want = vec![(unit.clone(), i64::MAX)];
    for eps in [0.0, 0.5, 1.0] {
        let opts = EngineOptions::dynamic(eps);
        let eng = IvmEngine::from_sql(src, &db, opts).unwrap();
        assert_eq!(eng.multiplicity(&unit), i64::MAX, "engine ε = {eps}");
        assert_eq!(
            eng.enumerate().collect::<Vec<_>>(),
            want,
            "engine ε = {eps}"
        );
        assert_eq!(eng.count_distinct(), 1, "engine ε = {eps}");
        let snap = ShardedEngine::from_sql(src, &db, opts, 1)
            .unwrap()
            .snapshot(0);
        assert_eq!(snap.multiplicity(&unit), i64::MAX, "snapshot ε = {eps}");
        assert_eq!(
            snap.enumerate().collect::<Vec<_>>(),
            want,
            "snapshot ε = {eps}"
        );
        assert_eq!(snap.count_distinct(), 1, "snapshot ε = {eps}");
    }
}
