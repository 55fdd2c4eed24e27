//! Batch-semantics equivalence suite.
//!
//! For random hierarchical queries, databases, and batches (including
//! cancelling pairs, multi-copy deltas, and multi-relation batches), the
//! three ways of applying a set of updates must agree:
//!
//! 1. `IvmEngine::apply_batch` (one batched maintenance round),
//! 2. sequential `apply_update` calls on a twin engine,
//! 3. the `brute_force` oracle on the net database.
//!
//! The baselines' batch entry points (`DeltaIvm::apply_batch`,
//! `Recompute::apply_batch`) are held to the same standard, and batches
//! whose net effect over-deletes must be rejected atomically everywhere.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ivme_baselines::{DeltaIvm, Recompute};
use ivme_core::{brute_force, Database, EngineOptions, IvmEngine, Update};
use ivme_data::{DeltaBatch, Tuple};
use ivme_query::{classify, Query};

mod support;
use support::{random_db, random_hierarchical_query, random_tuple};

/// Builds a random batch whose every prefix is sequentially valid against
/// `db`: inserts over a tiny domain, deletes of tuples live in the db or
/// inserted earlier in the batch, and explicit cancelling insert/delete
/// pairs. Returns the updates and the mirrored net database.
fn random_batch(q: &Query, db: &Database, seed: u64, len: usize) -> (Vec<Update>, Database) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut net = db.clone();
    let mut live: Vec<(String, Tuple)> = Vec::new();
    for a in &q.atoms {
        for (t, _) in db.rows(&a.relation) {
            live.push((a.relation.clone(), t));
        }
    }
    let mut updates = Vec::new();
    for _ in 0..len {
        let roll: f64 = rng.gen();
        if roll < 0.25 && !live.is_empty() {
            // Delete something live.
            let i = rng.gen_range(0..live.len());
            let (rel, t) = live.swap_remove(i);
            net.apply(&rel, t.clone(), -1);
            updates.push(Update::delete(rel, t));
        } else if roll < 0.45 {
            // Cancelling pair on a fresh random tuple.
            let a = &q.atoms[rng.gen_range(0..q.atoms.len())];
            let t = random_tuple(&mut rng, a.schema.arity(), 4);
            updates.push(Update::insert(a.relation.clone(), t.clone()));
            updates.push(Update::delete(a.relation.clone(), t));
        } else {
            // Insert (possibly multi-copy).
            let a = &q.atoms[rng.gen_range(0..q.atoms.len())];
            let t = random_tuple(&mut rng, a.schema.arity(), 4);
            let mult = 1 + rng.gen_range(0..2i64);
            net.apply(&a.relation, t.clone(), mult);
            live.push((a.relation.clone(), t.clone()));
            updates.push(Update::new(a.relation.clone(), t, mult));
        }
    }
    (updates, net)
}

fn load_delta_ivm(q: &Query, db: &Database) -> DeltaIvm {
    let mut ivm = DeltaIvm::new(q);
    for a in &q.atoms {
        for (t, m) in db.rows(&a.relation) {
            ivm.apply_update(&a.relation, t, m);
        }
    }
    ivm
}

fn load_recompute(q: &Query, db: &Database) -> Recompute {
    let mut rc = Recompute::new(q);
    for a in &q.atoms {
        for (t, m) in db.rows(&a.relation) {
            rc.apply_update(&a.relation, t, m);
        }
    }
    rc
}

/// apply_batch ≡ sequential replay ≡ brute-force oracle, for the engine
/// across the ε grid and for both baselines.
#[test]
fn batched_apply_matches_sequential_and_oracle() {
    let mut case_rng = StdRng::seed_from_u64(0xBA7C);
    for case in 0..36 {
        let seed = case_rng.gen_range(0u64..10_000);
        let q = random_hierarchical_query(seed);
        if !classify(&q).hierarchical {
            continue;
        }
        let db = random_db(&q, seed.wrapping_mul(29), 8);
        let (updates, net_db) = random_batch(&q, &db, seed.wrapping_mul(53), 40);
        let want = brute_force(&q, &net_db);

        let eps = [0.0, 0.5, 1.0][case % 3];
        // Batched engine.
        let mut batched = IvmEngine::new(&q, &db, EngineOptions::dynamic(eps)).unwrap();
        batched.apply_batch(&updates).unwrap();
        assert_eq!(
            batched.result_sorted(),
            want,
            "{q} ε={eps} seed={seed}: batched engine diverged from oracle"
        );
        batched.check_consistency().unwrap();
        assert_eq!(batched.stats().updates, updates.len() as u64);
        assert_eq!(batched.stats().batches, 1);

        // Sequential twin.
        let mut seq = IvmEngine::new(&q, &db, EngineOptions::dynamic(eps)).unwrap();
        for u in &updates {
            seq.apply_update(&u.relation, u.tuple.clone(), u.delta)
                .unwrap();
        }
        assert_eq!(
            seq.result_sorted(),
            want,
            "{q} ε={eps} seed={seed}: sequential engine diverged from oracle"
        );

        // Baselines, batched.
        let mut ivm = load_delta_ivm(&q, &db);
        ivm.apply_batch(&updates).unwrap();
        assert_eq!(
            ivm.result_sorted(),
            want,
            "{q} seed={seed}: DeltaIvm batch diverged from oracle"
        );
        let mut rc = load_recompute(&q, &db);
        rc.apply_batch(&updates).unwrap();
        assert_eq!(
            rc.evaluate(),
            want,
            "{q} seed={seed}: Recompute batch diverged from oracle"
        );
    }
}

/// A batch whose net effect over-deletes is rejected atomically by the
/// engine and both baselines: no state change anywhere.
#[test]
fn net_over_delete_rejects_atomically() {
    let mut case_rng = StdRng::seed_from_u64(0xBAD);
    for _ in 0..16 {
        let seed = case_rng.gen_range(0u64..10_000);
        let q = random_hierarchical_query(seed);
        if !classify(&q).hierarchical {
            continue;
        }
        let db = random_db(&q, seed.wrapping_mul(31), 6);
        let (mut updates, _) = random_batch(&q, &db, seed.wrapping_mul(59), 10);
        // Poison: delete 3 copies of a tuple that is absent everywhere.
        let a = &q.atoms[0];
        let absent = Tuple::ints(&(0..a.schema.arity()).map(|_| 999).collect::<Vec<_>>());
        updates.push(Update::new(a.relation.clone(), absent, -3));

        let mut eng = IvmEngine::new(&q, &db, EngineOptions::dynamic(0.5)).unwrap();
        let before = eng.result_sorted();
        let stats_before = eng.stats();
        assert!(
            eng.apply_batch(&updates).is_err(),
            "{q}: poisoned batch accepted"
        );
        assert_eq!(
            eng.result_sorted(),
            before,
            "{q}: rejected batch left a trace"
        );
        assert_eq!(eng.stats(), stats_before, "{q}: rejected batch was counted");
        eng.check_consistency().unwrap();

        let mut ivm = load_delta_ivm(&q, &db);
        let ivm_before = ivm.result_sorted();
        assert!(ivm.apply_batch(&updates).is_err());
        assert_eq!(ivm.result_sorted(), ivm_before);

        let mut rc = load_recompute(&q, &db);
        let rc_before = rc.evaluate();
        assert!(rc.apply_batch(&updates).is_err());
        assert_eq!(rc.evaluate(), rc_before);
    }
}

/// A delete that would be invalid on its own is fine when the same batch
/// inserts the tuple: only the net delta matters.
#[test]
fn cancelling_over_delete_is_net_valid() {
    let q = ivme_query::parse_query("Q(A,C) :- R(A,B), S(B,C)").unwrap();
    let mut db = Database::new();
    db.insert_ints("R", &[&[1, 10]]);
    db.insert_ints("S", &[&[10, 5]]);
    let mut eng = IvmEngine::new(&q, &db, EngineOptions::dynamic(0.5)).unwrap();
    // (2,10) is absent: raw sequence [delete, insert] would reject on the
    // delete, but the batch nets to zero and must succeed as a no-op.
    let updates = vec![
        Update::delete("R", Tuple::ints(&[2, 10])),
        Update::insert("R", Tuple::ints(&[2, 10])),
        Update::insert("S", Tuple::ints(&[10, 6])),
    ];
    eng.apply_batch(&updates).unwrap();
    let mut want = vec![(Tuple::ints(&[1, 5]), 1), (Tuple::ints(&[1, 6]), 1)];
    want.sort();
    assert_eq!(eng.result_sorted(), want);
    eng.check_consistency().unwrap();
}

/// Fully cancelled batches are no-ops that still count their cardinality.
#[test]
fn fully_cancelled_batch_is_noop() {
    let q = ivme_query::parse_query("Q(A) :- R(A,B), S(B)").unwrap();
    let mut db = Database::new();
    db.insert_ints("R", &[&[7, 1]]);
    db.insert_ints("S", &[&[1]]);
    let mut eng = IvmEngine::new(&q, &db, EngineOptions::dynamic(0.5)).unwrap();
    let before = eng.result_sorted();
    let mut batch = DeltaBatch::new();
    for i in 0..10 {
        batch.insert("R", Tuple::ints(&[i, i]));
        batch.delete("R", Tuple::ints(&[i, i]));
    }
    assert!(batch.is_empty());
    eng.apply_delta_batch(&batch).unwrap();
    assert_eq!(eng.result_sorted(), before);
    assert_eq!(eng.stats().updates, 20, "cardinality still counted");
    eng.check_consistency().unwrap();
}

/// Unknown relations and arity mismatches reject the whole batch.
#[test]
fn structural_errors_reject_whole_batch() {
    let q = ivme_query::parse_query("Q(A) :- R(A,B), S(B)").unwrap();
    let db = Database::new();
    let mut eng = IvmEngine::new(&q, &db, EngineOptions::dynamic(0.5)).unwrap();
    let bad_rel = vec![
        Update::insert("R", Tuple::ints(&[1, 2])),
        Update::insert("T", Tuple::ints(&[3])),
    ];
    assert!(eng.apply_batch(&bad_rel).is_err());
    let bad_arity = vec![
        Update::insert("R", Tuple::ints(&[1, 2])),
        Update::insert("S", Tuple::ints(&[1, 2, 3])),
    ];
    assert!(eng.apply_batch(&bad_arity).is_err());
    assert_eq!(eng.count_distinct(), 0, "rejected batches left data behind");
    assert_eq!(eng.stats().updates, 0);
}

/// Bulk-loading via one huge batch equals loading via the database, and
/// rebalancing bookkeeping (threshold doubling) catches up in one round.
#[test]
fn bulk_load_batch_matches_preprocessing() {
    let q = ivme_query::parse_query("Q(A,C) :- R(A,B), S(B,C)").unwrap();
    let mut rng = StdRng::seed_from_u64(99);
    let mut db = Database::new();
    let mut updates = Vec::new();
    for _ in 0..400 {
        let r = Tuple::ints(&[rng.gen_range(0..40), rng.gen_range(0..12)]);
        let s = Tuple::ints(&[rng.gen_range(0..12), rng.gen_range(0..40)]);
        db.insert("R", r.clone(), 1);
        db.insert("S", s.clone(), 1);
        updates.push(Update::insert("R", r));
        updates.push(Update::insert("S", s));
    }
    for eps in [0.0, 0.5, 1.0] {
        let preprocessed = IvmEngine::new(&q, &db, EngineOptions::dynamic(eps)).unwrap();
        let mut loaded = IvmEngine::new(&q, &Database::new(), EngineOptions::dynamic(eps)).unwrap();
        loaded.apply_batch(&updates).unwrap();
        assert_eq!(
            loaded.result_sorted(),
            preprocessed.result_sorted(),
            "ε={eps}"
        );
        assert_eq!(loaded.db_size(), preprocessed.db_size(), "ε={eps}");
        loaded.check_consistency().unwrap();
        // The size invariant ⌊M/4⌋ ≤ N < M must hold after the bulk load.
        let (n, m) = (loaded.db_size(), loaded.threshold_base());
        assert!(
            m / 4 <= n && n < m,
            "ε={eps}: invariant broken (N={n}, M={m})"
        );
    }
}
