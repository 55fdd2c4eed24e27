//! Property-based tests: randomized hierarchical queries, databases, and
//! update streams, validated against the brute-force oracle; plus the
//! paper's structural propositions on random queries.
//!
//! Queries are generated from a random variable-order tree, which makes
//! them hierarchical *by construction* (every atom's schema is a
//! root-to-node path, so atom sets of any two variables are nested or
//! disjoint).
//!
//! The suite is property-style but deterministic: each property is driven
//! by an explicit seed loop (the offline environment has no `proptest`),
//! so failures reproduce exactly by seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ivme_core::{brute_force, Database, EngineOptions, IvmEngine};
use ivme_data::Tuple;
use ivme_query::{classify, parse_query};

mod support;
use support::{random_db, random_hierarchical_query};

/// Engine result == oracle for random hierarchical queries/databases,
/// across the ε grid and both modes.
#[test]
fn engine_matches_oracle_on_random_queries() {
    let mut case_rng = StdRng::seed_from_u64(0xE16);
    for case in 0..48 {
        let seed = case_rng.gen_range(0u64..5000);
        let q = random_hierarchical_query(seed);
        if !classify(&q).hierarchical {
            continue;
        }
        let db = random_db(&q, seed.wrapping_mul(31), 12);
        let eps = [0.0, 0.5, 1.0][case % 3];
        let want = brute_force(&q, &db);
        let st = IvmEngine::new(&q, &db, EngineOptions::static_eval(eps)).unwrap();
        assert_eq!(
            st.result_sorted(),
            want.clone(),
            "static {q} ε={eps} seed={seed}"
        );
        let dy = IvmEngine::new(&q, &db, EngineOptions::dynamic(eps)).unwrap();
        assert_eq!(dy.result_sorted(), want, "dynamic {q} ε={eps} seed={seed}");
    }
}

/// Engine stays equal to the oracle under a random update stream.
#[test]
fn engine_matches_oracle_under_updates() {
    let mut case_rng = StdRng::seed_from_u64(0xE17);
    for _ in 0..48 {
        let seed = case_rng.gen_range(0u64..3000);
        let q = random_hierarchical_query(seed);
        if !classify(&q).hierarchical {
            continue;
        }
        let mut db = random_db(&q, seed.wrapping_mul(17), 6);
        let mut eng = IvmEngine::new(&q, &db, EngineOptions::dynamic(0.5)).unwrap();
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(97));
        let mut live: Vec<(String, Tuple)> = Vec::new();
        for step in 0..30 {
            if !live.is_empty() && rng.gen_bool(0.3) {
                let i = rng.gen_range(0..live.len());
                let (rel, t) = live.swap_remove(i);
                eng.delete(&rel, t.clone()).unwrap();
                db.apply(&rel, t, -1);
            } else {
                let a = &q.atoms[rng.gen_range(0..q.atoms.len())];
                let t: Tuple = Tuple::ints(
                    &(0..a.schema.arity())
                        .map(|_| rng.gen_range(0..4i64))
                        .collect::<Vec<_>>(),
                );
                eng.insert(&a.relation, t.clone()).unwrap();
                db.apply(&a.relation, t.clone(), 1);
                live.push((a.relation.clone(), t));
            }
            assert_eq!(
                eng.result_sorted(),
                brute_force(&q, &db),
                "{q} diverged at step {step} (seed {seed})"
            );
        }
        eng.check_consistency().unwrap();
    }
}

/// Structural propositions of the paper on random hierarchical queries:
/// Prop. 3 (free-connex ⇒ w = 1), Prop. 6 (q-hier ⇔ δ0),
/// Prop. 7 (free-connex ⇒ δ ≤ 1), Prop. 8 (δi rank = δ),
/// Prop. 17 (δ ∈ {w−1, w}).
#[test]
fn width_propositions_hold() {
    for seed in 0..2000u64 {
        let q = random_hierarchical_query(seed * 10 + 1);
        let c = classify(&q);
        assert!(c.hierarchical, "seed {seed}: {q}");
        let w = c.static_width.unwrap();
        let d = c.dynamic_width.unwrap();
        assert!(d == w || d + 1 == w, "{q}: w={w} δ={d}");
        assert_eq!(c.delta_rank.unwrap(), d, "{q}: Prop. 8");
        if c.free_connex {
            assert_eq!(w, 1, "{q}: Prop. 3");
            assert!(d <= 1, "{q}: Prop. 7");
        }
        assert_eq!(c.q_hierarchical, d == 0, "{q}: Prop. 6");
    }
}

/// Partition invariants (Def. 11) survive random maintenance.
#[test]
fn partition_invariants_survive_streams() {
    for seed in 0..48u64 {
        let src = "Q(A,C) :- R(A,B), S(B,C)";
        let q = parse_query(src).unwrap();
        let mut eng = IvmEngine::new(&q, &Database::new(), EngineOptions::dynamic(0.5)).unwrap();
        let mut rng = StdRng::seed_from_u64(seed * 41);
        let mut live: Vec<(&str, Tuple)> = Vec::new();
        for _ in 0..60 {
            if !live.is_empty() && rng.gen_bool(0.25) {
                let i = rng.gen_range(0..live.len());
                let (rel, t) = live.swap_remove(i);
                eng.delete(rel, t).unwrap();
            } else {
                let rel = if rng.gen_bool(0.5) { "R" } else { "S" };
                // Heavy skew: most tuples share one join value.
                let b = if rng.gen_bool(0.6) {
                    0
                } else {
                    rng.gen_range(0..8)
                };
                let o = rng.gen_range(0..50i64);
                let t = if rel == "R" {
                    Tuple::ints(&[o, b])
                } else {
                    Tuple::ints(&[b, o])
                };
                eng.insert(rel, t.clone()).unwrap();
                live.push((rel, t));
            }
            eng.check_consistency().unwrap();
        }
    }
}

#[test]
fn generator_yields_hierarchical_queries() {
    // Sanity: the generator's by-construction claim holds across seeds.
    for seed in 0..500u64 {
        let q = random_hierarchical_query(seed);
        assert!(classify(&q).hierarchical, "seed {seed}: {q}");
        assert!(!q.atoms.is_empty());
    }
}
