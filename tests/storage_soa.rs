//! Property-style tests for the storage layer rebuilt in this PR: inline
//! cached-hash tuples, the struct-of-arrays index links with group handles,
//! and tombstoned group maps.
//!
//! The strategy is an interleaved random workload (in-repo `rand` shim —
//! deterministic seeds) checked against a `BTreeMap` oracle after every
//! phase: stored entries, per-index group lists, group degrees, and the
//! intrusive live list must all agree with the oracle, and
//! `Relation::check_storage` must hold (link integrity, group handles,
//! tombstone accounting, cached-hash validity). A second suite drives the
//! engine through heavy↔light migration storms at small θ and asserts
//! `check_consistency` plus agreement with a from-scratch recompute.

use std::collections::{BTreeMap, BTreeSet};

use ivme_baselines::Recompute;
use ivme_core::{Database, EngineOptions, IvmEngine};
use ivme_data::{Relation, Schema, Tuple};
use ivme_query::parse_query;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Checks `rel` against the oracle: size, per-tuple multiplicities, the
/// live-list scan, every index's group degrees and group contents, and the
/// internal storage invariants.
fn assert_matches_oracle(
    rel: &Relation,
    oracle: &BTreeMap<Tuple, i64>,
    indexes: &[(ivme_data::IndexId, Vec<usize>)],
) {
    rel.check_storage().expect("storage invariants");
    assert_eq!(rel.len(), oracle.len(), "|R| diverged");
    // Live-list scan sees exactly the oracle's entries.
    let scanned: BTreeMap<Tuple, i64> = rel.iter().map(|(t, m)| (t.clone(), m)).collect();
    assert_eq!(&scanned, oracle, "live list diverged");
    for (t, m) in oracle {
        assert_eq!(rel.get(t), *m, "multiplicity of {t:?}");
        assert!(rel.contains(t));
    }
    // Per index: group degrees and group membership equal the oracle's
    // projection, and the distinct-key count matches.
    for &(idx, ref positions) in indexes {
        let mut groups: BTreeMap<Tuple, BTreeMap<Tuple, i64>> = BTreeMap::new();
        for (t, m) in oracle {
            groups
                .entry(t.project(positions))
                .or_default()
                .insert(t.clone(), *m);
        }
        assert_eq!(rel.num_groups(idx), groups.len(), "num_groups");
        let seen_keys: BTreeSet<Tuple> = rel.group_keys(idx).cloned().collect();
        assert_eq!(
            seen_keys,
            groups.keys().cloned().collect::<BTreeSet<Tuple>>(),
            "group key set"
        );
        for (key, members) in &groups {
            assert!(rel.group_contains(idx, key));
            assert_eq!(rel.group_len(idx, key), members.len(), "degree of {key:?}");
            let walked: BTreeMap<Tuple, i64> = rel
                .group_iter(idx, key)
                .map(|(t, m)| (t.clone(), m))
                .collect();
            assert_eq!(&walked, members, "group {key:?} contents");
        }
    }
}

#[test]
fn random_interleaving_matches_btreemap_oracle() {
    for seed in 0..4u64 {
        let mut rng = StdRng::seed_from_u64(0xD1CE + seed);
        let mut rel = Relation::new("R", Schema::of(&["A", "B", "C"]));
        let mut oracle: BTreeMap<Tuple, i64> = BTreeMap::new();
        // Start with one index; more are added mid-stream.
        let mut indexes = vec![(
            rel.add_index(&Schema::of(&["B"])),
            Schema::of(&["A", "B", "C"]).positions_of(&Schema::of(&["B"])),
        )];
        let pending = [
            Schema::of(&["C", "A"]),
            Schema::of(&["A"]),
            Schema::of(&["B", "C"]),
        ];
        let mut pending = pending.iter();
        for step in 0..3000 {
            // Small domains force slot recycling, group death/revival, and
            // multi-entry groups.
            let t = Tuple::ints(&[
                rng.gen_range(0..6i64),
                rng.gen_range(0..4i64),
                rng.gen_range(0..3i64),
            ]);
            let delta = rng.gen_range(-2..=2i64);
            let present = oracle.get(&t).copied().unwrap_or(0);
            let outcome = rel.apply(t.clone(), delta);
            if present + delta < 0 {
                let err = outcome.expect_err("negative multiplicity must be rejected");
                assert_eq!(err.present, present);
                assert_eq!(err.delta, delta);
            } else {
                let o = outcome.expect("legal delta");
                assert_eq!((o.before, o.after), (present, present + delta));
                if present + delta == 0 {
                    oracle.remove(&t);
                } else {
                    oracle.insert(t, present + delta);
                }
            }
            // Periodically add an index over live data and re-verify.
            if step % 800 == 700 {
                if let Some(key) = pending.next() {
                    let idx = rel.add_index(key);
                    let positions = Schema::of(&["A", "B", "C"]).positions_of(key);
                    indexes.push((idx, positions));
                }
            }
            if step % 250 == 249 {
                assert_matches_oracle(&rel, &oracle, &indexes);
            }
        }
        // Drain everything: group maps must shed (or tombstone) every key
        // and the slab must recycle cleanly.
        let remaining: Vec<(Tuple, i64)> = oracle.iter().map(|(t, m)| (t.clone(), *m)).collect();
        for (t, m) in remaining {
            rel.delete(t.clone(), m);
            oracle.remove(&t);
        }
        assert_matches_oracle(&rel, &oracle, &indexes);
        assert!(rel.is_empty());
    }
}

#[test]
fn batch_apply_matches_btreemap_oracle() {
    let mut rng = StdRng::seed_from_u64(0xBA7C4);
    let mut rel = Relation::new("R", Schema::of(&["A", "B"]));
    let idx = rel.add_index(&Schema::of(&["B"]));
    let indexes = vec![(idx, vec![1usize])];
    let mut oracle: BTreeMap<Tuple, i64> = BTreeMap::new();
    for _ in 0..200 {
        // Unconsolidated batch with repeats and cancellations.
        let batch: Vec<(Tuple, i64)> = (0..rng.gen_range(1..30usize))
            .map(|_| {
                (
                    Tuple::ints(&[rng.gen_range(0..5i64), rng.gen_range(0..4i64)]),
                    rng.gen_range(-2..=2i64),
                )
            })
            .collect();
        // Net effect per tuple decides legality — mirror the relation's
        // consolidate-then-validate contract on the oracle.
        let mut net: BTreeMap<Tuple, i64> = BTreeMap::new();
        for (t, d) in &batch {
            *net.entry(t.clone()).or_insert(0) += d;
        }
        let legal = net
            .iter()
            .all(|(t, d)| oracle.get(t).copied().unwrap_or(0) + d >= 0);
        let outcome = rel.apply_batch(&batch);
        assert_eq!(outcome.is_ok(), legal, "batch legality diverged");
        if legal {
            for (t, d) in net {
                let m = oracle.get(&t).copied().unwrap_or(0) + d;
                if m == 0 {
                    oracle.remove(&t);
                } else {
                    oracle.insert(t, m);
                }
            }
        }
        assert_matches_oracle(&rel, &oracle, &indexes);
    }
}

/// The slab as `Relation::slot` reads it, slot by slot.
fn slab(rel: &Relation) -> Vec<Option<(Tuple, i64)>> {
    (0..rel.slot_count())
        .map(|i| rel.slot(i).map(|(t, m)| (t.clone(), m)))
        .collect()
}

/// Seeded interleavings of single deltas, batches (some refused) and
/// `clear`s, with the changed-slot report taken after every step: it
/// lists exactly the slots whose `(tuple, multiplicity)` differs from the
/// slab at the previous report — a slot past the old high-water mark
/// counts as changed from free — and answers `false` on the first ask and
/// after a `clear`. Each kind of change is seen: a fill of a freed slot,
/// a free, a change of multiplicity alone, and a reset.
#[test]
fn changed_slot_report_matches_a_slab_oracle() {
    for seed in 0..4u64 {
        let mut rng = StdRng::seed_from_u64(0x51_07 + seed);
        let mut rel = Relation::new("R", Schema::of(&["A", "B"]));
        rel.add_index(&Schema::of(&["B"]));
        rel.insert(Tuple::ints(&[0, 0]), 1);
        let mut out = Vec::new();
        assert!(!rel.take_changed_slots(&mut out), "the first ask");
        assert!(out.is_empty());
        let mut last = slab(&rel);
        // Refills of a freed slot, frees, multiplicity-only changes, resets.
        let mut seen = [0usize; 4];
        for step in 0..1500 {
            let tuple =
                |rng: &mut StdRng| Tuple::ints(&[rng.gen_range(0..8i64), rng.gen_range(0..3i64)]);
            let cleared = step % 300 == 299;
            if cleared {
                rel.clear();
            } else if rng.gen_range(0..3) == 0 {
                let batch: Vec<(Tuple, i64)> = (0..rng.gen_range(1..12usize))
                    .map(|_| (tuple(&mut rng), rng.gen_range(-2..=2i64)))
                    .collect();
                let _ = rel.apply_batch(&batch);
            } else {
                let t = tuple(&mut rng);
                let _ = rel.apply(t, rng.gen_range(-2..=2i64));
            }
            let now = slab(&rel);
            let listed = rel.take_changed_slots(&mut out);
            if cleared {
                assert!(!listed, "seed {seed} step {step}: a clear is a reset");
                assert!(out.is_empty());
                seen[3] += 1;
            } else {
                assert!(listed, "seed {seed} step {step}: no reset happened");
                let changed: BTreeSet<usize> = (0..now.len())
                    .filter(|&i| last.get(i).cloned().flatten() != now[i])
                    .collect();
                let reported: BTreeSet<usize> = out.iter().map(|s| s.index()).collect();
                assert_eq!(reported.len(), out.len(), "a slot listed twice");
                assert_eq!(reported, changed, "seed {seed} step {step}");
                for &i in &changed {
                    match (last.get(i).cloned().flatten(), &now[i]) {
                        (None, Some(_)) if i < last.len() => seen[0] += 1,
                        (Some(_), None) => seen[1] += 1,
                        (Some((a, _)), Some((b, _))) if a == *b => seen[2] += 1,
                        _ => {}
                    }
                }
            }
            rel.check_storage().expect("storage invariants");
            last = now;
        }
        assert!(seen.iter().all(|&n| n > 0), "seed {seed}: {seen:?}");
    }
}

/// Heavy↔light migration storm: one key oscillates around the 0.5·θ/1.5·θ
/// thresholds while the engine maintains a two-atom join at small θ.
#[test]
fn migration_storms_keep_engine_consistent() {
    let q = parse_query("Q(A) :- R(A,B), S(B)").unwrap();
    let mut db = Database::new();
    // Enough base data that θ = M^ε sits around 3–6: single-digit degree
    // changes cross the migration thresholds.
    for a in 0..40i64 {
        db.insert("R", Tuple::ints(&[a, a % 8]), 1);
    }
    for b in 0..8i64 {
        db.insert("S", Tuple::ints(&[b]), 1);
    }
    let mut eng = IvmEngine::new(&q, &db, EngineOptions::dynamic(0.4)).unwrap();
    let mut oracle = Recompute::new(&q);
    for a in 0..40i64 {
        oracle.apply_update("R", Tuple::ints(&[a, a % 8]), 1);
    }
    for b in 0..8i64 {
        oracle.apply_update("S", Tuple::ints(&[b]), 1);
    }
    eng.check_consistency().unwrap();

    let mut rng = StdRng::seed_from_u64(0x57021);
    for storm in 0..30 {
        // Pile inserts onto one key until it migrates heavy, then strip
        // them so it migrates back light; sprinkle noise on other keys.
        let hot = rng.gen_range(0..8i64);
        let burst = rng.gen_range(8..20i64);
        for i in 0..burst {
            let t = Tuple::ints(&[1000 + storm * 100 + i, hot]);
            eng.insert("R", t.clone()).unwrap();
            oracle.apply_update("R", t, 1);
        }
        if rng.gen_bool(0.5) {
            // Noise on the original keys; ignore misses on already-deleted
            // tuples, mirroring into the oracle only on success.
            let t = Tuple::ints(&[rng.gen_range(0..40i64), rng.gen_range(0..8i64)]);
            if eng.delete("R", t.clone()).is_ok() {
                oracle.apply_update("R", t, -1);
            }
        }
        for i in 0..burst {
            let t = Tuple::ints(&[1000 + storm * 100 + i, hot]);
            eng.delete("R", t.clone()).unwrap();
            oracle.apply_update("R", t, -1);
        }
        eng.check_consistency()
            .unwrap_or_else(|e| panic!("storm {storm}: {e}"));
        assert_eq!(
            eng.result_sorted(),
            oracle.evaluate(),
            "storm {storm}: result diverged from recompute"
        );
    }
    assert!(
        eng.stats().minor_rebalances > 0,
        "the storm must actually trigger migrations"
    );
}
