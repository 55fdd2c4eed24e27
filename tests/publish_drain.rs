//! The publish path freezes each component as the engine holds it — the
//! flat trees' rows summed into one table, every live heavy key's bucket
//! kept as its children's groups — and settles the tuples two parts share
//! (across shards, trees and heavy buckets) so each lives in one place.
//! Whatever the parts look like, the frozen result must be the one the
//! paper's deduplicating Union (Fig. 15) enumerates.
//!
//! For ε ∈ {0, ½, 1} × S ∈ {1, 2, 3}, over the paper's example queries, a
//! star, a dense-domain two-path (at ε = ¼) and a Zipf-skewed two-path,
//! after every batch of a seeded insert/delete stream: the snapshot equals
//! the per-shard `IvmEngine::result_sorted()` lists summed
//! (single-component queries — a product of unions is not a union of
//! products) and an unsharded engine's list (all queries);
//! `count_distinct` is its length; `multiplicity` agrees on every tuple
//! and on 100 absent probes; pages of 7 agree with `enumerate()`. Each
//! stream ends at the brute-force oracle.
//!
//! And the order rule: a snapshot enumerates in an order that is a
//! function of the apply history alone — how often the engine was frozen
//! along the way (which pre-sizes the flat table, or patches a mirrored
//! component's copy of its light root) must not show.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ivme_core::{
    brute_force, Database, DeltaBatch, EngineOptions, FreezeProfile, IvmEngine, ShardedEngine,
    ShardedSnapshot,
};
use ivme_data::Tuple;
use ivme_query::{parse_query, Query};
use ivme_workload::{chunk_stream, two_path_db, update_stream, StreamOp};

mod support;
use support::relations;

const EPS_GRID: [f64; 3] = [0.0, 0.5, 1.0];
const SHARD_GRID: [usize; 3] = [1, 2, 3];

/// (query, value domain of its stream, the ε it runs at). Small domains
/// make heavy keys, and tuples that several heavy buckets share.
const QUERIES: &[(&str, usize, &[f64])] = &[
    // Example 28: the root variable B is projected away, so one tuple
    // comes out of several heavy buckets and of several shards.
    ("Q(A,C) :- R(A,B), S(B,C)", 8, &EPS_GRID),
    // Example 29: an arity-0 factor, S(B), under every heavy B.
    ("Q(A) :- R(A,B), S(B)", 8, &EPS_GRID),
    // Example 18: an indicator below a free root.
    ("Q(A,D,E) :- R(A,B,C), S(A,B,D), T(A,E)", 4, &EPS_GRID),
    // Example 19: nested indicator nodes (A, then (A,B)), root projected away.
    (
        "Q(C,D,E,F) :- R(A,B,D), S(A,B,E), T(A,C,F), U(A,C,G)",
        3,
        &EPS_GRID,
    ),
    // Two components, one of them skew-aware.
    ("Q(A,C,D) :- R(A,B), S(B,C), T(D)", 6, &EPS_GRID),
    // A repeated relation symbol (routable: B is column 1 in both atoms).
    ("Q(A,C) :- R(A,B), R(C,B)", 8, &EPS_GRID),
    // A star: buckets of three factors.
    ("Q(A,C,D) :- R(A,B), S(B,C), T(B,D)", 6, &EPS_GRID),
    // A dense domain: most heavy buckets share most of their tuples.
    ("Q(A,C) :- R(A,B), S(B,C)", 4, &[0.25]),
];

/// The per-shard deduplicated results, concatenated and summed per tuple.
fn per_shard_sum(eng: &ShardedEngine) -> Vec<(Tuple, i64)> {
    let mut sum: BTreeMap<Tuple, i64> = BTreeMap::new();
    for s in 0..eng.num_shards() {
        for (t, m) in eng.shard(s).result_sorted() {
            *sum.entry(t).or_insert(0) += m;
        }
    }
    sum.into_iter().collect()
}

/// Every read of `snap` against the reference list `want` (sorted).
fn check_reads(snap: &ShardedSnapshot, want: &[(Tuple, i64)], rng: &mut StdRng, ctx: &str) {
    assert_eq!(snap.result_sorted(), want, "{ctx}: result");
    assert_eq!(snap.count_distinct(), want.len(), "{ctx}: count");
    let seq: Vec<(Tuple, i64)> = snap.enumerate().collect();
    for at in (0..=seq.len()).step_by(7) {
        let page = &seq[at..(at + 7).min(seq.len())];
        assert_eq!(snap.enumerate_page(at, 7), page, "{ctx}: page {at}");
    }
    for (t, m) in want {
        assert_eq!(snap.multiplicity(t), *m, "{ctx}: multiplicity of {t:?}");
    }
    // Absent probes: random tuples over a slightly wider domain than any
    // stream uses, kept when the reference does not hold them.
    let arity = snap.free_arity();
    let mut absent = 0;
    while absent < 100 && arity > 0 {
        let vals: Vec<i64> = (0..arity).map(|_| rng.gen_range(0..12)).collect();
        let t = Tuple::ints(&vals);
        if want.binary_search_by(|(w, _)| w.cmp(&t)).is_err() {
            assert_eq!(snap.multiplicity(&t), 0, "{ctx}: absent {t:?}");
            assert!(!snap.contains(&t));
            absent += 1;
        }
    }
}

/// Runs `batches` through an unsharded and an `S`-sharded engine and
/// checks the snapshot after every batch.
fn run_stream(q: &Query, db: &Database, batches: &[DeltaBatch], eps: f64, shards: usize) {
    let ctx = |round: usize| format!("{q} eps {eps} S {shards} round {round}");
    let opts = EngineOptions::dynamic(eps);
    let mut plain = IvmEngine::new(q, db, opts).unwrap();
    let mut sharded = ShardedEngine::new(q, db, opts, shards).unwrap();
    assert_eq!(sharded.num_shards(), shards, "{q}");
    let mut rng = StdRng::seed_from_u64(shards as u64);
    let mut mirror = db.clone();
    for (round, batch) in std::iter::once(None)
        .chain(batches.iter().map(Some))
        .enumerate()
    {
        if let Some(batch) = batch {
            plain.apply_delta_batch(batch).unwrap();
            sharded.apply_delta_batch(batch).unwrap();
            for rel in batch.relations() {
                for (t, d) in batch.deltas(rel) {
                    mirror.apply(rel, t.clone(), d);
                }
            }
        }
        let want = plain.result_sorted();
        if plain.num_components() == 1 {
            assert_eq!(
                per_shard_sum(&sharded),
                want,
                "{}: per-shard sum",
                ctx(round)
            );
        }
        check_reads(
            &sharded.snapshot(round as u64),
            &want,
            &mut rng,
            &ctx(round),
        );
    }
    assert_eq!(plain.result_sorted(), brute_force(q, &mirror), "{q}");
    sharded.check_consistency().unwrap();
}

#[test]
fn snapshot_of_the_bag_drain_is_the_deduplicated_result_on_the_paper_examples() {
    for (qi, &(src, domain, eps_grid)) in QUERIES.iter().enumerate() {
        let q = parse_query(src).unwrap();
        let rels = relations(&q);
        let arities: Vec<(&str, usize)> = rels.iter().map(|(n, a)| (n.as_str(), *a)).collect();
        // The first third of the stream (inserts only) is the initial
        // database, the rest arrives as batches of 16 with deletes.
        let seed = 100 + qi as u64;
        let ops: Vec<StreamOp> = update_stream(60, &arities, domain, 0.8, 0.0, seed)
            .into_iter()
            .chain(update_stream(160, &arities, domain, 0.8, 0.4, seed + 50))
            .collect();
        let mut db = Database::new();
        for op in &ops[..60] {
            db.apply(&op.relation, op.tuple.clone(), op.delta);
        }
        let batches = chunk_stream(&ops[60..], 16);
        for &eps in eps_grid {
            for shards in SHARD_GRID {
                run_stream(&q, &db, &batches, eps, shards);
            }
        }
    }
}

#[test]
fn snapshot_of_the_bag_drain_is_the_deduplicated_result_on_a_zipf_two_path() {
    let q = parse_query("Q(A,C) :- R(A,B), S(B,C)").unwrap();
    let db = two_path_db(150, 30, 1.0, 7);
    let ops = update_stream(128, &[("R", 2), ("S", 2)], 30, 1.0, 0.3, 23);
    let batches = chunk_stream(&ops, 32);
    for eps in EPS_GRID {
        let eng = IvmEngine::new(&q, &db, EngineOptions::dynamic(eps)).unwrap();
        assert_eq!(eng.heavy_keys() > 0, eps < 1.0, "eps {eps}: skew");
        for shards in SHARD_GRID {
            run_stream(&q, &db, &batches, eps, shards);
        }
    }
}

/// Two engines fed the same batches, one frozen after every batch and one
/// only at the end, enumerate the same *sequence* — and page alike.
#[test]
fn enumeration_order_is_a_function_of_the_apply_history_not_of_the_freezes() {
    let q = parse_query("Q(A,C) :- R(A,B), S(B,C)").unwrap();
    let db = two_path_db(150, 30, 1.0, 7);
    let ops = update_stream(256, &[("R", 2), ("S", 2)], 30, 1.0, 0.3, 23);
    let batches = chunk_stream(&ops, 32);
    for eps in EPS_GRID {
        for shards in [1, 2] {
            let opts = EngineOptions::dynamic(eps);
            let mut often = ShardedEngine::new(&q, &db, opts, shards).unwrap();
            let mut once = ShardedEngine::new(&q, &db, opts, shards).unwrap();
            often.snapshot(0);
            for (round, batch) in batches.iter().enumerate() {
                often.apply_delta_batch(batch).unwrap();
                once.apply_delta_batch(batch).unwrap();
                often.snapshot(round as u64 + 1);
            }
            let (a, b) = (often.snapshot(99), once.snapshot(99));
            let sequence: Vec<(Tuple, i64)> = a.enumerate().collect();
            assert!(sequence.len() > 1_000, "eps {eps} S {shards}");
            assert!(
                sequence == b.enumerate().collect::<Vec<_>>(),
                "eps {eps} S {shards}: freezing more often reordered the result"
            );
            assert_eq!(a.enumerate_page(700, 50), b.enumerate_page(700, 50));
            assert_eq!(a.enumerate_page(700, 50), sequence[700..750]);
        }
    }
}

/// What a reader reads of a snapshot: the enumeration sequence, every
/// page of 7, and the multiplicity of every result tuple and of 50 seeded
/// probes.
type Reads = (Vec<(Tuple, i64)>, Vec<Vec<(Tuple, i64)>>, Vec<i64>);

/// Every read a reader can make of `snap` ([`Reads`]), in a form two
/// snapshots can be compared by.
fn reads(snap: &ShardedSnapshot) -> Reads {
    let seq: Vec<(Tuple, i64)> = snap.enumerate().collect();
    let pages = (0..=seq.len())
        .step_by(7)
        .map(|at| snap.enumerate_page(at, 7))
        .collect();
    let mut rng = StdRng::seed_from_u64(5);
    let arity = snap.free_arity();
    let probes = (0..50).map(|_| {
        let vals: Vec<i64> = (0..arity).map(|_| rng.gen_range(0..12)).collect();
        Tuple::ints(&vals)
    });
    let lookups = seq
        .iter()
        .map(|(t, _)| t.clone())
        .chain(probes)
        .map(|t| snap.multiplicity(&t))
        .collect();
    (seq, pages, lookups)
}

/// The batches `(inserts, then their retraction in reverse)`: the slab
/// of a light root grows, and then frees most of its slots.
fn grow_and_retract(ops: &[StreamOp], size: usize) -> Vec<DeltaBatch> {
    let forward = chunk_stream(ops, size);
    let retract: Vec<DeltaBatch> = forward
        .iter()
        .rev()
        .map(|b| {
            let mut inv = DeltaBatch::new();
            for rel in b.relations() {
                inv.extend_relation(rel, b.deltas(rel).map(|(t, d)| (t.clone(), -d)));
            }
            inv
        })
        .collect();
    forward.into_iter().chain(retract).collect()
}

/// At S = 1 a component whose flat part is one verbatim light root is
/// frozen by patching a mirror of that root from the slots each batch
/// changed. For every query of the table at ε ∈ {0, ½, 1}, an engine
/// frozen after every batch (patched) must read, after every batch,
/// exactly as a twin that replayed the same batches and is frozen only
/// then (its first freeze rebuilds from the slab): the same sequence, the
/// same pages and the same lookups, and the reference result. The stream
/// grows the database past a major rebalance (which clears the root: a
/// reset) and retracts it, which leaves the slab at twice its live rows
/// or more, then mixes inserts and deletes, which refill freed slots. A
/// snapshot held from the first batch reads identically after 50 later
/// publishes, and a copy no snapshot holds is recycled by later ones.
#[test]
fn a_patched_freeze_equals_a_rebuilt_one_and_held_snapshots_stay_put() {
    let mut mirrored = 0;
    for (qi, &(src, domain, _)) in QUERIES.iter().enumerate() {
        let q = parse_query(src).unwrap();
        let rels = relations(&q);
        let arities: Vec<(&str, usize)> = rels.iter().map(|(n, a)| (n.as_str(), *a)).collect();
        let seed = 300 + qi as u64;
        let mut db = Database::new();
        for op in update_stream(40, &arities, domain * 2, 0.8, 0.0, seed) {
            db.apply(&op.relation, op.tuple, op.delta);
        }
        let ops = update_stream(240, &arities, domain * 2, 0.8, 0.0, seed + 1);
        let mut batches = grow_and_retract(&ops, 8);
        // Then inserts and deletes mixed, which refill freed slots.
        let mixed = update_stream(160, &arities, domain * 2, 0.8, 0.4, seed + 2);
        batches.extend(chunk_stream(&mixed, 8));
        let mut widest_of_query = 0.0f64;
        for eps in EPS_GRID {
            let ctx = |k: usize| format!("{src} eps {eps} batch {k}");
            let opts = EngineOptions::dynamic(eps);
            let mut plain = IvmEngine::new(&q, &db, opts).unwrap();
            let mut often = ShardedEngine::new(&q, &db, opts, 1).unwrap();
            often.snapshot(0);
            let mut held = None;
            let mut widest = 0.0f64;
            for (k, batch) in batches.iter().enumerate() {
                plain.apply_delta_batch(batch).unwrap();
                often.apply_delta_batch(batch).unwrap();
                let patched = often.snapshot(k as u64 + 1);
                let mut twin = ShardedEngine::new(&q, &db, opts, 1).unwrap();
                for b in &batches[..=k] {
                    twin.apply_delta_batch(b).unwrap();
                }
                let rebuilt = twin.snapshot(k as u64 + 1);
                let got = reads(&patched);
                assert!(got == reads(&rebuilt), "{}: patched != rebuilt", ctx(k));
                assert_eq!(patched.result_sorted(), plain.result_sorted(), "{}", ctx(k));
                let p: FreezeProfile = often.freeze_profile();
                if p.live_rows > 0 {
                    widest = widest.max(p.slab_slots as f64 / p.live_rows as f64);
                }
                if k == 0 {
                    held = Some((patched, got));
                }
            }
            let (snap, first) = held.expect("a batch");
            assert!(batches.len() > 50);
            assert!(reads(&snap) == first, "{}: a held snapshot moved", ctx(0));
            assert!(often.stats().major_rebalances > 0, "{}: no reset", ctx(0));
            let p = often.freeze_profile();
            if p.patched > 0 {
                // The first freeze and the one after the reset rebuilt.
                assert!(p.rebuilt >= 2, "{}: {p:?}", ctx(0));
                widest_of_query = widest_of_query.max(widest);
            }
        }
        // At ε = 0 a light root holds next to nothing; above it, the
        // retraction leaves its slab mostly free.
        if widest_of_query > 0.0 {
            mirrored += 1;
            assert!(widest_of_query >= 2.0, "{src}: slab/live {widest_of_query}");
        }
    }
    assert!(mirrored >= 6, "{mirrored} queries took the mirrored path");
}
