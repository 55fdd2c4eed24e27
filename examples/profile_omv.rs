//! Profiling driver for the engine hot paths on the OMv instance at ε = ½.
//!
//! Default (write) mode: 3000 alternating k = 1000 vector load/retract
//! batches on one engine. Run it under a sampling profiler (e.g.
//! `gprofng collect app`) to see where batched maintenance time goes
//! without the twin-engine cache interference of the `fig_omv_rounds`
//! harness.
//!
//! `--read` mode: the serving read path instead — with the vector loaded,
//! loop full enumerations and point lookups (`multiplicity`) so a profiler
//! sees where steady-state read time goes (`cargo run --release
//! --example profile_omv -- --read`).
//!
//! `--publish [eps] [shards]` mode (default: ε ∈ {0, ¼, ½, ¾, 1} and
//! one shard): what a commit costs after the apply — a Zipf-skewed
//! two-path with a result the size of the ledger's (480 rows per relation
//! plus the stream, ~22k tuples), a seeded stream of 64-update batches
//! applied forward and then retracted in reverse through
//! `ShardedEngine::apply_delta_batch`, and a `snapshot()` after every
//! batch. Prints apply and snapshot µs/round, the walk alone (every
//! shard's `freeze_component` into a counting sink, timed in the same
//! rounds: snapshot minus walk is what the tables and the index cost),
//! the snapshot's first `count_distinct()` (the settle on first read: the
//! overlap passes, run once per component version on the reader's side),
//! the mean `multiplicity` of a fixed probe set on each fresh snapshot,
//! before that first read, tuples/round, the rows the writer froze (flat rows plus factor rows),
//! the occurrences those stand for (what a drain of every bucket's
//! product would push) and the heavy keys, so a change to the publish
//! path is iterated in seconds. A second line splits the snapshot into
//! its flat and heavy parts (`ShardedEngine::freeze_profile`), and says
//! how many component freezes patched a mirror of the light root, rebuilt
//! it, or summed the flat trees afresh, the changed slots a patch
//! applied per round, and the mirrored root's slab high-water mark over
//! its live rows (mean, max, and rounds above 1.5×).
//!
//! `--publish-hub [n] [shards]` mode (default: n = 4,096, one shard): the
//! same rounds on an adversarial two-path at ε = ¼, where one `A` value is
//! in every heavy bucket and in `n` light rows (`publish_hub`) — the
//! shape on which a freeze must walk a key row's buckets rather than
//! probe each light row into each of them. Its probes are the hub's
//! tuples, so each lookup visits every bucket.

use std::time::{Duration, Instant};

use ivme_core::{
    Database, DeltaBatch, EngineOptions, FreezeProfile, FreezeSink, IvmEngine, ShardedEngine,
};
use ivme_data::{Tuple, Value};
use ivme_workload::{chunk_stream, two_path_db, update_stream, OmvInstance};

/// Counts what a freeze pushes: the occurrences its rows stand for — flat
/// rows one each, a bucket the product of its factors' rows.
#[derive(Default)]
struct Occurrences {
    total: usize,
    bucket: Vec<usize>,
}

impl Occurrences {
    /// Closes the open bucket, if any.
    fn close(&mut self) {
        if !self.bucket.is_empty() {
            self.total += self.bucket.iter().product::<usize>();
            self.bucket.clear();
        }
    }
}

impl FreezeSink for Occurrences {
    fn flat(&mut self, _: &[Value], _: u64, _: i64) {
        self.total += 1;
    }

    fn bucket(&mut self) {
        self.close();
    }

    fn factor(&mut self, f: usize, _: &[Value], _: i64) {
        self.bucket.resize(self.bucket.len().max(f + 1), 0);
        self.bucket[f] += 1;
    }
}

/// The `--publish` loop: the Zipf-skewed two-path at `eps`.
fn publish(eps: f64, shards: usize) {
    let db = two_path_db(480, 240, 1.0, 7);
    let opts = EngineOptions::dynamic(eps);
    let eng = ShardedEngine::from_sql("Q(A,C) :- R(A,B), S(B,C)", &db, opts, shards).unwrap();
    let ops = update_stream(64 * 64, &[("R", 2), ("S", 2)], 240, 1.0, 0.25, 11);
    let forward = chunk_stream(&ops, 64);
    let retract = forward.iter().rev().map(|b| {
        let mut inv = DeltaBatch::new();
        for rel in b.relations() {
            inv.extend_relation(rel, b.deltas(rel).map(|(t, d)| (t.clone(), -d)));
        }
        inv
    });
    let palindrome: Vec<DeltaBatch> = forward.iter().cloned().chain(retract).collect();
    let probes: Vec<Tuple> = (0..256).map(|i| Tuple::ints(&[i / 16, i % 16])).collect();
    time_publish(&format!("eps {eps}"), eng, &palindrome, &probes);
}

/// The `--publish-hub` loop: a two-path at ε = ¼ where one `A` value, the
/// hub `0`, is in `n / 16` heavy buckets (each `B` with 31 more `A`s and
/// two `C`s, `0` and one of its own) and `n` light `B`s join the hub to
/// `n` distinct `C`s, the first of them `0`. Every light row and every
/// bucket share the hub's key row: probing each light row into each
/// bucket would cost `n² / 16` lookups, a drain of the buckets' products
/// `4n` occurrences. Each round inserts or deletes one light `R` row.
fn publish_hub(n: i64, shards: usize) {
    let mut db = Database::new();
    let heavy = n / 16;
    for b in 0..heavy {
        db.insert("R", Tuple::ints(&[0, b]), 1);
        for a in 0..31 {
            db.insert("R", Tuple::ints(&[1 + 31 * b + a, b]), 1);
        }
        db.insert("S", Tuple::ints(&[b, 0]), 1);
        db.insert("S", Tuple::ints(&[b, 1 + b]), 1);
    }
    for b in heavy..heavy + n {
        db.insert("R", Tuple::ints(&[0, b]), 1);
        db.insert("S", Tuple::ints(&[b, (b - heavy) * (n + b)]), 1);
    }
    let opts = EngineOptions::dynamic(0.25);
    let eng = ShardedEngine::from_sql("Q(A,C) :- R(A,B), S(B,C)", &db, opts, shards).unwrap();
    let toggle: Vec<DeltaBatch> = (0..128)
        .map(|i| {
            let mut batch = DeltaBatch::new();
            let t = Tuple::ints(&[-1 - i / 2, heavy + i / 2]);
            batch.extend_relation("R", [(t, if i % 2 == 0 { 1 } else { -1 })]);
            batch
        })
        .collect();
    // The hub's tuples through the buckets: each key row is in them all.
    let probes: Vec<Tuple> = (0..=heavy).map(|c| Tuple::ints(&[0, c])).collect();
    time_publish(&format!("hub n {n}, eps 0.25"), eng, &toggle, &probes);
}

/// Applies `batches` three times over with a `snapshot()` after each, and
/// prints what the rounds cost; `probes` are looked up in each fresh
/// snapshot before its first positional read.
fn time_publish(label: &str, mut eng: ShardedEngine, batches: &[DeltaBatch], probes: &[Tuple]) {
    let (mut t_apply, mut t_snap, mut t_walk) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let (mut t_settle, mut t_lookup, mut found) = (Duration::ZERO, Duration::ZERO, 0i64);
    let (mut rounds, mut tuples, mut rows, mut heavy) = (0u64, 0usize, 0usize, 0usize);
    let mut occurrences = Occurrences::default();
    let before = eng.freeze_profile();
    let mut slabs = Vec::new();
    for _ in 0..3 {
        for batch in batches {
            let t0 = Instant::now();
            eng.apply_delta_batch(batch).unwrap();
            t_apply += t0.elapsed();
            rounds += 1;
            let t0 = Instant::now();
            let snap = eng.snapshot(rounds);
            t_snap += t0.elapsed();
            let p = eng.freeze_profile();
            if p.live_rows > 0 {
                slabs.push((p.slab_slots, p.live_rows));
            }
            let t0 = Instant::now();
            for t in probes {
                found = found.saturating_add(snap.multiplicity(t));
            }
            t_lookup += t0.elapsed();
            let t0 = Instant::now();
            tuples += snap.count_distinct();
            t_settle += t0.elapsed();
            rows += snap.stored_rows();
            let t0 = Instant::now();
            for s in 0..eng.num_shards() {
                eng.shard(s).freeze_component(0, &mut occurrences);
                occurrences.close();
            }
            t_walk += t0.elapsed();
            for s in 0..eng.num_shards() {
                heavy += eng.shard(s).heavy_keys();
            }
        }
    }
    let per_round = |d: Duration| d.as_secs_f64() * 1e6 / rounds as f64;
    println!(
        "{label}, {} shard(s), {rounds} rounds: apply {:.0} us/round, \
         snapshot {:.0} us/round (walk alone {:.0}), settle on first read {:.0} us/round, \
         lookup on a fresh snapshot {:.0} ns ({} probes, multiplicity sum {found}), \
         {} tuples/round, {} rows written/round for {} occurrences/round, {} heavy keys",
        eng.num_shards(),
        per_round(t_apply),
        per_round(t_snap),
        per_round(t_walk),
        per_round(t_settle),
        t_lookup.as_secs_f64() * 1e9 / (rounds as f64 * probes.len() as f64),
        probes.len(),
        tuples / rounds as usize,
        rows / rounds as usize,
        occurrences.total / rounds as usize,
        heavy / rounds as usize,
    );
    print_freeze_profile(before, eng.freeze_profile(), rounds, &slabs);
}

/// The publish split of `time_publish`'s rounds: what the freezes did
/// between the profiles `before` and `after`; `slabs` holds the mirrored
/// root's `(slab slots, live rows)` after each round.
fn print_freeze_profile(
    before: FreezeProfile,
    after: FreezeProfile,
    rounds: u64,
    slabs: &[(usize, usize)],
) {
    let us = |ns: u64| ns as f64 / 1e3 / rounds as f64;
    let patched = after.patched - before.patched;
    let mut line = format!(
        "  snapshot split: flat {:.0} us/round, heavy {:.0} us/round; component freezes: \
         {patched} patched, {} rebuilt, {} summed",
        us(after.flat_ns - before.flat_ns),
        us(after.heavy_ns - before.heavy_ns),
        after.rebuilt - before.rebuilt,
        after.summed - before.summed,
    );
    if let Some(changed) = (after.changed_slots - before.changed_slots).checked_div(patched) {
        line += &format!(", {changed} changed slots/patch");
    }
    if !slabs.is_empty() {
        let n = slabs.len();
        let ratios: Vec<f64> = slabs.iter().map(|&(s, l)| s as f64 / l as f64).collect();
        let mean = ratios.iter().sum::<f64>() / n as f64;
        let max = ratios.iter().copied().fold(0.0, f64::max);
        let above = ratios.iter().filter(|&&r| r > 1.5).count();
        let (slab, live) = slabs
            .iter()
            .fold((0, 0), |(s, l), &(ds, dl)| (s + ds, l + dl));
        line += &format!(
            ", slab/live {mean:.2}x mean ({} slots over {} live rows), {max:.2}x max, \
             above 1.5x in {above} of {n} rounds",
            slab / n,
            live / n,
        );
    }
    println!("{line}");
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--publish-hub") {
        let n = args.get(i + 1).map_or(4_096, |a| a.parse().expect("n"));
        let shards = args.get(i + 2).map_or(1, |a| a.parse().expect("shards"));
        publish_hub(n, shards);
        return;
    }
    if let Some(i) = args.iter().position(|a| a == "--publish") {
        let shards = args.get(i + 2).map_or(1, |a| a.parse().expect("shards"));
        let sweep = match args.get(i + 1) {
            Some(eps) => vec![eps.parse().expect("eps")],
            None => vec![0.0, 0.25, 0.5, 0.75, 1.0],
        };
        for eps in sweep {
            publish(eps, shards);
        }
        return;
    }
    let read_mode = args.iter().any(|a| a == "--read");
    let inst = OmvInstance::sparse_acceptance(1000);
    let mut db = Database::new();
    for t in inst.matrix_tuples() {
        db.insert("R", t, 1);
    }
    let mut eng =
        IvmEngine::from_sql("Q(A) :- R(A,B), S(B)", &db, EngineOptions::dynamic(0.5)).unwrap();
    let load = inst.vector_batch(0);
    if read_mode {
        // Serving read loop: enumerate the full result + point-look-up
        // every row, repeatedly, on a quiescent engine.
        eng.apply_delta_batch(&load).unwrap();
        let rounds = 3000u32;
        let n = inst.n as i64;
        let mut t_enum = std::time::Duration::ZERO;
        let mut t_lookup = std::time::Duration::ZERO;
        let mut tuples = 0usize;
        let mut mult_sum = 0i64;
        for _ in 0..rounds {
            let t0 = std::time::Instant::now();
            tuples += eng.enumerate().count();
            t_enum += t0.elapsed();
            let t0 = std::time::Instant::now();
            for a in 0..n {
                mult_sum += eng.multiplicity(&Tuple::ints(&[a]));
            }
            t_lookup += t0.elapsed();
        }
        println!(
            "{rounds} read rounds: enumerate {:?}/round ({} tuples/round), \
             {} lookups/round at {:.0}ns each (mult sum {mult_sum})",
            t_enum / rounds,
            tuples / rounds as usize,
            n,
            t_lookup.as_secs_f64() * 1e9 / (rounds as f64 * n as f64),
        );
        return;
    }
    let retract = inst.vector_retract_batch(0);
    let rounds = 3000;
    let mut t_load = std::time::Duration::ZERO;
    let mut t_retract = std::time::Duration::ZERO;
    for _ in 0..rounds {
        let t0 = std::time::Instant::now();
        eng.apply_delta_batch(&load).unwrap();
        t_load += t0.elapsed();
        let t0 = std::time::Instant::now();
        eng.apply_delta_batch(&retract).unwrap();
        t_retract += t0.elapsed();
    }
    println!(
        "{rounds} rounds: load {:?}/batch, retract {:?}/batch",
        t_load / rounds,
        t_retract / rounds
    );
}
