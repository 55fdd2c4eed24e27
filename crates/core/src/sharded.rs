//! Sharded engine: hash-partition on the component root variable.
//!
//! # Why the root variable makes shards independent
//!
//! Every connected component of a hierarchical query has a canonical
//! variable order rooted at a variable that occurs in **all** atoms of the
//! component (Def. 13; exposed as
//! [`ComponentPlan::root_var`](ivme_plan::ComponentPlan)). Two tuples with
//! different root values can therefore never join: hash-partitioning every
//! relation of the component on its root-variable column yields `S`
//! sub-databases whose view trees, heavy/light partitions, and indicators
//! are fully independent. A [`ShardedEngine`] exploits this by running one
//! complete [`IvmEngine`] per shard, all on the caller's thread:
//!
//! * **Routing** is the engine's own business: a private router hashes
//!   each relation's root column (reusing the tuples' cached 64-bit hashes
//!   where the routing key is the whole tuple), pins nullary relations to
//!   shard 0, and sends a tuple without its routing column (wrong arity)
//!   to shard 0 too, whose validation rejects it. Such tuples count as
//!   *misroutes* in [`ShardedEngine::stats`] when a batch is split;
//!   [`ShardedEngine::shard_of`] only asks.
//! * **Preprocessing** materializes the shards one after another, each
//!   over its own sub-database; a single shard preprocesses the input
//!   database itself, with no routed copy.
//! * **Maintenance** splits a [`DeltaBatch`] by the router (at `S = 1` the
//!   batch is borrowed whole) and applies the per-shard sub-batches one
//!   after another; a single update is a batch of one. Each shard
//!   propagates through its own `PropScratch` arena. The paper's update
//!   bound `O(N^{δε})` (Prop. 23) holds per shard, so sharding partitions
//!   the work without parallelizing it: `S > 1` only adds routing, and
//!   `fig_omv_rounds`' sharded sweep measures it slower than `S = 1`, the
//!   default, on a 2-vCPU box.
//! * **Reads** go through one door: [`ShardedEngine::snapshot`] freezes
//!   the result into a [`ShardedSnapshot`], and every read — enumerate,
//!   count, lookup, page — is answered by that snapshot, never by the
//!   engine. Freezing works per component, and keeps it the way the
//!   engine keeps it (see below). Merging per *component* (not per shard
//!   result) is what keeps multi-component queries correct: a product of
//!   unions is not a union of products. The full result is the Cartesian
//!   product over components. The cost of the one door: a point lookup on
//!   a sharded engine pays the freeze of the components touched since the
//!   last snapshot; the paper's own `O(N^{1−ε})` tree lookup is
//!   [`IvmEngine::multiplicity`].
//!
//! # What a frozen component holds
//!
//! The paper materializes the light part and keeps, for each heavy value,
//! only what is needed to enumerate its tuples on the fly: a heavy key's
//! groups are never joined. A freeze keeps that form. Every shard's
//! [`IvmEngine::freeze_component`] (each occurrence once, no lookups)
//! pushes into one component:
//!
//! * the **flat part** `M`: the rows of the trees the engine itself
//!   materializes, summed in one insertion-ordered table
//!   (`MergedComponent`, bare values in one flat array — a `Tuple` is
//!   built only for what a read returns); a covering root whose stored
//!   tuples are rows verbatim hands over their cached hashes;
//! * one **bucket** per live heavy key of the component's heavy trees:
//!   one summed table per child of the indicator node (its *factors*),
//!   whose row-major product is the bucket's tuples, multiplicities
//!   multiplied. The product is never formed — a publish writes
//!   `Σ |factor|` rows for a bucket of `Π |factor|` tuples;
//! * an **index** from the first binding factor's rows (the *key rows*)
//!   to the `(bucket, row)` pairs holding them.
//!
//! These **parts** are all a publish writes: `O(|M| + Σ |factor|)`, with
//! no probe between them.
//!
//! # Settle on first read
//!
//! A positional read needs each distinct tuple in exactly one place: a
//! row of `M`, or one position of one bucket. A tuple that two or more
//! parts produce (two shards — possible only when the root variable is
//! projected away — a light and a heavy tree, or several heavy keys) is a
//! row of `M` with its summed multiplicity, and every bucket producing it
//! lists that position as *shared* and skips it — the deduplication the
//! paper's Union (Fig. 15) does while it enumerates. That *settled layer*
//! is built from the parts, which it leaves unchanged, on the first
//! positional read of a component version (`count`, `enumerate`, a page),
//! on the reader's thread, in a `OnceLock` that every snapshot holding the
//! version shares: a component settles at most once, readers racing its
//! first read wait for that one settle, and the writer never settles.
//! Settling goes key row by key row, skipping a component without a live
//! bucket. A key row is either probed and paired — pass (i) probes its
//! rows of `M` into the buckets holding it, pass (ii) intersects those
//! buckets pair by pair for the tuples only buckets share — or, where that
//! would cost more, walked: its holders' tuples under it are looked up in
//! `M` and summed. Either way a key row costs at most a constant times the
//! occurrences a drain of its holders' products under it would push, plus
//! one index probe per row of `M`.
//!
//! Reads follow the parts. A lookup reads the parts alone and never
//! settles: it probes `M` and adds the tuple's multiplicity in every
//! bucket holding its key row, one probe per holder — so a key row that
//! every bucket holds costs a probe per bucket. The positional reads use
//! the settled layer: `count` is
//! `|M| + Σ (Π|F| − |shared|)`; a component enumerates `M` in the order
//! its rows first occurred (shard 0 first, then the tuples only buckets
//! share), then the buckets in shard and heavy-key storage order,
//! row-major, skipping shared positions — a function of the apply history
//! alone, so engines that applied the same batches page identically,
//! however often each was frozen or read. A seek is prefix counts plus
//! one binary search in a shared list, `O(log #buckets + log |shared|)`,
//! never `O(offset)`; positions are `u128` (five factors of 8,192 rows
//! make 2⁶⁵ of them), counts saturate, and multiplicities saturate at
//! `i64::MAX` (a result tuple's may exceed it).
//!
//! # How atomic validation is preserved
//!
//! [`IvmEngine::apply_delta_batch`] rejects a batch atomically. The sharded
//! engine preserves that guarantee across shards with a two-phase apply:
//! every shard first *dry-runs* its sub-batch against `&self`
//! (`prepare_delta_batch` — unknown relations, arities, and the
//! negative-multiplicity rule), in shard order, and only when **all**
//! shards validate does any shard mutate (`apply_prepared`, which is
//! infallible by construction). A batch that over-deletes on shard 3
//! leaves shards 0–2 untouched; one that over-deletes on shards 1 and 3
//! reports shard 1's tuple.
//!
//! Components without a root variable (single nullary atoms) and relation
//! symbols whose occurrences would require two different routing columns
//! cannot be hash-partitioned; the former are pinned to shard 0 (sound
//! under per-component merging), the latter collapse the engine to a
//! single shard ([`ShardedEngine::num_shards`] reports the effective
//! count).

use std::sync::{Arc, OnceLock};

use ivme_data::{DeltaBatch, Tuple, Update, Value};
use ivme_query::Query;

use crate::database::Database;
use crate::engine::{EngineError, EngineOptions, EngineStats, IvmEngine, UpdateError};
use crate::enumerate::{product_size, FreezeSink};
use crate::shard::{Route, ShardRouter};

#[cfg(test)]
thread_local! {
    /// Overlap settlements this thread ran ([`FrozenComponent::settle`] on
    /// a component with buckets) — test support for pinning when, and how
    /// often, a frozen component is settled.
    static SETTLES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Upper bound on the shard count. Every shard is a complete
/// [`IvmEngine`] with its own views and indexes, so a count passed to
/// [`ShardedEngine::new`] must not be able to multiply the engine's fixed
/// memory without bound. Only Rust callers of this crate reach it: no
/// command, file or socket names a shard count.
pub const MAX_SHARDS: usize = 64;

/// `S` independent [`IvmEngine`]s over a hash-partitioned database.
pub struct ShardedEngine {
    query: Query,
    router: ShardRouter,
    shards: Vec<IvmEngine>,
    /// Per-component cross-shard merge cache behind
    /// [`ShardedEngine::snapshot`]: each slot holds the merged distinct
    /// result of one component together with the per-shard component
    /// versions it was built from. `apply_prepared` bumps a shard's
    /// component version only when a batch touches one of the component's
    /// relations, so successive snapshots re-merge only the components
    /// that actually changed.
    merge_cache: Vec<Option<CachedMerge>>,
    /// Batches applied through this engine (per-shard counters see only
    /// their sub-batches).
    batches: u64,
    /// Single-tuple updates folded into those batches.
    updates: u64,
}

impl ShardedEngine {
    /// Compiles `query`, hash-partitions `db` into `num_shards` shards on
    /// each component's root variable, and preprocesses the shards one
    /// after another. `num_shards` is clamped to `1..=`[`MAX_SHARDS`]; queries
    /// with a relation symbol that cannot be routed consistently fall back
    /// to one shard.
    pub fn new(
        query: &Query,
        db: &Database,
        opts: EngineOptions,
        num_shards: usize,
    ) -> Result<ShardedEngine, EngineError> {
        // Arity errors must surface before routing projects key columns.
        for atom in &query.atoms {
            db.check_arity(&atom.relation, &atom.schema)
                .map_err(EngineError::Arity)?;
        }
        let router = Self::build_router(query, opts, num_shards)?;
        // One shard preprocesses `db` itself: there is nothing to split.
        let built = if router.num_shards() == 1 {
            vec![IvmEngine::new(query, db, opts)?]
        } else {
            Self::split_database(query, db, &router)
                .iter()
                .map(|sub| IvmEngine::new(query, sub, opts))
                .collect::<Result<Vec<_>, _>>()?
        };
        let ncomp = built[0].num_components();
        Ok(ShardedEngine {
            query: query.clone(),
            router,
            shards: built,
            merge_cache: (0..ncomp).map(|_| None).collect(),
            batches: 0,
            updates: 0,
        })
    }

    /// Convenience: parse, compile, and preprocess in one call.
    pub fn from_sql(
        src: &str,
        db: &Database,
        opts: EngineOptions,
        num_shards: usize,
    ) -> Result<ShardedEngine, String> {
        let q = ivme_query::parse_query(src).map_err(|e| e.to_string())?;
        ShardedEngine::new(&q, db, opts, num_shards).map_err(|e| e.to_string())
    }

    /// Routing table for `query` over `num_shards` shards: every relation
    /// of a rooted component hashes its root column, nullary-atom
    /// components are pinned to shard 0, and routing conflicts collapse to
    /// a single shard.
    fn build_router(
        query: &Query,
        opts: EngineOptions,
        num_shards: usize,
    ) -> Result<ShardRouter, EngineError> {
        let plan = ivme_plan::compile(query, opts.mode).map_err(EngineError::NotHierarchical)?;
        let mut router = ShardRouter::new(num_shards.clamp(1, MAX_SHARDS));
        let mut consistent = true;
        'components: for comp in &plan.components {
            match comp.root_var {
                Some(_) => {
                    for (&a, &pos) in comp.atoms.iter().zip(&comp.root_pos) {
                        let rel = &query.atoms[a].relation;
                        if !router.register(rel, Route::Column(pos)) {
                            consistent = false;
                            break 'components;
                        }
                    }
                }
                None => {
                    for &a in &comp.atoms {
                        router.pin(&query.atoms[a].relation);
                    }
                }
            }
        }
        if !consistent {
            // A symbol needs two different columns (it joins through two
            // different variables across its occurrences): no per-tuple
            // assignment preserves all joins, so run unsharded.
            router = ShardRouter::new(1);
            for atom in &query.atoms {
                router.pin(&atom.relation);
            }
        }
        Ok(router)
    }

    /// Partitions the query's relations of `db` by the router (relations
    /// the query never mentions are dropped, as `IvmEngine::new` ignores
    /// them too).
    fn split_database(query: &Query, db: &Database, router: &ShardRouter) -> Vec<Database> {
        let mut subs: Vec<Database> = (0..router.num_shards()).map(|_| Database::new()).collect();
        let mut seen: Vec<&str> = Vec::new();
        for atom in &query.atoms {
            let name = atom.relation.as_str();
            if seen.contains(&name) {
                continue;
            }
            seen.push(name);
            for (t, m) in db.rows(name) {
                let s = router.shard_of(name, &t).unwrap_or(0);
                subs[s].insert(name, t, m);
            }
        }
        subs
    }

    /// The compiled query.
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// Effective number of shards (1 when the query is unshardable).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Read access to one shard's engine (diagnostics and tests).
    pub fn shard(&self, s: usize) -> &IvmEngine {
        &self.shards[s]
    }

    /// The shard owning `tuple` of `relation` (`None` for relations the
    /// query does not mention). A wrong-arity tuple answers shard 0; asking
    /// counts no misroute — only a routed batch does.
    pub fn shard_of(&self, relation: &str, tuple: &Tuple) -> Option<usize> {
        self.router.shard_of(relation, tuple)
    }

    /// Total database size `N` across shards (distinct stored base tuples).
    pub fn db_size(&self) -> usize {
        self.shards.iter().map(IvmEngine::db_size).sum()
    }

    /// Per-shard database sizes.
    pub fn shard_sizes(&self) -> Vec<usize> {
        self.shards.iter().map(IvmEngine::db_size).collect()
    }

    /// `(relation, distinct tuples)` per distinct relation symbol, summed
    /// over the shards (the `stats` view).
    fn relation_sizes(&self) -> Vec<(String, usize)> {
        let mut sizes = self.shards[0].base_relation_sizes();
        for eng in &self.shards[1..] {
            for (total, (_, n)) in sizes.iter_mut().zip(eng.base_relation_sizes()) {
                total.1 += n;
            }
        }
        sizes
    }

    /// Aggregated maintenance counters: batches/updates as seen by *this*
    /// engine, rebalancing summed over shards, misroutes from the router
    /// (wrong-arity tuples that fell to shard 0 — a persistent non-zero
    /// count means a client keeps sending malformed tuples).
    pub fn stats(&self) -> EngineStats {
        let mut out = EngineStats {
            updates: self.updates,
            batches: self.batches,
            misroutes: self.router.misroutes(),
            ..EngineStats::default()
        };
        for s in &self.shards {
            let st = s.stats();
            out.major_rebalances += st.major_rebalances;
            out.minor_rebalances += st.minor_rebalances;
        }
        out
    }

    /// Exports every shard's base relations into one consolidated
    /// [`Database`] — the input half of a durable snapshot. Feeding the
    /// result back through [`ShardedEngine::new`] rebuilds an engine with
    /// the same served result (shard placement may differ if the shard
    /// count changes, which is fine: routing is content-addressed).
    pub fn export_database(&self) -> Database {
        let mut db = Database::new();
        for s in &self.shards {
            s.export_base_relations(&mut db);
        }
        db
    }

    /// Seeds the cumulative counters from recovered values. Called once
    /// right after a checkpoint rebuild so `stats` reflects lifetime totals
    /// rather than restarting from zero. Rebalance counters are *not*
    /// restored: the rebuild re-preprocesses from scratch, so its shards
    /// genuinely have fresh rebalance histories; nor are misroutes, which
    /// only a split across shards counts.
    pub fn restore_stats(&mut self, updates: u64, batches: u64) {
        self.updates = updates;
        self.batches = batches;
    }

    // ------------------------------------------------------------------
    // Updates
    // ------------------------------------------------------------------

    /// Applies a single-tuple update as a batch of one, as
    /// [`IvmEngine::apply_update`] does.
    pub fn apply_update(
        &mut self,
        relation: &str,
        tuple: Tuple,
        delta: i64,
    ) -> Result<(), UpdateError> {
        let mut batch = DeltaBatch::new();
        batch.push(relation, tuple, delta);
        self.apply_delta_batch(&batch)
    }

    /// Convenience insert of a unit-multiplicity tuple.
    pub fn insert(&mut self, relation: &str, tuple: Tuple) -> Result<(), UpdateError> {
        self.apply_update(relation, tuple, 1)
    }

    /// Convenience delete of a unit-multiplicity tuple.
    pub fn delete(&mut self, relation: &str, tuple: Tuple) -> Result<(), UpdateError> {
        self.apply_update(relation, tuple, -1)
    }

    /// Applies a batch of single-tuple updates as one maintenance round —
    /// the sharded form of [`IvmEngine::apply_batch`].
    pub fn apply_batch(&mut self, updates: &[Update]) -> Result<(), UpdateError> {
        let batch = DeltaBatch::from_updates(updates);
        self.apply_delta_batch(&batch)
    }

    /// Applies a pre-consolidated batch in two phases, one shard after
    /// another on the caller's thread: every shard's part of the router's
    /// split is validated first, and only when all of them validate does
    /// any shard apply its own. Rejection is atomic across shards — if any
    /// shard's part is invalid, no shard changes state, and the error is
    /// the lowest such shard's.
    pub fn apply_delta_batch(&mut self, batch: &DeltaBatch) -> Result<(), UpdateError> {
        let split;
        // A batch whose deltas summed past `i64` goes whole to shard 0,
        // which refuses it: a split would lose the mark.
        let parts = if self.shards.len() == 1 || batch.overflow().is_some() {
            std::slice::from_ref(batch)
        } else {
            split = self.router.split(batch);
            &split[..]
        };
        // Shard 0 validates even an empty part, so an empty batch is
        // refused in static mode exactly as unsharded.
        let mut prepared = Vec::with_capacity(parts.len());
        for (s, (eng, part)) in self.shards.iter().zip(parts).enumerate() {
            if s == 0 || !part.is_empty() {
                prepared.push((s, eng.prepare_delta_batch(part)?));
            }
        }
        for (s, p) in prepared {
            self.shards[s].apply_prepared(p);
        }
        self.updates += batch.cardinality() as u64;
        self.batches += 1;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Freezing: the one read door
    // ------------------------------------------------------------------

    /// One component's frozen result, through its cache slot: re-frozen
    /// only when some shard's version for it moved since the cached
    /// freeze was built, otherwise a version compare plus an `Arc` clone.
    ///
    /// Every shard's [`IvmEngine::freeze_component`] feeds one
    /// [`Freezer`]: the flat trees into one table, every live heavy key's
    /// factors into a bucket of their own. The flat table is pre-sized
    /// from the slot's previous freeze — its order is the drain's, so its
    /// capacity history cannot show.
    fn frozen_component(&mut self, ci: usize) -> Arc<FrozenComponent> {
        let versions: Vec<u64> = self
            .shards
            .iter()
            .map(|s| s.component_version(ci))
            .collect();
        let mut expect = 0;
        if let Some(c) = &self.merge_cache[ci] {
            if c.versions == versions {
                return Arc::clone(&c.merged);
            }
            expect = c.merged.flat.len();
        }
        let first = &self.shards[0];
        let mut freezer = Freezer::new(
            first.component_out_positions(ci).to_vec(),
            first
                .component_factor_positions(ci)
                .into_iter()
                .map(<[usize]>::to_vec)
                .collect(),
            expect,
        );
        for shard in &self.shards {
            shard.freeze_component(ci, &mut freezer);
        }
        let merged = Arc::new(freezer.finish());
        self.merge_cache[ci] = Some(CachedMerge {
            versions,
            merged: Arc::clone(&merged),
        });
        merged
    }

    /// Freezes the current result into an immutable, self-contained
    /// [`ShardedSnapshot`] — the engine's only read door. The snapshot
    /// answers enumerate/count/multiplicity/page/result_sorted plus the
    /// stats the serving layer reports, without the engine and without
    /// any locking. Built from the merge cache, so the cost is the freeze
    /// of the changed components: their flat trees' occurrences plus
    /// their live heavy keys' groups, never a heavy bucket's product, and
    /// never the overlap settlement, which the first positional read of a
    /// component pays (module docs). Components untouched since the last
    /// snapshot are shared by `Arc` clone, not rebuilt, and a quiescent
    /// engine pays `O(#components)`.
    /// Enumeration order within a component is the flat part in the order
    /// its rows first occurred, then the buckets (module docs). Freezing
    /// is something only the engine's single owner does, hence
    /// `&mut self`.
    ///
    /// `epoch` is caller-assigned (the serving layer's publish counter,
    /// the shell's refresh counter); it is echoed by
    /// [`ShardedSnapshot::epoch`] and surfaced in `stats` output so
    /// clients can observe snapshot turnover.
    pub fn snapshot(&mut self, epoch: u64) -> ShardedSnapshot {
        let comps = (0..self.merge_cache.len())
            .map(|ci| self.frozen_component(ci))
            .collect();
        ShardedSnapshot {
            epoch,
            free_arity: self.query.free.arity(),
            comps,
            stats: self.stats(),
            db_size: self.db_size(),
            relation_sizes: self.relation_sizes(),
        }
    }

    /// Validates every shard's internal invariants — test support.
    pub fn check_consistency(&self) -> Result<(), String> {
        for (s, eng) in self.shards.iter().enumerate() {
            eng.check_consistency()
                .map_err(|e| format!("shard {s}: {e}"))?;
        }
        Ok(())
    }
}

// The serving layer (`ivme-server`) publishes `ShardedSnapshot`s across
// reader threads and the group-commit writer owns the `ShardedEngine`
// itself, so `Send + Sync` is load-bearing API: every field is owned
// data, the merge cache holds `Arc`'d merged components, and nothing
// holds `Rc`/`RefCell`/raw pointers. This assertion turns an accidental
// future regression (e.g. an `Rc` slipping into the enumeration
// machinery) into a compile error here instead of a trait-bound error
// three crates away.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ShardedEngine>();
    assert_send_sync::<IvmEngine>();
    assert_send_sync::<ShardedSnapshot>();
};

/// A build-once summing table: the flat part of a frozen component, and
/// each factor of a bucket.
///
/// Each distinct row is held once, in the order it was first added: its
/// values in `values`, strided by the arity (row `i` is
/// `values[i·a..(i+1)·a]`), its summed multiplicity in `mults[i]`. A table
/// of arity 0 has at most one (empty) row, so the row count is
/// `mults.len()` and nothing divides by the arity. `slots` is a
/// power-of-two open-addressing index over the rows (linear probing, load
/// at most 7/8) for `add`'s duplicate check and the frozen view's point
/// lookups. A slot is chosen by the **high** bits of the row's
/// [`Tuple::hash_of`] (Fx's low bits are weak), carries the low 32 bits
/// as a tag, and every tag match is confirmed by full value equality.
/// Because a row hashes like the tuple of its values, a probe built as a
/// `Tuple` uses its cached hash as is.
///
/// PR 2 rejected a hand-rolled table for `Relation`, which is mutated
/// and probed per update for its whole life. This one is not that: it is
/// written once by one freeze, is an index only (the rows live in the
/// flat arrays), never deletes, and is immutable behind an `Arc`
/// afterwards — and a `HashMap` cannot give the insertion order that
/// makes the enumeration order independent of capacity.
struct MergedComponent {
    /// Values per row.
    arity: usize,
    /// The distinct rows' values, `arity` per row, in first-occurrence
    /// order.
    values: Vec<Value>,
    /// Summed multiplicity of each row.
    mults: Vec<i64>,
    /// Empty, or a power of two ≥ [`MIN_SLOTS`] with at least one slot in
    /// eight empty (so every probe ends).
    slots: Vec<Slot>,
}

/// One entry of [`MergedComponent::slots`].
#[derive(Clone, Copy)]
struct Slot {
    /// Index of a row, or [`Slot::EMPTY`]'s.
    index: u32,
    /// Low 32 bits of the indexed row's hash.
    tag: u32,
}

impl Slot {
    const EMPTY: Slot = Slot {
        index: u32::MAX,
        tag: 0,
    };

    /// The slot for row `index`, whose hash is `hash`.
    fn of(index: usize, hash: u64) -> Slot {
        let index = u32::try_from(index)
            .ok()
            .filter(|&i| i != Slot::EMPTY.index)
            .expect("a merged component holds fewer than 2^32 - 1 rows");
        Slot {
            index,
            tag: hash as u32,
        }
    }
}

/// Smallest allocated slot array (the home-slot shift needs ≥ 2).
const MIN_SLOTS: usize = 8;

impl MergedComponent {
    /// An empty table that takes `expect` distinct rows without growing.
    /// The row arrays hold as many rows as the slots index before they
    /// double, so a merge a little larger than the last one reallocates
    /// nothing.
    fn with_capacity(arity: usize, expect: usize) -> MergedComponent {
        let slots = match expect {
            0 => 0,
            n => (n * 8).div_ceil(7).next_power_of_two().max(MIN_SLOTS),
        };
        let rows = slots / 8 * 7;
        MergedComponent {
            arity,
            values: Vec::with_capacity(rows * arity),
            mults: Vec::with_capacity(rows),
            slots: vec![Slot::EMPTY; slots],
        }
    }

    /// Number of distinct rows.
    fn len(&self) -> usize {
        self.mults.len()
    }

    /// The values of row `i`.
    fn row(&self, i: usize) -> &[Value] {
        &self.values[i * self.arity..(i + 1) * self.arity]
    }

    /// Walks `hash`'s probe sequence to the slot indexing a row that
    /// `found` accepts (`Ok`: the row's index) or to the first empty slot
    /// (`Err`: its position). `slots` must not be empty.
    fn probe(&self, hash: u64, mut found: impl FnMut(&[Value]) -> bool) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let mut at = (hash >> (64 - self.slots.len().trailing_zeros())) as usize;
        loop {
            let slot = self.slots[at];
            if slot.index == Slot::EMPTY.index {
                return Err(at);
            }
            if slot.tag == hash as u32 && found(self.row(slot.index as usize)) {
                return Ok(slot.index as usize);
            }
            at = (at + 1) & mask;
        }
    }

    /// Replaces `slots` with `len` empty ones and indexes every row.
    fn reindex(&mut self, len: usize) {
        self.slots.clear();
        self.slots.resize(len, Slot::EMPTY);
        for index in 0..self.len() {
            let hash = Tuple::hash_of(self.row(index));
            let at = self
                .probe(hash, |_| false)
                .expect_err("nothing is accepted");
            self.slots[at] = Slot::of(index, hash);
        }
    }

    /// One occurrence: `+= m` on the row's entry; on first sight the
    /// values are copied in and the row appended. Returns the row's index.
    fn add(&mut self, row: &[Value], m: i64) -> usize {
        self.add_hashed(row, Tuple::hash_of(row), m)
    }

    /// [`MergedComponent::add`] for a row whose hash is known.
    fn add_hashed(&mut self, row: &[Value], hash: u64, m: i64) -> usize {
        debug_assert_eq!(row.len(), self.arity);
        debug_assert_eq!(hash, Tuple::hash_of(row));
        if (self.len() + 1) * 8 > self.slots.len() * 7 {
            self.reindex((self.slots.len() * 2).max(MIN_SLOTS));
        }
        match self.probe(hash, |held| held == row) {
            Ok(index) => {
                self.mults[index] = self.mults[index].saturating_add(m);
                index
            }
            Err(at) => {
                let index = self.len();
                self.slots[at] = Slot::of(index, hash);
                self.values.extend_from_slice(row);
                self.mults.push(m);
                index
            }
        }
    }

    /// Drops the rows whose occurrences summed to zero, compacting in
    /// place; the rest keep their order.
    fn drop_zero_sums(&mut self) {
        let Some(first) = self.mults.iter().position(|&m| m == 0) else {
            return;
        };
        let a = self.arity;
        let mut kept = first;
        for i in first + 1..self.len() {
            if self.mults[i] != 0 {
                self.mults[kept] = self.mults[i];
                for j in 0..a {
                    self.values.swap(kept * a + j, i * a + j);
                }
                kept += 1;
            }
        }
        self.mults.truncate(kept);
        self.values.truncate(kept * a);
        self.reindex(self.slots.len());
    }

    /// Empties the table, keeping its allocations.
    fn clear(&mut self) {
        self.values.clear();
        self.mults.clear();
        self.slots.clear();
    }

    /// The index of the row holding `values`.
    fn find(&self, values: &[Value]) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        self.probe(Tuple::hash_of(values), |held| held == values)
            .ok()
    }

    /// Summed multiplicity of `t` (0 when absent).
    fn get(&self, t: &Tuple) -> i64 {
        if self.slots.is_empty() {
            return 0;
        }
        self.probe(t.cached_hash(), |held| held == t.values())
            .map_or(0, |index| self.mults[index])
    }
}

/// `row`'s values at `cols`: borrowed from `row` when the columns are
/// consecutive, otherwise staged in `out`.
fn project<'a>(row: &'a [Value], cols: &[usize], out: &'a mut Vec<Value>) -> &'a [Value] {
    // `cols` ascend, so they are consecutive exactly when they span as
    // many columns as they name.
    match (cols.first(), cols.last()) {
        (Some(&first), Some(&last)) if last - first + 1 == cols.len() => &row[first..=last],
        (None, _) | (_, None) => &[],
        _ => {
            out.clear();
            out.extend(cols.iter().map(|&c| row[c].clone()));
            out
        }
    }
}

/// One component of a frozen result, held the way the engine holds it
/// (module docs), in two layers.
///
/// * The **parts**, which the writer freezes: `flat` sums the rows of the
///   trees the engine materializes, each of `buckets` keeps one live heavy
///   key's factors, whose product is never formed, and `keys`, `heads`
///   and `holders` index the buckets by their key factor's rows. A
///   lookup needs nothing more ([`FrozenComponent::get`]).
/// * The **settled** layer ([`Settled`]): where each tuple lives, which a
///   positional read needs. It is built on the first such read of this
///   component version ([`FrozenComponent::settled`]), on the reader's
///   thread, and every snapshot holding the component's `Arc` shares it.
struct FrozenComponent {
    /// Positions of the component's variables in the query's free schema.
    positions: Vec<usize>,
    /// The flat trees' rows, in the order they first occurred, each with
    /// its multiplicity summed over the flat trees alone.
    flat: MergedComponent,
    /// Per factor: the free positions it binds.
    factor_positions: Vec<Vec<usize>>,
    /// Per factor: its columns within a row of `flat`.
    factor_cols: Vec<Vec<usize>>,
    /// The factor the bucket index is keyed on: the first that binds a
    /// variable (0 when none does — an arity-0 factor is a scalar).
    key: usize,
    /// In shard order, each shard's live heavy keys in storage order.
    buckets: Vec<Bucket>,
    /// The key factor's distinct rows over every bucket (`mults` counts
    /// the buckets holding each).
    keys: MergedComponent,
    /// `holders[heads[k]..heads[k + 1]]`: the `(bucket, row of its key
    /// factor)` pairs holding key row `k`, in bucket order.
    heads: Vec<usize>,
    holders: Vec<(usize, usize)>,
    /// Where each tuple lives, once a positional read asked.
    settled: OnceLock<Settled>,
}

/// One live heavy key of a frozen component.
struct Bucket {
    /// One summed group per child of the indicator node, in child order;
    /// none is empty.
    factors: Vec<MergedComponent>,
    /// `Π |factor|`, saturating at `u128::MAX`.
    size: u128,
}

/// Where each tuple of one frozen component lives: what
/// [`FrozenComponent::settle`] builds from the parts, without changing
/// them.
///
/// **Invariant:** a distinct tuple lives in exactly one place — a row of
/// the *flat part* (`flat`'s rows, then `only`'s), or one position of one
/// bucket. A tuple that two or more parts produce is a row of the flat
/// part with the multiplicity summed over all of them, and every bucket
/// producing it lists that position as shared and skips it.
///
/// It is sized by what settling finds, not by `flat`: only the rows of
/// `flat` that a bucket also produces get an entry.
struct Settled {
    /// The rows of `flat` that a bucket also produces, ascending, each
    /// with its multiplicity summed over every part producing it; every
    /// other row of `flat` keeps its own.
    summed: Vec<(usize, i64)>,
    /// The tuples only buckets share, in the order they were found, with
    /// their summed multiplicities.
    only: MergedComponent,
    /// Per bucket: the ascending row-major positions (first factor
    /// outermost) of its tuples that live in the flat part.
    shared: Vec<Vec<u128>>,
    /// Per bucket: the distinct tuples enumerated before it, saturating.
    starts: Vec<u128>,
    /// Distinct tuples, saturating.
    len: u128,
}

impl Settled {
    /// Tuples enumerated from bucket `b` of `buckets`.
    fn visible(&self, buckets: &[Bucket], b: usize) -> u128 {
        buckets[b].size - self.shared[b].len() as u128
    }

    /// Records bucket `b`'s tuple at `digits` as living in the flat part
    /// and returns its multiplicity there.
    fn share(&mut self, bucket: &Bucket, b: usize, digits: &[usize]) -> i64 {
        self.shared[b].extend(bucket.position(digits));
        bucket.mult(digits)
    }
}

impl Bucket {
    /// The multiplicity in this bucket of the component row `row`, whose
    /// projection on the key factor is that factor's row `r`: every other
    /// factor is probed with its columns (`cols`), and `found(f, d)` told
    /// each row `d` found. `None` when a factor lacks its part.
    fn locate(
        &self,
        row: &[Value],
        cols: &[Vec<usize>],
        (key, r): (usize, usize),
        scratch: &mut Vec<Value>,
        mut found: impl FnMut(usize, usize),
    ) -> Option<i64> {
        let mut m = self.factors[key].mults[r];
        for (f, factor) in self.factors.iter().enumerate() {
            if f != key {
                let d = factor.find(project(row, &cols[f], scratch))?;
                found(f, d);
                m = m.saturating_mul(factor.mults[d]);
            }
        }
        Some(m)
    }

    /// The multiplicity of the tuple at the factor rows `digits`,
    /// saturating.
    fn mult(&self, digits: &[usize]) -> i64 {
        self.factors
            .iter()
            .zip(digits)
            .fold(1i64, |m, (f, &d)| m.saturating_mul(f.mults[d]))
    }

    /// Tuples per row of factor `key`: the product of the others' sizes,
    /// saturating.
    fn size_without(&self, key: usize) -> u128 {
        self.factors
            .iter()
            .enumerate()
            .filter(|&(f, _)| f != key)
            .fold(1u128, |n, (_, f)| n.saturating_mul(f.len() as u128))
    }

    /// The row-major position of the factor rows `digits`, or `None`
    /// past `u128::MAX` — where no walk and no `usize` offset can reach.
    fn position(&self, digits: &[usize]) -> Option<u128> {
        self.factors
            .iter()
            .zip(digits)
            .try_fold(0u128, |p, (f, &d)| {
                p.checked_mul(f.len() as u128)?.checked_add(d as u128)
            })
    }
}

/// Collects one component's freeze from every shard ([`FreezeSink`]),
/// then indexes it into a [`FrozenComponent`]'s parts
/// ([`Freezer::finish`]).
struct Freezer {
    positions: Vec<usize>,
    factor_positions: Vec<Vec<usize>>,
    flat: MergedComponent,
    buckets: Vec<Vec<MergedComponent>>,
}

impl FreezeSink for Freezer {
    fn flat(&mut self, row: &[Value], hash: u64, m: i64) {
        self.flat.add_hashed(row, hash, m);
    }

    fn bucket(&mut self) {
        let factors = self
            .factor_positions
            .iter()
            .map(|p| MergedComponent::with_capacity(p.len(), 0))
            .collect();
        self.buckets.push(factors);
    }

    fn factor(&mut self, f: usize, row: &[Value], m: i64) {
        let bucket = self.buckets.last_mut().expect("a bucket is open");
        bucket[f].add(row, m);
    }
}

impl Freezer {
    /// An empty freeze of a component emitting `positions` whose buckets'
    /// factors bind `factor_positions`, its flat part sized for `expect`
    /// rows.
    fn new(positions: Vec<usize>, factor_positions: Vec<Vec<usize>>, expect: usize) -> Freezer {
        Freezer {
            flat: MergedComponent::with_capacity(positions.len(), expect),
            positions,
            factor_positions,
            buckets: Vec::new(),
        }
    }

    /// Drops the rows that summed to zero and the buckets left empty, and
    /// indexes the buckets by their key factor's rows. Nothing is settled
    /// here: that waits for the component's first positional read.
    fn finish(self) -> FrozenComponent {
        let Freezer {
            positions,
            factor_positions,
            mut flat,
            buckets,
        } = self;
        flat.drop_zero_sums();
        let factor_cols = factor_positions
            .iter()
            .map(|fp| {
                let col = |p| positions.iter().position(|q| q == p);
                fp.iter()
                    .map(|p| col(p).expect("a component variable"))
                    .collect()
            })
            .collect();
        let key = factor_positions
            .iter()
            .position(|p| !p.is_empty())
            .unwrap_or(0);
        let buckets: Vec<Bucket> = buckets
            .into_iter()
            .filter_map(|mut factors| {
                factors.iter_mut().for_each(MergedComponent::drop_zero_sums);
                if factors.iter().any(|f| f.len() == 0) {
                    return None;
                }
                let size = factors
                    .iter()
                    .try_fold(1u128, |n, f| n.checked_mul(f.len() as u128))
                    .unwrap_or(u128::MAX);
                Some(Bucket { factors, size })
            })
            .collect();

        // The index: key rows numbered in first-occurrence order, their
        // holders grouped per row, in bucket order.
        let key_arity = factor_positions.get(key).map_or(0, Vec::len);
        let key_rows = buckets.iter().map(|b| b.factors[key].len()).sum();
        let mut keys = MergedComponent::with_capacity(key_arity, key_rows);
        let mut ids = Vec::with_capacity(key_rows);
        for (b, bucket) in buckets.iter().enumerate() {
            let f = &bucket.factors[key];
            ids.extend((0..f.len()).map(|r| (keys.add(f.row(r), 1), b, r)));
        }
        let mut heads = vec![0; keys.len() + 1];
        for &(k, _, _) in &ids {
            heads[k + 1] += 1;
        }
        for k in 0..keys.len() {
            heads[k + 1] += heads[k];
        }
        let mut fill = heads.clone();
        let mut holders = vec![(0, 0); ids.len()];
        for (k, b, r) in ids {
            holders[fill[k]] = (b, r);
            fill[k] += 1;
        }

        FrozenComponent {
            positions,
            flat,
            factor_positions,
            factor_cols,
            key,
            buckets,
            keys,
            heads,
            holders,
            settled: OnceLock::new(),
        }
    }
}

impl FrozenComponent {
    /// The `(bucket, row of its key factor)` pairs holding key row `k`.
    fn holders(&self, k: usize) -> &[(usize, usize)] {
        &self.holders[self.heads[k]..self.heads[k + 1]]
    }

    /// The settled layer, built by the first caller
    /// ([`FrozenComponent::settle`]); callers racing it wait for that one
    /// settle and share its result.
    fn settled(&self) -> &Settled {
        self.settled.get_or_init(|| self.settle())
    }

    /// Rows of the flat part: `flat`'s, then the tuples only buckets
    /// share.
    fn flat_len(&self, s: &Settled) -> usize {
        self.flat.len() + s.only.len()
    }

    /// The flat-part row under `cur` and its multiplicity summed over
    /// every part producing it.
    fn flat_row<'a>(&'a self, s: &'a Settled, cur: &Cursor) -> (&'a [Value], i64) {
        let i = cur.row;
        match i.checked_sub(self.flat.len()) {
            None => match s.summed.get(cur.next_summed) {
                Some(&(r, m)) if r == i => (self.flat.row(i), m),
                _ => (self.flat.row(i), self.flat.mults[i]),
            },
            Some(j) => (s.only.row(j), s.only.mults[j]),
        }
    }

    /// Settles where every tuple a bucket produces lives, then counts the
    /// distinct tuples before each bucket. A tuple's key row is shared by
    /// every part producing it, so each key row is settled apart from the
    /// others, the cheaper of two ways ([`FrozenComponent::walks`]):
    ///
    /// * **probed and paired:** pass (i) probes each of its flat rows into
    ///   its holders, and on a hit adds that bucket's multiplicity to the
    ///   row and records the position as shared; pass (ii)
    ///   ([`FrozenComponent::share_pairs`]) intersects its holders pair by
    ///   pair for the tuples only buckets share;
    /// * **walked** ([`FrozenComponent::walk_key_rows`]): every holder's
    ///   tuples under the row are looked up among the flat rows and summed.
    ///
    /// A key row thus never costs more than [`WALK_COST`] times the
    /// occurrences a drain of its holders' products under it would push,
    /// plus one index probe per flat row. Without a bucket there is
    /// nothing to settle: only the count is taken.
    fn settle(&self) -> Settled {
        let mut s = Settled {
            summed: Vec::new(),
            only: MergedComponent::with_capacity(self.positions.len(), 0),
            shared: vec![Vec::new(); self.buckets.len()],
            starts: Vec::new(),
            len: 0,
        };
        if !self.buckets.is_empty() {
            #[cfg(test)]
            SETTLES.with(|n| n.set(n.get() + 1));
            self.share_overlaps(&mut s);
        }
        let mut len = self.flat_len(&s) as u128;
        for shared in &mut s.shared {
            shared.sort_unstable();
        }
        s.starts = (0..self.buckets.len())
            .map(|b| {
                let start = len;
                len = len.saturating_add(s.visible(&self.buckets, b));
                start
            })
            .collect();
        s.len = len;
        s
    }

    /// The overlap passes of [`FrozenComponent::settle`], into `s`.
    fn share_overlaps(&self, s: &mut Settled) {
        let mut scratch = Vec::new();
        // The rows of `flat` whose key row some bucket holds, with it.
        let mut flat_rows = vec![0; self.keys.len()];
        let keyed: Vec<(usize, usize)> = (0..self.flat.len())
            .filter_map(|i| {
                let key_row = project(self.flat.row(i), &self.factor_cols[self.key], &mut scratch);
                let k = self.keys.find(key_row)?;
                flat_rows[k] += 1;
                Some((i, k))
            })
            .collect();
        let (mut pairs, mut sizes) = (Vec::new(), Vec::new());
        let mut walked = vec![false; self.keys.len()];
        for (k, &n) in flat_rows.iter().enumerate() {
            walked[k] = self.walks(k, n, &mut sizes);
            if walked[k] {
                continue;
            }
            let group = self.holders(k);
            for (i, &(x, rx)) in group.iter().enumerate() {
                pairs.extend(group[i + 1..].iter().map(|&(y, ry)| (x, y, rx, ry)));
            }
        }
        // Pass (i).
        let mut digits = vec![0; self.factor_cols.len()];
        for &(i, k) in &keyed {
            if walked[k] {
                continue;
            }
            let row = self.flat.row(i);
            let mut extra = None;
            for &(b, r) in self.holders(k) {
                digits[self.key] = r;
                let bucket = &self.buckets[b];
                let found = |f, d| digits[f] = d;
                let cols = &self.factor_cols;
                if bucket
                    .locate(row, cols, (self.key, r), &mut scratch, found)
                    .is_some()
                {
                    let m = s.share(bucket, b, &digits);
                    extra = Some(extra.map_or(m, |e: i64| e.saturating_add(m)));
                }
            }
            s.summed.extend(extra.map(|m| (i, m)));
        }
        self.walk_key_rows(&walked, s);
        // Each row's buckets summed, plus its own multiplicity.
        s.summed.sort_unstable_by_key(|&(i, _)| i);
        s.summed.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                kept.1 = kept.1.saturating_add(later.1);
            }
            same
        });
        for (i, m) in &mut s.summed {
            *m = m.saturating_add(self.flat.mults[*i]);
        }
        // Pass (ii).
        self.share_pairs(pairs, s);
    }

    /// Whether key row `k`, the key row of `flat_rows` flat rows, is
    /// walked: when its holders' tuples under it, at [`WALK_COST`] each,
    /// cost less than pass (i)'s probes (one per flat row and holder) plus
    /// pass (ii)'s (at most the smaller holder's tuples per pair). `sizes`
    /// is scratch.
    fn walks(&self, k: usize, flat_rows: usize, sizes: &mut Vec<u128>) -> bool {
        let group = self.holders(k);
        if group.len() < 2 && flat_rows == 0 {
            return false;
        }
        sizes.clear();
        sizes.extend(
            group
                .iter()
                .map(|&(b, _)| self.buckets[b].size_without(self.key)),
        );
        sizes.sort_unstable();
        let walking = sizes.iter().fold(0u128, |n, &s| n.saturating_add(s));
        let probing = sizes.iter().enumerate().fold(
            (flat_rows as u128).saturating_mul(group.len() as u128),
            |n, (i, &s)| n.saturating_add(s.saturating_mul((group.len() - 1 - i) as u128)),
        );
        walking.saturating_mul(WALK_COST) < probing
    }

    /// Walks every holder's tuples under each key row `k` with
    /// `walked[k]`. A tuple that is a row of `flat` gets the bucket's
    /// multiplicity and the position is recorded as shared, as pass (i)
    /// would; under a key row of two or more holders the others are summed
    /// in a scratch table, and those two or more buckets hold are appended
    /// to `s.only`, as pass (ii) would.
    fn walk_key_rows(&self, walked: &[bool], s: &mut Settled) {
        let nf = self.factor_cols.len();
        let (mut pick, mut digits) = (vec![0; nf], vec![0; nf]);
        let mut row = vec![Value::Int(0); self.positions.len()];
        let mut sums = MergedComponent::with_capacity(row.len(), 0);
        let (mut hits, mut held, mut holders_of) = (Vec::new(), Vec::new(), Vec::new());
        for k in (0..walked.len()).filter(|&k| walked[k]) {
            sums.clear();
            held.clear();
            hits.clear();
            let several = self.holders(k).len() > 1;
            for &(b, r) in self.holders(k) {
                let bucket = &self.buckets[b];
                let radix = |f: usize| {
                    if f == self.key {
                        1
                    } else {
                        bucket.factors[f].len()
                    }
                };
                pick.fill(0);
                loop {
                    for (f, factor) in bucket.factors.iter().enumerate() {
                        digits[f] = if f == self.key { r } else { pick[f] };
                        for (&c, v) in self.factor_cols[f].iter().zip(factor.row(digits[f])) {
                            row[c].clone_from(v);
                        }
                    }
                    let (m, p) = (bucket.mult(&digits), || bucket.position(&digits));
                    match self.flat.find(&row) {
                        Some(i) => hits.push((i, m, b, p())),
                        None if several => held.push((sums.add(&row, m), b, p())),
                        None => {}
                    }
                    if !odometer(&mut pick, radix) {
                        break;
                    }
                }
            }
            for &(i, m, b, p) in &hits {
                s.summed.push((i, m));
                s.shared[b].extend(p);
            }
            holders_of.clear();
            holders_of.resize(sums.len(), 0u32);
            for &(t, _, _) in &held {
                holders_of[t] += 1;
            }
            for (t, &n) in holders_of.iter().enumerate() {
                if n > 1 {
                    s.only.add(sums.row(t), sums.mults[t]);
                }
            }
            for &(t, b, p) in &held {
                if holders_of[t] > 1 {
                    s.shared[b].extend(p);
                }
            }
        }
    }

    /// Intersects `pairs` — `(x, y, row in x, row in y)` for key rows both
    /// buckets hold, `x < y` — sorted, so that each pair's other factors
    /// intersect once however many key rows it shares. A tuple is
    /// appended to `s.only` by the first pair of its smallest holder `x`,
    /// which the sort puts before every other pair holding it; `x`'s later
    /// pairs add their `y`, and pairs without `x` skip it.
    fn share_pairs(&self, mut pairs: Vec<(usize, usize, usize, usize)>, s: &mut Settled) {
        pairs.sort_unstable();
        let (nf, key) = (self.factor_cols.len(), self.key);
        // The walks' rows: no pair holds them.
        let mut first_holder = vec![usize::MAX; s.only.len()];
        let mut common: Vec<Vec<(usize, usize)>> = vec![Vec::new(); nf];
        let (mut pick, mut dx, mut dy) = (vec![0; nf], vec![0; nf], vec![0; nf]);
        let mut row = vec![Value::Int(0); self.positions.len()];
        for run in pairs.chunk_by(|p, q| (p.0, p.1) == (q.0, q.1)) {
            let (x, y) = (run[0].0, run[0].1);
            let (bx, by) = (&self.buckets[x], &self.buckets[y]);
            let mut disjoint = false;
            for (f, rows) in common.iter_mut().enumerate() {
                if f != key {
                    intersect(&bx.factors[f], &by.factors[f], rows);
                    disjoint |= rows.is_empty();
                }
            }
            if disjoint {
                continue;
            }
            for &(_, _, rx, ry) in run {
                common[key].clear();
                common[key].push((rx, ry));
                pick.fill(0);
                loop {
                    for (f, rows) in common.iter().enumerate() {
                        (dx[f], dy[f]) = rows[pick[f]];
                        for (&c, v) in self.factor_cols[f].iter().zip(bx.factors[f].row(dx[f])) {
                            row[c].clone_from(v);
                        }
                    }
                    // A row of `flat` was settled by pass (i).
                    if self.flat.find(&row).is_none() {
                        match s.only.find(&row) {
                            Some(i) => {
                                if first_holder[i] == x {
                                    let m = s.share(by, y, &dy);
                                    s.only.mults[i] = s.only.mults[i].saturating_add(m);
                                }
                            }
                            None => {
                                let m = s.share(bx, x, &dx).saturating_add(s.share(by, y, &dy));
                                s.only.add(&row, m);
                                first_holder.push(x);
                            }
                        }
                    }
                    if !odometer(&mut pick, |f| common[f].len()) {
                        break;
                    }
                }
            }
        }
    }
}

/// The rows `a` and `b` both hold, as `(index in a, index in b)` pairs
/// in `out`: the smaller table is walked, the larger probed.
fn intersect(a: &MergedComponent, b: &MergedComponent, out: &mut Vec<(usize, usize)>) {
    out.clear();
    if a.len() <= b.len() {
        out.extend((0..a.len()).filter_map(|i| Some((i, b.find(a.row(i))?))));
    } else {
        out.extend((0..b.len()).filter_map(|j| Some((a.find(b.row(j))?, j))));
    }
}

/// What walking one tuple under a key row costs, in probes. A walked
/// tuple is built, probed into the flat part and, under a key row of
/// several holders, summed; a probe of pass (i) is one factor lookup, and
/// pass (ii) intersects each pair of buckets once, however many key rows
/// the pair shares, so its per-row estimate runs high. Four is where the
/// two-path of `examples/profile_omv.rs --publish` stops walking key rows
/// that probing settles faster (ε = ½: none walked), while a hub key row
/// (`--publish-hub`) is still walked.
const WALK_COST: u128 = 4;

/// Advances the row-major odometer `digits` (last digit fastest, digit
/// `f` below `radix(f)`); `false` once it wraps to all zeros.
fn odometer(digits: &mut [usize], radix: impl Fn(usize) -> usize) -> bool {
    for f in (0..digits.len()).rev() {
        digits[f] += 1;
        if digits[f] < radix(f) {
            return true;
        }
        digits[f] = 0;
    }
    false
}

/// Where a walk of one frozen component stands: row `row` of the flat
/// part while `bucket` is `None`, otherwise position `pos` of that
/// bucket, whose factor rows are `digits`.
#[derive(Clone, Default)]
struct Cursor {
    bucket: Option<usize>,
    row: usize,
    digits: Vec<usize>,
    pos: u128,
    /// The first of the bucket's shared positions not before `pos`.
    next_shared: usize,
    /// In the flat part: the first of the summed rows not before `row`.
    next_summed: usize,
}

impl FrozenComponent {
    /// Factor rows the writer froze, over `flat` and every bucket (the
    /// settled layer's rows are not counted).
    fn stored_rows(&self) -> usize {
        let factors: usize = self
            .buckets
            .iter()
            .flat_map(|b| &b.factors)
            .map(MergedComponent::len)
            .sum();
        self.flat.len() + factors
    }

    /// Distinct tuples, saturating; settles.
    fn len(&self) -> u128 {
        self.settled().len
    }

    /// Points `cur` at the `k`-th distinct tuple; `false` past the end.
    /// `O(log #buckets + log |shared|)`, never `O(k)`, once settled.
    fn seek(&self, k: u128, cur: &mut Cursor) -> bool {
        let s = self.settled();
        if k >= s.len {
            return false;
        }
        if k < self.flat_len(s) as u128 {
            cur.bucket = None;
            cur.row = k as usize;
            cur.next_summed = s.summed.partition_point(|&(i, _)| i < cur.row);
            return true;
        }
        let b = s.starts.partition_point(|&start| start <= k) - 1;
        self.place(s, b, k - s.starts[b], cur);
        true
    }

    /// Points `cur` at bucket `b`'s `k`-th unshared position: `k` plus
    /// the number of shared positions before it, found by one binary
    /// search because `shared[i] − i` never decreases.
    fn place(&self, s: &Settled, b: usize, k: u128, cur: &mut Cursor) {
        let shared = &s.shared[b];
        let (mut lo, mut hi) = (0, shared.len());
        while lo < hi {
            let mid = (lo + hi) / 2;
            if shared[mid] - mid as u128 <= k {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        let mut rem = k + lo as u128;
        cur.bucket = Some(b);
        cur.pos = rem;
        cur.next_shared = lo;
        let factors = &self.buckets[b].factors;
        cur.digits.resize(factors.len(), 0);
        for (d, f) in cur.digits.iter_mut().zip(factors).rev() {
            let n = f.len() as u128;
            *d = (rem % n) as usize;
            rem /= n;
        }
    }

    /// Points `cur` at the first bucket from `b` on that enumerates
    /// anything; `false` when none does.
    fn enter(&self, s: &Settled, b: usize, cur: &mut Cursor) -> bool {
        match (b..self.buckets.len()).find(|&b| s.visible(&self.buckets, b) > 0) {
            Some(b) => {
                self.place(s, b, 0, cur);
                true
            }
            None => false,
        }
    }

    /// Moves `cur` to the next distinct tuple; `false` at the end.
    fn advance(&self, cur: &mut Cursor) -> bool {
        let s = self.settled();
        let Some(b) = cur.bucket else {
            if s.summed
                .get(cur.next_summed)
                .is_some_and(|&(i, _)| i == cur.row)
            {
                cur.next_summed += 1;
            }
            cur.row += 1;
            return cur.row < self.flat_len(s) || self.enter(s, 0, cur);
        };
        let factors = &self.buckets[b].factors;
        let shared = &s.shared[b];
        loop {
            if !odometer(&mut cur.digits, |f| factors[f].len()) {
                return self.enter(s, b + 1, cur);
            }
            cur.pos += 1;
            if shared.get(cur.next_shared) != Some(&cur.pos) {
                return true;
            }
            cur.next_shared += 1;
        }
    }

    /// Binds the tuple under `cur` in `buf` (indexed by the free schema)
    /// and returns its multiplicity.
    fn write(&self, cur: &Cursor, buf: &mut [Value]) -> i64 {
        let Some(b) = cur.bucket else {
            let (row, m) = self.flat_row(self.settled(), cur);
            for (&p, v) in self.positions.iter().zip(row) {
                buf[p].clone_from(v);
            }
            return m;
        };
        let mut m = 1i64;
        let factors = &self.buckets[b].factors;
        for ((f, &d), fp) in factors.iter().zip(&cur.digits).zip(&self.factor_positions) {
            for (&p, v) in fp.iter().zip(f.row(d)) {
                buf[p].clone_from(v);
            }
            m = m.saturating_mul(f.mults[d]);
        }
        m
    }

    /// Multiplicity of the component row `t` (0 when absent), read from
    /// the parts, so it never settles: its row of `flat`, plus its
    /// multiplicity in every bucket holding its key row, saturating. A
    /// lookup is one flat probe, one key probe and one [`Bucket::locate`]
    /// per holder of its key row — at most the number of buckets.
    fn get(&self, t: &Tuple) -> i64 {
        let own = self.flat.get(t);
        if self.buckets.is_empty() {
            return own;
        }
        let mut scratch = Vec::new();
        let key_row = project(t.values(), &self.factor_cols[self.key], &mut scratch);
        let Some(k) = self.keys.find(key_row) else {
            return own;
        };
        self.holders(k)
            .iter()
            .filter_map(|&(b, r)| {
                let cols = &self.factor_cols;
                self.buckets[b].locate(t.values(), cols, (self.key, r), &mut scratch, |_, _| {})
            })
            .fold(own, i64::saturating_add)
    }
}

/// An immutable, self-contained view of a [`ShardedEngine`]'s result at
/// one commit point: the lock-free serving read surface.
///
/// Every method takes `&self` and touches only owned/`Arc`-shared data —
/// no engine access — so an arbitrary number of reader threads can serve
/// `enumerate`/`count_distinct`/`multiplicity`/`enumerate_page`/
/// `result_sorted` from one snapshot while the writer mutates the engine
/// and publishes fresh snapshots. The one wait: readers racing the first
/// positional read of a component version wait for its one settle
/// (module docs). A snapshot is **frozen**: it answers every read with
/// the result as of capture time, forever, regardless of how many batches
/// commit after it.
///
/// Capture is cheap ([`ShardedEngine::snapshot`]): components untouched
/// since the previous capture are shared between snapshots by `Arc`
/// clone, and a changed one is frozen in the engine's own factorized
/// form and left unsettled, so a capture never costs `O(result)` for the
/// heavy buckets, nor a probe of the flat part into them.
pub struct ShardedSnapshot {
    epoch: u64,
    free_arity: usize,
    comps: Vec<Arc<FrozenComponent>>,
    stats: EngineStats,
    db_size: usize,
    relation_sizes: Vec<(String, usize)>,
}

impl ShardedSnapshot {
    /// The caller-assigned publish epoch this snapshot was captured at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Arity of the result schema.
    pub fn free_arity(&self) -> usize {
        self.free_arity
    }

    /// Engine maintenance counters as of the capture.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Total database size `N` as of the capture.
    pub fn db_size(&self) -> usize {
        self.db_size
    }

    /// `(relation, distinct tuples)` per distinct relation symbol as of
    /// the capture.
    pub fn relation_sizes(&self) -> &[(String, usize)] {
        &self.relation_sizes
    }

    /// Rows the writer froze into the snapshot: every component's flat-tree
    /// rows plus its buckets' factor rows, where the result has
    /// [`count_distinct`](Self::count_distinct) tuples. What a positional
    /// read settles later (the tuples only buckets share) is not counted.
    pub fn stored_rows(&self) -> usize {
        self.comps.iter().map(|c| c.stored_rows()).sum()
    }

    /// Enumerates the frozen result's distinct tuples with their
    /// multiplicities: the odometer product across the frozen components,
    /// each walked flat part first, then bucket by bucket through its
    /// factors, skipping the shared positions — no table probe, one
    /// `Tuple` built per item, `O(1)` to the first tuple once the
    /// components are settled (a positional read: the first settles).
    pub fn enumerate(&self) -> MergedResultIter {
        MergedResultIter::new(self.comps.clone(), self.free_arity)
    }

    /// Number of distinct result tuples in the frozen result: the product
    /// of the per-component distinct counts (`|M| + Σ (Π|F| − |shared|)`,
    /// so no product is walked), saturating at `usize::MAX`. A positional
    /// read: the first settles.
    pub fn count_distinct(&self) -> usize {
        product_size(
            self.comps
                .iter()
                .map(|c| usize::try_from(c.len()).unwrap_or(usize::MAX)),
        )
    }

    /// Multiplicity of one fully-specified result tuple in the frozen
    /// result: per component, a probe of the flat part plus the tuple's
    /// multiplicity in every bucket holding its key row, so it never
    /// settles; the product across components, saturating at `i64::MAX`.
    /// Wrong-arity tuples report 0.
    pub fn multiplicity(&self, tuple: &Tuple) -> i64 {
        if tuple.arity() != self.free_arity {
            return 0;
        }
        let mut total = 1i64;
        for c in &self.comps {
            let m = c.get(&tuple.project(&c.positions));
            if m == 0 {
                return 0;
            }
            total = total.saturating_mul(m);
        }
        total
    }

    /// Whether `tuple` is in the frozen result.
    pub fn contains(&self, tuple: &Tuple) -> bool {
        self.multiplicity(tuple) != 0
    }

    /// One page of the frozen result in enumeration order: skips `offset`,
    /// then collects up to `limit`. The seek is a mixed-radix split of
    /// `offset` over the components, then per component prefix counts
    /// and one binary search in a shared list — independent of `offset`.
    /// Page boundaries are stable for the lifetime of the snapshot by
    /// construction. A positional read: the first settles.
    pub fn enumerate_page(&self, offset: usize, limit: usize) -> Vec<(Tuple, i64)> {
        self.enumerate().page(offset, limit)
    }

    /// Collects and sorts the frozen result — test/bench helper.
    pub fn result_sorted(&self) -> Vec<(Tuple, i64)> {
        let mut out: Vec<(Tuple, i64)> = self.enumerate().collect();
        out.sort_unstable();
        out
    }
}

/// One merge-cache entry: a component's frozen result and the per-shard
/// component versions it reflects.
struct CachedMerge {
    versions: Vec<u64>,
    merged: Arc<FrozenComponent>,
}

/// Iterator over the frozen sharded result: Cartesian product across
/// components of the per-component frozen unions. Holds `Arc`s into the
/// merge cache, so iteration never copies the frozen arrays; each emitted
/// item is the one `Tuple` built from them.
pub struct MergedResultIter {
    comps: Vec<Arc<FrozenComponent>>,
    cursors: Vec<Cursor>,
    buf: Vec<Value>,
    /// Single component covering the whole free schema (the common case):
    /// a flat row is emitted straight from the table, with no buffer
    /// assembly.
    direct: bool,
    primed: bool,
    dead: bool,
}

impl MergedResultIter {
    fn new(comps: Vec<Arc<FrozenComponent>>, free_arity: usize) -> MergedResultIter {
        let n = comps.len();
        let mut cursors = vec![Cursor::default(); n];
        let dead = !comps
            .iter()
            .zip(&mut cursors)
            .all(|(c, cur)| c.seek(0, cur))
            || n == 0;
        let direct = n == 1
            && comps[0].positions.len() == free_arity
            && comps[0].positions.iter().enumerate().all(|(i, &p)| i == p);
        MergedResultIter {
            comps,
            cursors,
            buf: vec![Value::Int(0); free_arity],
            direct,
            primed: false,
            dead,
        }
    }

    /// Positions this fresh iterator so that the next emitted item is the
    /// `offset`-th result tuple (0-based, in enumeration order): one
    /// mixed-radix digit per component, each a frozen component's seek,
    /// regardless of `offset`. Returns `false` (and exhausts the
    /// iterator) when `offset` is past the end.
    pub fn seek(&mut self, offset: usize) -> bool {
        if self.dead {
            return false;
        }
        debug_assert!(!self.primed, "seek requires a fresh iterator");
        // Least-significant digit first (no component is empty here).
        // What is left over the leading digit is `offset / Π|C_i|` —
        // non-zero exactly when `offset` is past the end — without ever
        // forming the product, which ten components of 8,192 rows push
        // past `u128`.
        let mut rem = offset as u128;
        for (c, cur) in self.comps.iter().zip(&mut self.cursors).rev() {
            let n = c.len();
            c.seek(rem % n, cur);
            rem /= n;
        }
        if rem != 0 {
            self.dead = true;
        }
        !self.dead
    }

    /// One page from this fresh iterator: seeks to `offset`, collects up
    /// to `limit`.
    fn page(mut self, offset: usize, limit: usize) -> Vec<(Tuple, i64)> {
        if !self.seek(offset) {
            return Vec::new();
        }
        self.take(limit).collect()
    }
}

impl Iterator for MergedResultIter {
    type Item = (Tuple, i64);

    fn next(&mut self) -> Option<Self::Item> {
        if self.dead {
            return None;
        }
        if self.primed {
            // Odometer across components.
            let mut i = self.comps.len();
            loop {
                if i == 0 {
                    self.dead = true;
                    return None;
                }
                i -= 1;
                if self.comps[i].advance(&mut self.cursors[i]) {
                    break;
                }
                self.comps[i].seek(0, &mut self.cursors[i]);
            }
        }
        self.primed = true;
        if self.direct {
            let (c, cur) = (&self.comps[0], &self.cursors[0]);
            if cur.bucket.is_none() {
                let (values, m) = c.flat_row(c.settled(), cur);
                return Some((Tuple::from_slice(values), m));
            }
        }
        let mut mult = 1i64;
        for (c, cur) in self.comps.iter().zip(&self.cursors) {
            mult = mult.saturating_mul(c.write(cur, &mut self.buf));
        }
        Some((Tuple::from_slice(&self.buf), mult))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::brute_force;

    /// The deterministic form of what `fig_enum_delay` can only time:
    /// successive snapshots share every component no batch touched, and a
    /// held snapshot keeps answering with the result it froze.
    #[test]
    fn successive_snapshots_share_untouched_components() {
        let q = ivme_query::parse_query("Q(A,C) :- R(A,B), S(C)").unwrap();
        let mut db = Database::new();
        db.insert_ints("R", &[&[1, 10], &[2, 20], &[3, 30]]);
        db.insert_ints("S", &[&[7], &[8]]);
        let mut eng = ShardedEngine::new(&q, &db, EngineOptions::dynamic(0.5), 2).unwrap();
        assert_eq!(eng.num_shards(), 2);

        // Quiescent engine: every component is shared.
        let first = eng.snapshot(0);
        let second = eng.snapshot(1);
        assert_eq!(first.comps.len(), 2);
        for (a, b) in first.comps.iter().zip(&second.comps) {
            assert!(Arc::ptr_eq(a, b));
        }
        let before = first.result_sorted();
        assert_eq!(before, brute_force(&q, &db));

        // A batch into S only: R's component is shared, S's is re-merged.
        let s_comp = (0..2)
            .find(|&ci| eng.shard(0).component_out_positions(ci) == [1])
            .expect("S(C) emits free position 1");
        let mut batch = DeltaBatch::new();
        batch.push("S", Tuple::ints(&[9]), 1);
        eng.apply_delta_batch(&batch).unwrap();
        db.apply("S", Tuple::ints(&[9]), 1);
        let third = eng.snapshot(2);
        assert!(Arc::ptr_eq(
            &second.comps[1 - s_comp],
            &third.comps[1 - s_comp]
        ));
        assert!(!Arc::ptr_eq(&second.comps[s_comp], &third.comps[s_comp]));
        assert_eq!(third.result_sorted(), brute_force(&q, &db));

        // The older snapshots still enumerate the older result.
        assert_eq!(first.result_sorted(), before);
        assert_eq!(second.result_sorted(), before);
        assert_eq!(before.len() + 3, third.count_distinct());
    }

    /// Settles this thread has run.
    fn settles() -> u64 {
        SETTLES.with(|n| n.get())
    }

    /// A two-path over `R(A,B)`, `S(B,C)` (or any two relations) with the
    /// join values 1, 3 and 4 of `n + 1` `A`s and `C`s each, which all
    /// produce `(19, 59)`, and the light 2, which produces it too.
    fn shared_two_path(db: &mut Database, (r, s): (&str, &str), n: i64) {
        for b in [1, 3, 4] {
            let (a, c) = (100 * b, 100 * b + 50);
            put(
                db,
                b,
                &[(r, false, run(&[19], a, n)), (s, true, run(&[59], c, n))],
            );
        }
        put(db, 2, &[(r, false, vec![19, 7]), (s, true, vec![59, 8])]);
    }

    /// A publish settles nothing; a component version settles once, on
    /// its first positional read, and only if it has buckets. Lookups,
    /// later reads and components a batch left alone settle nothing.
    #[test]
    fn a_component_version_settles_once_on_its_first_positional_read() {
        let src = "Q(A,C,D,F,G) :- R(A,B), S(B,C), T(D,E), U(E,F), V(G)";
        let q = ivme_query::parse_query(src).unwrap();
        let mut db = Database::new();
        // A result of about 100 · 100 · 2 tuples, so heavy keys of six
        // tuples need a low threshold: ε = ¼.
        shared_two_path(&mut db, ("R", "S"), 5);
        shared_two_path(&mut db, ("T", "U"), 5);
        db.insert_ints("V", &[&[1], &[2]]);
        let mut eng = ShardedEngine::new(&q, &db, EngineOptions::dynamic(0.25), 1).unwrap();

        let at = settles();
        let snap = eng.snapshot(0);
        assert_eq!(settles(), at, "snapshot()");
        let with_buckets = snap.comps.iter().filter(|c| !c.buckets.is_empty());
        assert_eq!(with_buckets.count(), 2, "two two-paths with heavy keys");
        let probe = Tuple::ints(&[19, 59, 19, 59, 1]);
        assert_eq!(snap.multiplicity(&probe), 4 * 4);
        assert!(!snap.contains(&Tuple::ints(&[19, 59, 19, 59, 3])));
        assert_eq!(settles(), at, "multiplicity on a fresh snapshot");
        let n = snap.count_distinct();
        assert_eq!(settles(), at + 2, "first positional read");
        assert_eq!(snap.count_distinct(), n);
        assert_eq!(snap.enumerate().count(), n);
        assert_eq!(snap.enumerate_page(n - 2, 5).len(), 2);
        assert_eq!(snap.result_sorted(), brute_force(&q, &db));
        assert_eq!(snap.multiplicity(&probe), 4 * 4);
        assert_eq!(settles(), at + 2, "repeated reads");

        // A batch into R: only the R–S component is a new version.
        eng.insert("R", Tuple::ints(&[900, 1])).unwrap();
        db.apply("R", Tuple::ints(&[900, 1]), 1);
        let at = settles();
        let snap = eng.snapshot(1);
        assert_eq!(settles(), at, "snapshot() after a batch");
        assert_eq!(snap.enumerate_page(0, 3).len(), 3);
        assert_eq!(settles(), at + 1, "first positional read after a batch");

        // A batch into V: its component has no buckets to settle.
        eng.insert("V", Tuple::ints(&[3])).unwrap();
        db.apply("V", Tuple::ints(&[3]), 1);
        let at = settles();
        let snap = eng.snapshot(2);
        assert_eq!(snap.result_sorted(), brute_force(&q, &db));
        assert_eq!(settles(), at, "a component without buckets");
    }

    /// The answers to a reader's positional reads: `count`, a full
    /// enumeration, a page from the middle and the sorted result.
    type Reads = [Vec<(Tuple, i64)>; 4];

    /// Issues the reads of [`Reads`] on `snap`, read `first` first.
    fn positional_reads(snap: &ShardedSnapshot, first: usize) -> Reads {
        let mut out = Reads::default();
        for read in (0..4).map(|i| (first + i) % 4) {
            out[read] = match read {
                0 => vec![(Tuple::empty(), snap.count_distinct() as i64)],
                1 => snap.enumerate().collect(),
                2 => snap.enumerate_page(snap.enumerate().count() / 2, 7),
                _ => snap.result_sorted(),
            };
        }
        out
    }

    /// Four threads race the first positional reads of one fresh
    /// snapshot, each starting with another read: each gets what an
    /// identical, single-threaded snapshot answers, and the component is
    /// settled once among them.
    #[test]
    fn racing_first_reads_settle_once_and_agree() {
        let q = ivme_query::parse_query(TWO_PATH).unwrap();
        let mut db = Database::new();
        shared_two_path(&mut db, ("R", "S"), 19);
        let opts = EngineOptions::dynamic(0.5);
        let single = ShardedEngine::new(&q, &db, opts, 1).unwrap().snapshot(0);
        let want = positional_reads(&single, 0);
        let fresh = ShardedEngine::new(&q, &db, opts, 1).unwrap().snapshot(0);
        assert!(!fresh.comps[0].buckets.is_empty());
        let barrier = std::sync::Barrier::new(4);
        let raced: Vec<(Reads, u64)> = std::thread::scope(|scope| {
            let threads: Vec<_> = (0..4)
                .map(|first| {
                    let (fresh, barrier) = (&fresh, &barrier);
                    scope.spawn(move || {
                        barrier.wait();
                        let at = settles();
                        let got = positional_reads(fresh, first);
                        (got, settles() - at)
                    })
                })
                .collect();
            threads.into_iter().map(|t| t.join().unwrap()).collect()
        });
        for (first, (got, _)) in raced.iter().enumerate() {
            assert_eq!(*got, want, "thread {first}");
        }
        assert_eq!(raced.iter().map(|(_, n)| n).sum::<u64>(), 1);
        assert_eq!(fresh.result_sorted(), brute_force(&q, &db));
    }

    /// 40,000 rows any client can load make a result of 8000⁵ ≈ 3.3·10¹⁹
    /// tuples — more than `usize::MAX`. `count` saturates instead of
    /// wrapping (release) or panicking (debug), and a page deep inside
    /// the product is still served.
    #[test]
    fn count_saturates_when_the_product_of_components_overflows() {
        let mut db = Database::new();
        for rel in ["R", "S", "T", "U", "V"] {
            for i in 0..8_000 {
                db.insert(rel, Tuple::ints(&[i]), 1);
            }
        }
        let src = "Q(A,B,C,D,E) :- R(A), S(B), T(C), U(D), V(E)";
        let opts = EngineOptions::dynamic(0.5);
        let plain = IvmEngine::from_sql(src, &db, opts).unwrap();
        assert_eq!(plain.count_distinct(), usize::MAX);
        let snap = ShardedEngine::from_sql(src, &db, opts, 2)
            .unwrap()
            .snapshot(0);
        assert_eq!(snap.count_distinct(), usize::MAX);

        let deep = usize::MAX / 2 + 12_345;
        let page = snap.enumerate_page(deep, 3);
        assert_eq!(page.len(), 3);
        for (t, m) in &page {
            assert_eq!((plain.multiplicity(t), *m), (1, 1));
        }
        assert_eq!(plain.enumerate_page(deep, 3).len(), 3);
    }

    /// Ten unary components of 8,192 rows (81,920 rows any client can
    /// load) make a result of 2¹³⁰ tuples — past `u128`, where `seek`
    /// used to form the product: release wrapped it to 0 and answered an
    /// empty first page, debug panicked on a reader thread.
    #[test]
    fn pages_are_served_when_the_product_of_components_overflows_u128() {
        let mut db = Database::new();
        for r in 0..10 {
            for i in 0..8_192 {
                db.insert(&format!("R{r}"), Tuple::ints(&[i]), 1);
            }
        }
        let src = "Q(A,B,C,D,E,F,G,H,I,J) :- \
                   R0(A), R1(B), R2(C), R3(D), R4(E), R5(F), R6(G), R7(H), R8(I), R9(J)";
        let snap = ShardedEngine::from_sql(src, &db, EngineOptions::dynamic(0.5), 1)
            .unwrap()
            .snapshot(0);
        assert_eq!(snap.count_distinct(), usize::MAX);
        assert!(snap.enumerate().next().is_some());
        assert_eq!(snap.enumerate_page(0, 3).len(), 3);
        let deep = snap.enumerate_page(usize::MAX - 1, 3);
        assert_eq!(deep.len(), 3);
        for (t, m) in &deep {
            assert_eq!((snap.multiplicity(t), *m), (1, 1));
        }
    }

    /// `multiplicity` of every tuple of `want` and of absent probes: the
    /// same tuple with one value moved off every domain.
    fn check_multiplicities(snap: &ShardedSnapshot, want: &[(Tuple, i64)], ctx: &str) {
        for (t, m) in want {
            assert_eq!(snap.multiplicity(t), *m, "{ctx}: {t:?}");
            for i in 0..t.arity() {
                let mut vals = t.values().to_vec();
                vals[i] = Value::Int(vals[i].as_int() + 1_000);
                assert_eq!(snap.multiplicity(&Tuple::new(vals)), 0, "{ctx}");
            }
        }
    }

    /// Every read of the fresh snapshot `snap` against the brute-force
    /// result `want` (sorted): `multiplicity` while nothing is settled;
    /// then the shared lists are non-empty (so nothing passes vacuously),
    /// the count, every page of 7 against `enumerate()`'s sequence and
    /// pages that seek to, and beside, every shared position; then
    /// `multiplicity` again, settled.
    fn check_frozen(snap: &ShardedSnapshot, want: &[(Tuple, i64)], ctx: &str) {
        let c = &snap.comps[0];
        assert!(c.settled.get().is_none(), "{ctx}: settled by the freeze");
        check_multiplicities(snap, want, &format!("{ctx}, unsettled"));
        assert!(c.settled.get().is_none(), "{ctx}: settled by a lookup");
        let s = c.settled();
        assert!(
            s.shared.iter().any(|shared| !shared.is_empty()),
            "{ctx}: no bucket shares a tuple"
        );
        assert_eq!(snap.result_sorted(), want, "{ctx}: result");
        assert_eq!(snap.count_distinct(), want.len(), "{ctx}: count");
        let seq: Vec<(Tuple, i64)> = snap.enumerate().collect();
        let from = |at: usize, n: usize| seq.get(at..(at + n).min(seq.len())).unwrap_or_default();
        for at in 0..=seq.len() + 1 {
            assert_eq!(snap.enumerate_page(at, 7), from(at, 7), "{ctx}: page {at}");
        }
        for (b, shared) in s.shared.iter().enumerate() {
            for (j, &p) in shared.iter().enumerate() {
                // The enumeration index of the first unshared position at
                // or after `p`, and its neighbours.
                let k = (s.starts[b] + p - j as u128) as usize;
                for at in k.saturating_sub(1)..=k + 1 {
                    assert_eq!(snap.enumerate_page(at, 3), from(at, 3), "{ctx}: seek {at}");
                }
            }
        }
        check_multiplicities(snap, want, &format!("{ctx}, settled"));
    }

    /// Under the join value `b`, each `(relation, b first, values)` gets
    /// `(b, v)` or `(v, b)` for every `v` of its values.
    fn put(db: &mut Database, b: i64, rels: &[(&str, bool, Vec<i64>)]) {
        for (rel, b_first, vals) in rels {
            for &v in vals {
                let t = if *b_first { [b, v] } else { [v, b] };
                db.insert(rel, Tuple::ints(&t), 1);
            }
        }
    }

    /// `extra`, then `from..from + n`.
    fn run(extra: &[i64], from: i64, n: i64) -> Vec<i64> {
        extra.iter().copied().chain(from..from + n).collect()
    }

    /// Freezes `src` over `db` at ε = ½ for S ∈ {1, 2}, checks every read
    /// and returns the snapshots; at least `heavy` heavy keys must exist.
    fn freeze_and_check(src: &str, db: &Database, heavy: usize) -> Vec<ShardedSnapshot> {
        let q = ivme_query::parse_query(src).unwrap();
        let want = brute_force(&q, db);
        let mut snaps = Vec::new();
        for shards in [1, 2] {
            let mut eng = ShardedEngine::new(&q, db, EngineOptions::dynamic(0.5), shards).unwrap();
            let keys: usize = (0..eng.num_shards())
                .map(|s| eng.shard(s).heavy_keys())
                .sum();
            assert!(keys >= heavy, "{src} S {shards}: {keys} heavy keys");
            let snap = eng.snapshot(0);
            check_frozen(&snap, &want, &format!("{src} S {shards}"));
            snaps.push(snap);
        }
        snaps
    }

    /// Whether every snapshot's only component walks the key row `key`,
    /// the key row of `flat_rows` rows of the flat trees, rather than
    /// probing and pairing it.
    fn walked(snaps: &[ShardedSnapshot], key: i64, flat_rows: usize) -> bool {
        snaps.iter().all(|snap| {
            let c = &snap.comps[0];
            let k = c.keys.find(&[Value::Int(key)]).expect("a key row");
            c.walks(k, flat_rows, &mut Vec::new())
        })
    }

    const TWO_PATH: &str = "Q(A,C) :- R(A,B), S(B,C)";

    /// (a) The light part and the bucket of `B = 1` both produce
    /// `(10, 50)`.
    #[test]
    fn overlap_a_light_row_shared_with_a_bucket() {
        let mut db = Database::new();
        put(
            &mut db,
            1,
            &[
                ("R", false, run(&[], 10, 10)),
                ("S", true, run(&[], 50, 10)),
            ],
        );
        put(&mut db, 2, &[("R", false, vec![10]), ("S", true, vec![50])]);
        let snaps = freeze_and_check(TWO_PATH, &db, 1);
        // One probe into one holder, against its ten tuples under `A = 10`.
        assert!(!walked(&snaps, 10, 1));
    }

    /// (b) The buckets of `B = 1` and `B = 3` both produce `(19, 59)`,
    /// which no light row does.
    #[test]
    fn overlap_two_buckets_share_a_tuple_no_flat_tree_produces() {
        let mut db = Database::new();
        put(
            &mut db,
            1,
            &[
                ("R", false, run(&[], 10, 12)),
                ("S", true, run(&[], 50, 12)),
            ],
        );
        put(&mut db, 2, &[("R", false, vec![5]), ("S", true, vec![6])]);
        put(
            &mut db,
            3,
            &[
                ("R", false, run(&[19], 30, 11)),
                ("S", true, run(&[59], 70, 11)),
            ],
        );
        let snaps = freeze_and_check(TWO_PATH, &db, 2);
        // One pair intersected at the smaller's 12 tuples under `A = 19`,
        // against 24 walked at `WALK_COST`.
        assert!(!walked(&snaps, 19, 0));
    }

    /// (c) `(19, 59)` lives in three buckets and in the light part.
    #[test]
    fn overlap_one_tuple_in_three_buckets_and_in_the_flat_part() {
        let mut db = Database::new();
        for b in [1, 3, 4] {
            let (a, c) = (100 * b, 100 * b + 50);
            put(
                &mut db,
                b,
                &[
                    ("R", false, run(&[19], a, 19)),
                    ("S", true, run(&[59], c, 19)),
                ],
            );
        }
        put(
            &mut db,
            2,
            &[("R", false, vec![19, 7]), ("S", true, vec![59, 8])],
        );
        freeze_and_check(TWO_PATH, &db, 3);
    }

    /// One tuple, `(19, 59)`, in ten buckets and nowhere else: ten holders
    /// of one key row with equal factors cost more to intersect pair by
    /// pair (45 pairs of 45 tuples) than to walk (10 × 45 tuples at
    /// [`WALK_COST`]), so this key row is walked.
    #[test]
    fn overlap_one_tuple_in_ten_buckets_is_walked() {
        let mut db = Database::new();
        for b in (1..=11).filter(|&b| b != 2) {
            let (a, c) = (50 * b, 50 * b + 50);
            put(
                &mut db,
                b,
                &[
                    ("R", false, run(&[19], a, 44)),
                    ("S", true, run(&[59], c, 44)),
                ],
            );
        }
        put(&mut db, 2, &[("R", false, vec![7]), ("S", true, vec![8])]);
        let snaps = freeze_and_check(TWO_PATH, &db, 10);
        assert!(walked(&snaps, 19, 0));
    }

    /// A hub: `A = 19` is in each of four heavy buckets, whose `C`s are
    /// `59` and one of their own, and twelve light `B`s join it to twelve
    /// `C`s, two of which the buckets hold too — `(19, 59)` is in every
    /// bucket and the light part. Probing costs one lookup per light row
    /// and holder (48) plus the pairs (12), more than the holders' eight
    /// tuples under the row at [`WALK_COST`] (32), so the row is walked:
    /// pass (i) alone would cost light rows × buckets, which grows faster
    /// than a product drain of this shape.
    #[test]
    fn overlap_a_hub_key_row_is_walked() {
        let mut db = Database::new();
        for b in 1..=4 {
            let (a, c) = (100 * b, 100 * b + 50);
            put(
                &mut db,
                b,
                &[("R", false, run(&[19], a, 29)), ("S", true, vec![59, c])],
            );
        }
        for (i, b) in (10..22).enumerate() {
            let c = [59, 150].get(i).copied().unwrap_or(500 + b);
            put(&mut db, b, &[("R", false, vec![19]), ("S", true, vec![c])]);
        }
        let snaps = freeze_and_check(TWO_PATH, &db, 4);
        assert!(walked(&snaps, 19, 12));
    }

    /// (d) Buckets of three factors: heavy `B = 1` and `B = 3` share
    /// `(19, 59, 89)`, and the light `B = 2` produces `(10, 50, 80)` of
    /// `B = 1`'s bucket.
    #[test]
    fn overlap_a_three_child_bucket() {
        let mut db = Database::new();
        let star = |a: Vec<i64>, c: Vec<i64>, d: Vec<i64>| {
            [("R", false, a), ("S", true, c), ("T", true, d)]
        };
        put(
            &mut db,
            1,
            &star(run(&[], 10, 16), run(&[], 50, 16), run(&[], 80, 16)),
        );
        put(
            &mut db,
            3,
            &star(
                run(&[19], 200, 15),
                run(&[59], 240, 15),
                run(&[89], 270, 15),
            ),
        );
        put(&mut db, 2, &star(vec![10], vec![50], vec![80]));
        freeze_and_check("Q(A,C,D) :- R(A,B), S(B,C), T(B,D)", &db, 2);
    }

    /// Counts, per bucket, how often each factor row is pushed.
    #[derive(Default)]
    struct Pushes(Vec<std::collections::HashMap<(usize, Vec<Value>), usize>>);

    impl FreezeSink for Pushes {
        fn flat(&mut self, _: &[Value], _: u64, _: i64) {}

        fn bucket(&mut self) {
            self.0.push(Default::default());
        }

        fn factor(&mut self, f: usize, row: &[Value], _: i64) {
            *self
                .0
                .last_mut()
                .unwrap()
                .entry((f, row.to_vec()))
                .or_default() += 1;
        }
    }

    /// (e) Example 19, where the `(A,B)` child of a heavy `A` has an
    /// indicator of its own: under `A = 1` and `A = 2`, the heavy
    /// `(A, B)` keys `B = 1` and `B = 2` both push every `(D, E)` row; the
    /// two buckets and the light `A = 3` all produce `(C, D, E, F) =
    /// (7, 0, 0, 8)`.
    #[test]
    fn overlap_a_child_factor_with_repeated_rows() {
        let mut db = Database::new();
        let mut add = |rel: &str, t: [i64; 3]| db.insert(rel, Tuple::ints(&t), 1);
        for a in [1, 2] {
            for b in [1, 2] {
                for v in 0..20 {
                    add("R", [a, b, v]);
                    add("S", [a, b, v]);
                }
            }
            add("T", [a, 7, 8]);
            add("U", [a, 7, 0]);
        }
        add("R", [3, 1, 0]);
        add("S", [3, 1, 0]);
        add("T", [3, 7, 8]);
        add("U", [3, 7, 0]);
        let src = "Q(C,D,E,F) :- R(A,B,D), S(A,B,E), T(A,C,F), U(A,C,G)";
        let eng = IvmEngine::from_sql(src, &db, EngineOptions::dynamic(0.5)).unwrap();
        let mut pushes = Pushes::default();
        eng.freeze_component(0, &mut pushes);
        assert_eq!(pushes.0.len(), 2, "one bucket per heavy A");
        assert!(
            pushes
                .0
                .iter()
                .all(|b| b[&(0, vec![Value::Int(0), Value::Int(0)])] == 2),
            "both heavy (A, B) keys push (D, E) = (0, 0)"
        );
        freeze_and_check(src, &db, 6);
    }

    /// A bucket of 2⁶⁵ tuples: five factors of 8,192 rows, the one heavy
    /// key of `Q(A,C,D,E,F) :- R(A,B), S(B,C), T(B,D), U(B,E), V(B,F)` over
    /// 40,960 rows. No product drain could freeze it; its positions need
    /// wider than `u64` arithmetic. (Built through the freezer: the
    /// engine's own `i64` count for that key would overflow.)
    #[test]
    fn a_bucket_of_two_to_the_65_tuples_is_counted_paged_and_probed() {
        let mut freezer = Freezer::new((0..5).collect(), (0..5).map(|p| vec![p]).collect(), 0);
        freezer.bucket();
        for f in 0..5 {
            for i in 0..8_192 {
                freezer.factor(f, &[Value::Int(i)], 1);
            }
        }
        let frozen = freezer.finish();
        assert_eq!(frozen.buckets[0].size, 1 << 65);
        let snap = ShardedSnapshot {
            epoch: 0,
            free_arity: 5,
            comps: vec![Arc::new(frozen)],
            stats: EngineStats::default(),
            db_size: 40_960,
            relation_sizes: Vec::new(),
        };
        assert_eq!(snap.count_distinct(), usize::MAX);
        for offset in [0, usize::MAX - 1] {
            let page = snap.enumerate_page(offset, 3);
            assert_eq!(page.len(), 3, "offset {offset}");
            for (t, m) in &page {
                assert_eq!((snap.multiplicity(t), *m), (1, 1), "{t:?}");
            }
        }
        // Row-major, the last factor fastest: position 2⁶⁴ − 2 =
        // 4,095·8,192⁴ + (8,192⁴ − 2) has the digits (4,095, 8,191, 8,191,
        // 8,191, 8,190).
        let deep = snap.enumerate_page(usize::MAX - 1, 3);
        assert_eq!(deep[0].0, Tuple::ints(&[4_095, 8_191, 8_191, 8_191, 8_190]));
        assert_eq!(deep[2].0, Tuple::ints(&[4_096, 0, 0, 0, 0]));
        let absent = Tuple::ints(&[0, 0, 0, 0, 8_192]);
        assert_eq!(snap.multiplicity(&absent), 0);
    }

    /// The same query through the engine is refused: each of three join
    /// values would be a bucket of 8,192⁴ · 1,800 ≈ 2⁶²·⁸ tuples, and the
    /// engine's per-key counts may not pass `MAX_VIEW_MULT` (2⁶²). Frozen
    /// as the engine would freeze them, the three buckets (103,704 rows)
    /// hold more than 2⁶⁴ tuples together — so the counts before a bucket
    /// need wider than `u64` arithmetic. The buckets share no value (a
    /// tuple in two of them would be materialized in the flat part).
    #[test]
    fn buckets_of_more_than_two_to_the_64_tuples_are_counted_paged_and_probed() {
        let mut db = Database::new();
        let mut freezer = Freezer::new((0..5).collect(), (0..5).map(|p| vec![p]).collect(), 0);
        for b in 0..3 {
            freezer.bucket();
            for i in 10_000 * b..10_000 * b + 8_192 {
                if i < 10_000 * b + 1_800 {
                    db.insert("R", Tuple::ints(&[i, b]), 1);
                    freezer.factor(0, &[Value::Int(i)], 1);
                }
                for (f, rel) in ["S", "T", "U", "V"].into_iter().enumerate() {
                    db.insert(rel, Tuple::ints(&[b, i]), 1);
                    freezer.factor(f + 1, &[Value::Int(i)], 1);
                }
            }
        }
        let src = "Q(A,C,D,E,F) :- R(A,B), S(B,C), T(B,D), U(B,E), V(B,F)";
        let Err(err) = ShardedEngine::from_sql(src, &db, EngineOptions::dynamic(0.5), 1) else {
            panic!("an engine whose views pass 2^62 was built");
        };
        assert!(
            err.starts_with("multiplicity overflow: a view over R, S"),
            "{err}"
        );
        let snap = ShardedSnapshot {
            epoch: 0,
            free_arity: 5,
            comps: vec![Arc::new(freezer.finish())],
            stats: EngineStats::default(),
            db_size: db.total_rows(),
            relation_sizes: Vec::new(),
        };
        let c = &snap.comps[0];
        assert_eq!((c.flat.len(), c.buckets.len()), (0, 3));
        assert!(c.len() > 1 << 64);
        assert_eq!(snap.count_distinct(), usize::MAX);
        for offset in [0, usize::MAX / 2, usize::MAX - 1] {
            let page = snap.enumerate_page(offset, 3);
            assert_eq!(page.len(), 3, "offset {offset}");
            for (t, m) in &page {
                assert_eq!((snap.multiplicity(t), *m), (1, 1), "{t:?}");
            }
        }
    }

    fn table() -> MergedComponent {
        MergedComponent::with_capacity(1, 0)
    }

    /// The table's rows as tuples, in order.
    fn rows(c: &MergedComponent) -> Vec<(Tuple, i64)> {
        (0..c.len())
            .map(|i| (Tuple::from_slice(c.row(i)), c.mults[i]))
            .collect()
    }

    /// The table's invariants: `arity` values per row, a power-of-two slot
    /// array at most 7/8 full whose live slots index the rows one to one,
    /// each row reachable by a probe built as a `Tuple`.
    fn check_table(c: &MergedComponent) {
        assert_eq!(c.values.len(), c.len() * c.arity);
        assert!(c.slots.is_empty() || c.slots.len().is_power_of_two());
        assert!(c.len() * 8 <= c.slots.len() * 7);
        let mut indexed: Vec<u32> = c.slots.iter().map(|s| s.index).collect();
        indexed.retain(|&i| i != Slot::EMPTY.index);
        indexed.sort_unstable();
        assert_eq!(indexed, (0..c.len() as u32).collect::<Vec<_>>());
        for (t, m) in rows(c) {
            assert_eq!(c.get(&t), m);
        }
    }

    #[test]
    fn table_sums_duplicates_keeps_first_occurrence_order_and_drops_zero_sums() {
        let mut c = table();
        let t = |a: i64| Tuple::ints(&[a]);
        for (a, m) in [(7, 1), (3, 2), (7, 3), (5, 1), (3, -2), (9, 4), (5, 1)] {
            c.add(t(a).values(), m);
        }
        assert_eq!(rows(&c), [(t(7), 4), (t(3), 0), (t(5), 2), (t(9), 4)]);
        check_table(&c);
        c.drop_zero_sums();
        assert_eq!(rows(&c), [(t(7), 4), (t(5), 2), (t(9), 4)]);
        check_table(&c);
        assert_eq!((c.get(&t(3)), c.get(&t(4))), (0, 0));
    }

    #[test]
    fn table_grows_from_capacity_zero_and_a_presized_one_enumerates_the_same() {
        let mut grown = MergedComponent::with_capacity(2, 0);
        assert!(grown.slots.is_empty());
        assert_eq!(grown.get(&Tuple::ints(&[1, 2])), 0);
        let mut presized = MergedComponent::with_capacity(2, 700);
        let presized_slots = presized.slots.len();
        let mut doublings = 0;
        // 700 distinct pairs, every third one seen twice.
        for i in 0..1_050i64 {
            let k = if i % 3 == 2 { i - 2 } else { i };
            let before = grown.slots.len();
            grown.add(&[Value::Int(k), Value::Int(-k)], 1);
            presized.add(&[Value::Int(k), Value::Int(-k)], 1);
            doublings += usize::from(grown.slots.len() != before);
            if i % 97 == 0 {
                check_table(&grown);
            }
        }
        assert!(doublings >= 5, "{doublings} doublings");
        assert_eq!(presized.slots.len(), presized_slots);
        check_table(&grown);
        check_table(&presized);
        assert_eq!(grown.len(), 700);
        assert_eq!(rows(&grown), rows(&presized));
        assert_eq!(grown.get(&Tuple::ints(&[0, 0])), 2);
        assert_eq!(grown.get(&Tuple::ints(&[1, -1])), 1);
        assert_eq!(grown.get(&Tuple::ints(&[2, -2])), 0);
    }

    /// Rows of strings, inline and spilled, added from bare slices: a
    /// probe built by `Tuple::new` finds them, and compaction keeps
    /// every surviving row's values together.
    #[test]
    fn str_rows_added_from_slices_are_found_by_tuple_probes() {
        let s = Value::from;
        for row in [
            vec![s("ab"), Value::Int(3)],
            vec![s(""), s("c"), Value::Int(-9)],
        ] {
            let mut c = MergedComponent::with_capacity(row.len(), 0);
            let mut other = row.clone();
            other[0] = s("other");
            let mut dropped = row.clone();
            dropped[1] = s("gone");
            c.add(&dropped, 1);
            c.add(&row, 2);
            c.add(&other, 5);
            c.add(&row, 1);
            c.add(&dropped, -1);
            c.drop_zero_sums();
            check_table(&c);
            assert_eq!(c.get(&Tuple::new(row.clone())), 3);
            assert_eq!(c.get(&Tuple::new(other.clone())), 5);
            assert_eq!(c.get(&Tuple::new(dropped)), 0);
            assert_eq!(rows(&c), [(Tuple::new(row), 3), (Tuple::new(other), 5)]);
        }
    }

    /// A component with no free variable: every row is empty, so the
    /// table holds at most one, and dropping it leaves none.
    #[test]
    fn arity_zero_rows_sum_into_one() {
        let mut c = MergedComponent::with_capacity(0, 3);
        for m in [2, 3, -1] {
            c.add(&[], m);
        }
        check_table(&c);
        assert_eq!(rows(&c), [(Tuple::empty(), 4)]);
        c.add(&[], -4);
        c.drop_zero_sums();
        check_table(&c);
        assert_eq!((c.len(), c.get(&Tuple::empty())), (0, 0));
    }

    /// The unary tuple whose cached hash is `hash`: Fx of one word is a
    /// multiplication by an odd constant, which Newton's iteration inverts.
    fn unary_with_hash(hash: u64) -> Tuple {
        let k = Tuple::ints(&[1]).cached_hash();
        let mut inv = k;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(k.wrapping_mul(inv)));
        }
        let t = Tuple::ints(&[hash.wrapping_mul(inv) as i64]);
        assert_eq!(t.cached_hash(), hash);
        t
    }

    #[test]
    fn probes_that_collide_on_slot_and_on_tag_are_told_apart_by_equality() {
        // Same home slot at every capacity up to 2¹⁶ (top 16 bits) and
        // the same tag (low 32 bits); the middle bits differ.
        let held = unary_with_hash(0xabcd_0000_1234_5678);
        let twin = unary_with_hash(0xabcd_0001_1234_5678);
        let absent_twin = unary_with_hash(0xabcd_0002_1234_5678);
        // Same home slot, another tag.
        let absent_neighbour = unary_with_hash(0xabcd_0000_8765_4321);
        // The last slot of eight: its probe sequence wraps around.
        let last = unary_with_hash(0xffff_0000_0000_0001);
        let last_twin = unary_with_hash(0xffff_0001_0000_0001);
        let mut c = table();
        for (t, m) in [(&held, 5), (&twin, 7), (&last, 2), (&last_twin, 3)] {
            c.add(t.values(), m);
        }
        c.add(held.values(), 1);
        assert_eq!(c.slots.len(), MIN_SLOTS);
        check_table(&c);
        assert_eq!((c.get(&held), c.get(&twin)), (6, 7));
        assert_eq!((c.get(&last), c.get(&last_twin)), (2, 3));
        assert_eq!((c.get(&absent_twin), c.get(&absent_neighbour)), (0, 0));
        assert_eq!(c.get(&unary_with_hash(0xffff_0002_0000_0001)), 0);
    }
}
