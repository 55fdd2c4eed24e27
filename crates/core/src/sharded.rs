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
//! * **Preprocessing** materializes the shards one after another, each
//!   over its own sub-database.
//! * **Maintenance** splits a [`DeltaBatch`] with a
//!   [`ShardRouter`] — single-column hashing that
//!   reuses the tuples' cached 64-bit hashes where the routing key is the
//!   whole tuple — and applies the per-shard sub-batches one after
//!   another. Each shard propagates through its own `PropScratch` arena.
//!   The paper's update bound `O(N^{δε})` (Prop. 23) holds per shard;
//!   sharding partitions the work without parallelizing it.
//! * **Reads** go through one door: [`ShardedEngine::snapshot`] freezes
//!   the result into a [`ShardedSnapshot`], and every read — enumerate,
//!   count, lookup, page — is answered by that snapshot, never by the
//!   engine. Freezing merges per component: a component's result is the
//!   **bag-union over shards, view trees and heavy buckets** — every
//!   shard's trees push their occurrences
//!   ([`IvmEngine::drain_component`]: each occurrence once, no lookups)
//!   into one insertion-ordered table (`MergedComponent`) whose `+= m` is
//!   the only duplicate elimination there is: a publish walks the trees
//!   once and writes each distinct row once, as bare values into one flat
//!   array — a `Tuple` is built only for what a read returns. The same
//!   tuple arrives more than once when two shards hold it (possible only
//!   when the root variable is projected away), when a light and a heavy
//!   tree both produce it, or when several heavy keys do; the table sums.
//!   That costs `O(Σ occurrences)` per touched component, and the paper's
//!   Union algorithm — whose per-tuple lookups exist to suppress
//!   duplicates *without* materializing — stays on the path that does not
//!   materialize, [`IvmEngine::enumerate`]. A component enumerates in the
//!   order its tuples first occurred in the drain (shard 0's trees first),
//!   a function of the apply history alone: engines that applied the same
//!   batches page identically, however often each was frozen. The full
//!   result is the Cartesian product over components of those merged
//!   unions. Merging per *component* (not per shard result) is what keeps
//!   multi-component queries correct: a product of unions is not a union
//!   of products. The cost of the one door: a point lookup on a sharded
//!   engine pays the merge of the components touched since the last
//!   snapshot; the paper's own `O(N^{1−ε})` tree lookup is
//!   [`IvmEngine::multiplicity`].
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

use std::sync::Arc;

use ivme_data::{DeltaBatch, Route, ShardRouter, Tuple, Update, Value};
use ivme_query::Query;

use crate::database::Database;
use crate::engine::{EngineError, EngineOptions, EngineStats, IvmEngine, UpdateError};
use crate::enumerate::product_size;

/// Upper bound on the shard count. Every shard is a complete
/// [`IvmEngine`] with its own views and indexes, and the count reaches
/// [`ShardedEngine::new`] from client commands (`.shards n`) and snapshot
/// files, so it must not be able to multiply the engine's fixed memory
/// without bound.
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
        let mut built = Vec::with_capacity(router.num_shards());
        for sub in &Self::split_database(query, db, &router) {
            built.push(IvmEngine::new(query, sub, opts)?);
        }
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
                        if router.register(rel, Route::Column(pos)).is_err() {
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
    /// query does not mention).
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

    /// Per-shard relation sizes: for each shard, `(relation, distinct
    /// tuples)` per distinct relation symbol (the CLI's `.stats` view).
    pub fn shard_relation_sizes(&self) -> Vec<Vec<(String, usize)>> {
        self.shards
            .iter()
            .map(IvmEngine::base_relation_sizes)
            .collect()
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
    /// right after a snapshot rebuild so `stats` reflects lifetime totals
    /// rather than restarting from zero. Rebalance counters are *not*
    /// restored: the rebuild re-preprocesses from scratch, so its shards
    /// genuinely have fresh rebalance histories.
    pub fn restore_stats(&mut self, updates: u64, batches: u64, misroutes: u64) {
        self.updates = updates;
        self.batches = batches;
        self.router.restore_misroutes(misroutes);
    }

    // ------------------------------------------------------------------
    // Updates
    // ------------------------------------------------------------------

    /// Applies a single-tuple update, routed straight to its owning shard
    /// (no batch is split for an update of one).
    pub fn apply_update(
        &mut self,
        relation: &str,
        tuple: Tuple,
        delta: i64,
    ) -> Result<(), UpdateError> {
        let s = self.router.shard_of(relation, &tuple).unwrap_or(0);
        let r = self.shards[s].apply_update(relation, tuple, delta);
        // Zero deltas take the per-shard fast path without touching any
        // counter; mirror that here so stats match the unsharded engine.
        if r.is_ok() && delta != 0 {
            self.updates += 1;
            self.batches += 1;
        }
        r
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
        let parts = if self.shards.len() == 1 {
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

    /// One component's merged result, through its cache slot: re-merged
    /// only when some shard's version for it moved since the cached merge
    /// was built, otherwise a version compare plus an `Arc` clone.
    ///
    /// The merge is a bag-union over shards, trees and heavy buckets:
    /// every occurrence [`IvmEngine::drain_component`] pushes is summed
    /// into the table, `O(Σ occurrences)` with no tree lookup. The table
    /// is pre-sized from the slot's previous merge — its order is the
    /// drain's, so its capacity history cannot show.
    fn merged_component(&mut self, ci: usize) -> Arc<MergedComponent> {
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
            expect = c.merged.len();
        }
        let positions = self.shards[0].component_out_positions(ci).to_vec();
        let mut acc = MergedComponent::with_capacity(positions, expect);
        for shard in &self.shards {
            shard.drain_component(ci, |row, m| acc.add(row, m));
        }
        acc.drop_zero_sums();
        let merged = Arc::new(acc);
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
    /// any locking. Built from the merge cache, so the cost is the bag
    /// drain of the changed components, `O(Σ changed occurrences(C_i))` —
    /// a tuple counts once per shard, tree and heavy key producing it:
    /// components untouched since the last snapshot are shared by `Arc`
    /// clone, not rebuilt, and a quiescent engine pays `O(#components)`.
    /// Enumeration order within a component is the order its tuples first
    /// occurred in the drain. Freezing is something only the engine's
    /// single owner does, hence `&mut self`.
    ///
    /// `epoch` is caller-assigned (the serving layer's publish counter,
    /// the shell's refresh counter); it is echoed by
    /// [`ShardedSnapshot::epoch`] and surfaced in `stats` output so
    /// clients can observe snapshot turnover.
    pub fn snapshot(&mut self, epoch: u64) -> ShardedSnapshot {
        let comps = (0..self.merge_cache.len())
            .map(|ci| self.merged_component(ci))
            .collect();
        ShardedSnapshot {
            epoch,
            free_arity: self.query.free.arity(),
            comps,
            stats: self.stats(),
            db_size: self.db_size(),
            shard_sizes: self.shard_sizes(),
            shard_relation_sizes: self.shard_relation_sizes(),
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

/// One component's merged (cross-shard) result: a build-once table.
///
/// Each distinct row is held once, in the order the drain first produced
/// it: its values in `values`, strided by the component's arity (row `i`
/// is `values[i·a..(i+1)·a]`), its summed multiplicity in `mults[i]` —
/// what `enumerate`/`page`/`count` read. A component with no free
/// variable has arity 0 and at most one (empty) row, so the row count is
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
/// written once by one merge, is an index only (the rows live in the
/// flat arrays), never deletes, and is immutable behind an `Arc`
/// afterwards — and a `HashMap` cannot give the insertion order that
/// makes the enumeration order independent of capacity.
struct MergedComponent {
    /// Positions of the component's variables in the query's free schema.
    positions: Vec<usize>,
    /// The distinct rows' values, `positions.len()` per row, in
    /// first-occurrence order.
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
    fn with_capacity(positions: Vec<usize>, expect: usize) -> MergedComponent {
        let slots = match expect {
            0 => 0,
            n => (n * 8).div_ceil(7).next_power_of_two().max(MIN_SLOTS),
        };
        let rows = slots / 8 * 7;
        MergedComponent {
            values: Vec::with_capacity(rows * positions.len()),
            positions,
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
        let a = self.positions.len();
        &self.values[i * a..(i + 1) * a]
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
    /// values are copied in and the row appended.
    fn add(&mut self, row: &[Value], m: i64) {
        debug_assert_eq!(row.len(), self.positions.len());
        if (self.len() + 1) * 8 > self.slots.len() * 7 {
            self.reindex((self.slots.len() * 2).max(MIN_SLOTS));
        }
        let hash = Tuple::hash_of(row);
        match self.probe(hash, |held| held == row) {
            Ok(index) => self.mults[index] += m,
            Err(at) => {
                self.slots[at] = Slot::of(self.len(), hash);
                self.values.extend_from_slice(row);
                self.mults.push(m);
            }
        }
    }

    /// Drops the rows whose occurrences summed to zero, compacting in
    /// place; the rest keep their order.
    fn drop_zero_sums(&mut self) {
        let Some(first) = self.mults.iter().position(|&m| m == 0) else {
            return;
        };
        let a = self.positions.len();
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

    /// Summed multiplicity of `t` (0 when absent).
    fn get(&self, t: &Tuple) -> i64 {
        if self.slots.is_empty() {
            return 0;
        }
        self.probe(t.cached_hash(), |held| held == t.values())
            .map_or(0, |index| self.mults[index])
    }
}

/// An immutable, self-contained view of a [`ShardedEngine`]'s result at
/// one commit point: the lock-free serving read surface.
///
/// Every method takes `&self` and touches only owned/`Arc`-shared data —
/// no interior locking, no engine access — so an arbitrary number of
/// reader threads can serve `enumerate`/`count_distinct`/`multiplicity`/
/// `enumerate_page`/`result_sorted` from one snapshot while the writer
/// mutates the engine and publishes fresh snapshots. A snapshot is
/// **frozen**: it answers every read with the result as of capture time,
/// forever, regardless of how many batches commit after it.
///
/// Capture is cheap ([`ShardedEngine::snapshot`]): components untouched
/// since the previous capture are shared between snapshots by `Arc`
/// clone, so successive snapshots cost `O(Σ changed |C_i|)`, not
/// `O(result)`.
pub struct ShardedSnapshot {
    epoch: u64,
    free_arity: usize,
    comps: Vec<Arc<MergedComponent>>,
    stats: EngineStats,
    db_size: usize,
    shard_sizes: Vec<usize>,
    shard_relation_sizes: Vec<Vec<(String, usize)>>,
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

    /// Effective shard count of the captured engine.
    pub fn num_shards(&self) -> usize {
        self.shard_sizes.len()
    }

    /// Per-shard database sizes as of the capture.
    pub fn shard_sizes(&self) -> &[usize] {
        &self.shard_sizes
    }

    /// Per-shard `(relation, distinct tuples)` as of the capture.
    pub fn shard_relation_sizes(&self) -> &[Vec<(String, usize)>] {
        &self.shard_relation_sizes
    }

    /// Enumerates the frozen result's distinct tuples with their
    /// multiplicities: the odometer product across the merged components,
    /// iterating the snapshot's own `Arc`'d rows directly — no per-shard
    /// enumeration, no table probe, one `Tuple` built per item, `O(1)` to
    /// the first tuple.
    pub fn enumerate(&self) -> MergedResultIter {
        MergedResultIter::new(self.comps.clone(), self.free_arity)
    }

    /// Number of distinct result tuples in the frozen result: the product
    /// of the per-component distinct counts — the merged components are
    /// already deduplicated, so the Cartesian product is never walked —
    /// saturating at `usize::MAX`.
    pub fn count_distinct(&self) -> usize {
        product_size(self.comps.iter().map(|c| c.len()))
    }

    /// Multiplicity of one fully-specified result tuple in the frozen
    /// result: per component, a probe of the merged table; the product
    /// across components. Wrong-arity tuples report 0.
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
            total *= m;
        }
        total
    }

    /// Whether `tuple` is in the frozen result.
    pub fn contains(&self, tuple: &Tuple) -> bool {
        self.multiplicity(tuple) != 0
    }

    /// One page of the frozen result in enumeration order: skips `offset`,
    /// then collects up to `limit`. The seek is a mixed-radix index
    /// computation straight into the merged vectors — `O(#components)`,
    /// independent of `offset`. Page boundaries are stable for the
    /// lifetime of the snapshot by construction.
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

/// One merge-cache entry: a component's merged result and the per-shard
/// component versions it reflects.
struct CachedMerge {
    versions: Vec<u64>,
    merged: Arc<MergedComponent>,
}

/// Iterator over the merged sharded result: Cartesian product across
/// components of the per-component cross-shard unions. Holds `Arc`s into
/// the merge cache, so iteration never copies the merged arrays; each
/// emitted item is the one `Tuple` built from them.
pub struct MergedResultIter {
    comps: Vec<Arc<MergedComponent>>,
    pick: Vec<usize>,
    buf: Vec<Value>,
    /// Single component covering the whole free schema (the common case):
    /// each emitted tuple is built straight from its row, with no buffer
    /// assembly.
    direct: bool,
    primed: bool,
    dead: bool,
}

impl MergedResultIter {
    fn new(comps: Vec<Arc<MergedComponent>>, free_arity: usize) -> MergedResultIter {
        let n = comps.len();
        let dead = comps.is_empty() || comps.iter().any(|c| c.len() == 0);
        let direct = n == 1
            && comps[0].positions.len() == free_arity
            && comps[0].positions.iter().enumerate().all(|(i, &p)| i == p);
        MergedResultIter {
            comps,
            pick: vec![0; n],
            buf: vec![Value::Int(0); free_arity],
            direct,
            primed: false,
            dead,
        }
    }

    /// Positions this fresh iterator so that the next emitted item is the
    /// `offset`-th result tuple (0-based, in enumeration order). The
    /// digits index straight into the cached merged rows, so the seek
    /// is `O(#components)` regardless of `offset`. Returns `false` (and
    /// exhausts the iterator) when `offset` is past the end.
    pub fn seek(&mut self, offset: usize) -> bool {
        if self.dead {
            return false;
        }
        debug_assert!(!self.primed, "seek requires a fresh iterator");
        // Mixed-radix decomposition, least-significant digit first (no
        // component is empty here). What is left over the leading digit
        // is `offset / Π|C_i|` — non-zero exactly when `offset` is past
        // the end — without ever forming the product, which ten
        // components of 8,192 rows push past `u128`.
        let mut rem = offset;
        for i in (0..self.comps.len()).rev() {
            let n = self.comps[i].len();
            self.pick[i] = rem % n;
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
        if self.direct {
            let c = &self.comps[0];
            let k = self.pick[0];
            if k == c.len() {
                self.dead = true;
                return None;
            }
            self.pick[0] += 1;
            return Some((Tuple::from_slice(c.row(k)), c.mults[k]));
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
                self.pick[i] += 1;
                if self.pick[i] < self.comps[i].len() {
                    break;
                }
                self.pick[i] = 0;
            }
        }
        self.primed = true;
        let mut mult = 1i64;
        for (c, &k) in self.comps.iter().zip(&self.pick) {
            mult *= c.mults[k];
            for (&p, v) in c.positions.iter().zip(c.row(k)) {
                self.buf[p].clone_from(v);
            }
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

    fn table() -> MergedComponent {
        MergedComponent::with_capacity(vec![0], 0)
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
        assert_eq!(c.values.len(), c.len() * c.positions.len());
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
        let mut grown = MergedComponent::with_capacity(vec![0, 1], 0);
        assert!(grown.slots.is_empty());
        assert_eq!(grown.get(&Tuple::ints(&[1, 2])), 0);
        let mut presized = MergedComponent::with_capacity(vec![0, 1], 700);
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
            let positions: Vec<usize> = (0..row.len()).collect();
            let mut c = MergedComponent::with_capacity(positions, 0);
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
        let mut c = MergedComponent::with_capacity(Vec::new(), 3);
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
