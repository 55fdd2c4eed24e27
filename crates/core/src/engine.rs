//! The IVM^ε engine facade.
//!
//! [`IvmEngine`] ties everything together: it compiles a hierarchical query
//! into skew-aware view trees (`ivme-plan`), materializes them over an
//! input [`Database`] (preprocessing, Thm. 2/4:
//! `O(N^{1+(w−1)ε})`), answers enumeration requests with `O(N^{1−ε})` delay,
//! and — in dynamic mode — maintains everything under single-tuple updates
//! in `O(N^{δε})` amortized time via the trigger procedure `OnUpdate`
//! (Fig. 22) with major/minor rebalancing (Figs. 20/21).

use std::fmt;

use ivme_data::fx::FxHashSet;
use ivme_data::{DeltaBatch, NegativeMultiplicity, Relation, SlotId, Tuple, Update};
use ivme_plan::{Mode, Plan};
use ivme_query::{NotHierarchical, Query};

use ivme_data::Value;

use crate::database::Database;
use crate::enumerate::{
    count_component, factor_positions, freeze_component, freeze_flat, freeze_heavy, product_size,
    verbatim_flat_tree, EnumNode, EnumScratch, FreezeSink, ResultIter,
};
use crate::runtime::Runtime;

/// Engine construction options.
#[derive(Clone, Copy, Debug)]
pub struct EngineOptions {
    /// The trade-off knob ε ∈ [0, 1]: delay `O(N^{1−ε})`, preprocessing
    /// `O(N^{1+(w−1)ε})`, amortized update `O(N^{δε})`.
    pub epsilon: f64,
    /// Static (no updates) or dynamic (updates supported) evaluation.
    pub mode: Mode,
}

impl EngineOptions {
    /// Dynamic evaluation at the given ε.
    pub fn dynamic(epsilon: f64) -> EngineOptions {
        EngineOptions {
            epsilon,
            mode: Mode::Dynamic,
        }
    }

    /// Static evaluation at the given ε.
    pub fn static_eval(epsilon: f64) -> EngineOptions {
        EngineOptions {
            epsilon,
            mode: Mode::Static,
        }
    }
}

/// The largest multiplicity any stored view may reach. Every view of a
/// component sums products of one tuple per atom, so its multiplicities
/// are at most `Π_{atoms a} max(1, ‖R_a‖)`, where `‖R‖ = Σ_t R(t)` is a
/// relation's total multiplicity. Preprocessing and every batch keep that
/// product at most this; the headroom below `i64::MAX` holds the delta
/// sums maintenance forms on the way, so maintenance never overflows.
pub const MAX_VIEW_MULT: i64 = 1 << 62;

/// Errors surfaced while building an engine.
#[derive(Debug)]
pub enum EngineError {
    /// The query is not hierarchical; this engine does not support it.
    NotHierarchical(NotHierarchical),
    /// ε outside [0, 1].
    InvalidEpsilon(f64),
    /// A database tuple does not match its relation's schema.
    Arity(String),
    /// A view could hold a multiplicity past [`MAX_VIEW_MULT`].
    Overflow(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::NotHierarchical(e) => write!(f, "{e}"),
            EngineError::InvalidEpsilon(e) => write!(f, "epsilon {e} outside [0, 1]"),
            EngineError::Arity(m) => write!(f, "{m}"),
            EngineError::Overflow(m) => write!(f, "multiplicity overflow: {m}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// Errors surfaced while applying an update.
#[derive(Debug)]
pub enum UpdateError {
    /// No atom of the query uses this relation symbol.
    UnknownRelation(String),
    /// The engine was built in static mode.
    StaticMode,
    /// A delete exceeds the stored multiplicity (paper Sec. 3: rejected).
    Negative(NegativeMultiplicity),
    /// Tuple arity does not match the relation schema.
    Arity(String),
    /// The batch's deltas on one tuple sum past `i64`, or after it a
    /// view could hold a multiplicity past [`MAX_VIEW_MULT`].
    Overflow(String),
}

impl fmt::Display for UpdateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UpdateError::UnknownRelation(r) => write!(f, "unknown relation {r}"),
            UpdateError::StaticMode => write!(f, "engine was built in static mode"),
            UpdateError::Negative(e) => write!(f, "{e}"),
            UpdateError::Arity(m) => write!(f, "{m}"),
            UpdateError::Overflow(m) => write!(f, "multiplicity overflow: {m}"),
        }
    }
}

impl std::error::Error for UpdateError {}

/// Maintenance counters (reported by `stats` and the benchmark harnesses).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Single-tuple updates processed (a batch of cardinality k counts k).
    pub updates: u64,
    /// Batches applied (a single-tuple update counts as a batch of one).
    pub batches: u64,
    /// Major rebalancing events (threshold-base doubling/halving).
    pub major_rebalances: u64,
    /// Minor rebalancing events (per-key light/heavy migrations).
    pub minor_rebalances: u64,
    /// Wrong-arity tuples (no routing column) that a `ShardedEngine` at
    /// `S > 1` sent to shard 0 while splitting a batch. Always 0 for an
    /// unsharded engine and at `S = 1`, where nothing is split.
    pub misroutes: u64,
}

/// Per-partition cached key projections of one atom's delta batch:
/// `(partition id, key of deltas[i] at position i)`. Produced by
/// `update_trees_batch`'s routing, consumed by minor rebalancing.
type PartitionKeys = Vec<(usize, Vec<Tuple>)>;

/// Per batched relation: its atom occurrences and consolidated deltas.
type RelationWork = (Vec<usize>, Vec<(Tuple, i64)>);

/// A delta batch that passed [`IvmEngine::prepare_delta_batch`]: relations
/// resolved to atom occurrences (deterministic order), arities checked, and
/// the negative-multiplicity dry run done. Applying it cannot fail, which
/// is what lets [`ShardedEngine`](crate::ShardedEngine) dry-run a batch on
/// *every* shard before *any* shard mutates state.
pub(crate) struct PreparedBatch {
    work: Vec<RelationWork>,
    cardinality: usize,
}

/// The IVM^ε engine for one hierarchical query.
pub struct IvmEngine {
    query: Query,
    plan: Plan,
    rt: Runtime,
    enums: Vec<Vec<EnumNode>>,
    epsilon: f64,
    mode: Mode,
    /// Threshold base `M` with invariant `⌊M/4⌋ ≤ N < M` (Sec. 6.2).
    m_threshold: usize,
    /// Database size `N`: total number of distinct stored base tuples.
    n_size: usize,
    /// Component index of each atom occurrence.
    atom_comp: Vec<usize>,
    /// Per component: bumped by every applied batch that touches one of
    /// the component's relations. Readers (the sharded engine's merge
    /// cache, external result caches) compare versions to detect exactly
    /// which components' results may have changed.
    comp_versions: Vec<u64>,
    /// Per atom occurrence: its relation's total multiplicity `‖R‖`, the
    /// factor of [`MAX_VIEW_MULT`]'s bound.
    mass: Vec<i128>,
    stats: EngineStats,
}

impl IvmEngine {
    /// Compiles `query` and preprocesses it over `db`.
    pub fn new(
        query: &Query,
        db: &Database,
        opts: EngineOptions,
    ) -> Result<IvmEngine, EngineError> {
        if !(0.0..=1.0).contains(&opts.epsilon) {
            return Err(EngineError::InvalidEpsilon(opts.epsilon));
        }
        let plan = ivme_plan::compile(query, opts.mode).map_err(EngineError::NotHierarchical)?;
        let mut atom_comp = vec![0usize; query.atoms.len()];
        for (ci, comp) in plan.components.iter().enumerate() {
            for &a in &comp.atoms {
                atom_comp[a] = ci;
            }
        }
        let num_comps = plan.components.len();
        let mut rt = Runtime::build(&plan);
        // Enumeration compilation adds its indexes before any data exists.
        let mut enums = Vec::new();
        for (ci, comp) in plan.components.iter().enumerate() {
            let roots = rt.comp_roots[ci].clone();
            let trees: Vec<EnumNode> = roots
                .iter()
                .map(|&r| rt.build_enum(r, &query.free))
                .collect();
            let _ = comp;
            enums.push(trees);
        }
        // Load base relations.
        let mut mass = vec![0i128; query.atoms.len()];
        for (ai, atom) in query.atoms.iter().enumerate() {
            db.check_arity(&atom.relation, &atom.schema)
                .map_err(EngineError::Arity)?;
            let rel = rt.base_rel[ai];
            for (t, m) in db.rows(&atom.relation) {
                mass[ai] += i128::from(m);
                rt.rels[rel]
                    .apply(t, m)
                    .expect("database multiplicities are positive");
            }
        }
        if let Some(ci) = over_bound(&plan, &mass, |_| 0) {
            return Err(EngineError::Overflow(bound_message(query, &plan, ci)));
        }
        let n_size: usize = rt.base_rel.iter().map(|&r| rt.rels[r].len()).sum();
        let m_threshold = match opts.mode {
            Mode::Dynamic => 2 * n_size + 1,
            Mode::Static => n_size.max(1),
        };
        let mut eng = IvmEngine {
            query: query.clone(),
            plan,
            rt,
            enums,
            epsilon: opts.epsilon,
            mode: opts.mode,
            m_threshold,
            n_size,
            atom_comp,
            comp_versions: vec![0; num_comps],
            mass,
            stats: EngineStats::default(),
        };
        eng.rt.materialize_all(eng.theta_ceil());
        Ok(eng)
    }

    /// Convenience: parse, compile, and preprocess in one call.
    pub fn from_sql(src: &str, db: &Database, opts: EngineOptions) -> Result<IvmEngine, String> {
        let q = ivme_query::parse_query(src).map_err(|e| e.to_string())?;
        IvmEngine::new(&q, db, opts).map_err(|e| e.to_string())
    }

    /// The compiled query.
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// The compiled skew-aware plan.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// ε as configured.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Current database size `N` (distinct stored base tuples).
    pub fn db_size(&self) -> usize {
        self.n_size
    }

    /// Current threshold base `M`.
    pub fn threshold_base(&self) -> usize {
        self.m_threshold
    }

    /// Current heavy/light threshold `θ = M^ε`.
    pub fn theta(&self) -> f64 {
        (self.m_threshold as f64).powf(self.epsilon)
    }

    fn theta_ceil(&self) -> usize {
        self.theta().ceil().max(1.0) as usize
    }

    /// Maintenance counters.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Total entries across all materialized views, light parts, and heavy
    /// indicators (the "extra space" of the paper's Figs. 4/5).
    pub fn aux_space(&self) -> usize {
        let views: usize = self
            .rt
            .nodes
            .iter()
            .filter(|n| matches!(n.kind, crate::runtime::RtKind::View))
            .map(|n| self.rt.rels[n.rel].len())
            .sum();
        let lights: usize = self.rt.partitions.iter().map(|p| p.light().len()).sum();
        let heavies: usize = self
            .rt
            .heavy_rel
            .iter()
            .map(|&r| self.rt.rels[r].len())
            .sum();
        views + lights + heavies
    }

    /// Total number of heavy keys across all heavy indicators — the size
    /// of the on-the-fly portion of the representation (≤ N^{1−ε} per
    /// indicator).
    pub fn heavy_keys(&self) -> usize {
        self.rt
            .heavy_rel
            .iter()
            .map(|&r| self.rt.rels[r].len())
            .sum()
    }

    /// Total number of tuples across all light parts.
    pub fn light_tuples(&self) -> usize {
        self.rt.partitions.iter().map(|p| p.light().len()).sum()
    }

    /// Number of materialized views.
    pub fn num_views(&self) -> usize {
        self.rt
            .nodes
            .iter()
            .filter(|n| matches!(n.kind, crate::runtime::RtKind::View))
            .count()
    }

    // ------------------------------------------------------------------
    // Enumeration
    // ------------------------------------------------------------------

    /// Enumerates the distinct result tuples with their multiplicities,
    /// with `O(N^{1−ε})` delay (Prop. 22).
    pub fn enumerate(&self) -> ResultIter<'_> {
        ResultIter::new(&self.rt, &self.enums, self.query.free.arity())
    }

    /// Number of connected components of the query (one enumeration union
    /// each; the full result is their Cartesian product).
    pub fn num_components(&self) -> usize {
        self.enums.len()
    }

    /// Pushes component `ci`'s freeze into `sink`, with no lookups: every
    /// tree the engine materializes as flat occurrences, and each heavy
    /// tree (a root indicator node, Figs. 23/24) as one group per child
    /// for each live heavy key — the key's bucket is the product of those
    /// groups, and it is never formed. A tuple that several trees or
    /// buckets produce arrives once per producer, and the sink sums. A
    /// bag of parts, never a result: the building block of
    /// [`ShardedEngine`](crate::ShardedEngine)'s freeze, where parts sum
    /// across trees, buckets and shards and the full result is the
    /// product across components. The order of what is pushed is a
    /// function of the engine's apply history alone.
    pub fn freeze_component(&self, ci: usize, sink: &mut dyn FreezeSink) {
        freeze_component(&self.rt, &self.enums[ci], self.query.free.arity(), sink)
    }

    /// [`IvmEngine::freeze_component`]'s flat trees alone: every
    /// `flat` occurrence, no bucket.
    pub(crate) fn freeze_flat(&self, ci: usize, sink: &mut dyn FreezeSink) {
        freeze_flat(&self.rt, &self.enums[ci], self.query.free.arity(), sink)
    }

    /// [`IvmEngine::freeze_component`]'s heavy trees alone: every
    /// `bucket` and its factors, no flat occurrence.
    pub(crate) fn freeze_heavy(&self, ci: usize, sink: &mut dyn FreezeSink) {
        freeze_heavy(&self.rt, &self.enums[ci], self.query.free.arity(), sink)
    }

    /// The relation that is component `ci`'s flat part verbatim, when
    /// one covering root is its sole producer: the component's only tree
    /// that is not a heavy tree, whose stored tuples are the component's
    /// rows in order. Each live entry of its slab is one flat row. `None`
    /// when the flat part is summed from drained or several trees.
    /// Decided by the plan alone.
    pub(crate) fn verbatim_flat(&self, ci: usize) -> Option<&Relation> {
        verbatim_flat_tree(&self.rt, &self.enums[ci]).map(|t| t.storage(&self.rt))
    }

    /// The slots of [`IvmEngine::verbatim_flat`]'s relation whose entry
    /// changed since the last call, into `out`
    /// ([`Relation::take_changed_slots`]: `false` when no list says what
    /// changed — the first call, or a major rebalance cleared the root).
    /// The relation records nothing until the first call. Panics when the
    /// component has no verbatim flat root.
    pub(crate) fn take_flat_changes(&mut self, ci: usize, out: &mut Vec<SlotId>) -> bool {
        let node = verbatim_flat_tree(&self.rt, &self.enums[ci])
            .expect("a verbatim flat root")
            .node();
        self.rt.node_rel_mut(node).take_changed_slots(out)
    }

    /// The free positions each factor of component `ci`'s buckets binds,
    /// in [`FreezeSink::factor`]'s child order; empty when the component
    /// has no heavy tree.
    pub(crate) fn component_factor_positions(&self, ci: usize) -> Vec<&[usize]> {
        factor_positions(&self.enums[ci])
    }

    /// Positions, within the query's free schema, of the variables emitted
    /// by component `ci` (ascending; components partition the free schema).
    pub fn component_out_positions(&self, ci: usize) -> &[usize] {
        &self.enums[ci][0].out_positions
    }

    /// Version counter of component `ci`: bumped by every applied batch
    /// that touches one of the component's relations. Two equal readings
    /// guarantee the component's *result* (the multiset of tuples) did
    /// not change in between — the invalidation signal behind
    /// [`ShardedEngine`](crate::ShardedEngine)'s merge cache. Enumeration
    /// *order* is a weaker guarantee: a batch into another component can
    /// trigger a major rebalance that rebuilds every component's trees,
    /// reordering enumeration without moving this version — order-dependent
    /// readers (pagers) must key on all components' versions, not one.
    pub fn component_version(&self, ci: usize) -> u64 {
        self.comp_versions[ci]
    }

    /// Distinct base relation sizes — one entry per relation symbol
    /// (repeated-atom copies counted once), for diagnostics and the CLI's
    /// `stats`.
    pub fn base_relation_sizes(&self) -> Vec<(String, usize)> {
        self.query
            .atoms
            .iter()
            .enumerate()
            .filter(|(_, a)| a.occurrence == 0)
            .map(|(i, a)| (a.relation.clone(), self.rt.rels[self.rt.base_rel[i]].len()))
            .collect()
    }

    /// Exports the current base relations into `into` — one entry per
    /// relation symbol (repeated-atom copies hold identical contents, so
    /// occurrence 0 speaks for all). This is the engine half of
    /// snapshotting: the exported rows, fed back through preprocessing,
    /// rebuild an engine with the same served result.
    pub fn export_base_relations(&self, into: &mut Database) {
        for (i, atom) in self.query.atoms.iter().enumerate() {
            if atom.occurrence != 0 {
                continue;
            }
            for (t, m) in self.rt.rels[self.rt.base_rel[i]].iter() {
                into.insert(&atom.relation, t.clone(), m);
            }
        }
    }

    /// Collects and sorts the full result — test/bench helper.
    pub fn result_sorted(&self) -> Vec<(Tuple, i64)> {
        let mut out: Vec<(Tuple, i64)> = self.enumerate().collect();
        out.sort_unstable();
        out
    }

    /// Number of distinct result tuples: the product over components of
    /// their distinct counts (each counted through the deduplicating
    /// Union [`IvmEngine::enumerate`] runs, so the cross-component product
    /// is never walked), saturating at `usize::MAX`.
    pub fn count_distinct(&self) -> usize {
        let mut buf = vec![Value::Int(0); self.query.free.arity()];
        let mut scratch = EnumScratch::new();
        product_size(
            self.enums
                .iter()
                .map(|trees| count_component(&self.rt, trees, &mut buf, &mut scratch)),
        )
    }

    // ------------------------------------------------------------------
    // Serving reads: point lookups and paging
    // ------------------------------------------------------------------

    /// Multiplicity of one fully-specified result tuple, computed by
    /// walking the view trees **top-down** through the same stateless
    /// lookup machinery the Union algorithm uses — `O(N^{1−ε})` per
    /// indicator node and O(1) everywhere else, never an enumeration scan.
    ///
    /// Returns the summed multiplicity over each component's view trees,
    /// multiplied across components — 0 when the tuple is not in the
    /// result, including tuples whose arity does not match the free
    /// schema (a malformed tuple is never in the result; serving layers
    /// can forward untrusted probes without a crash surface).
    pub fn multiplicity(&self, tuple: &Tuple) -> i64 {
        if tuple.arity() != self.query.free.arity() || self.enums.is_empty() {
            return 0;
        }
        let mut scratch = EnumScratch::new();
        let mut seg: Vec<Value> = Vec::new();
        let mut total = 1i64;
        for ci in 0..self.enums.len() {
            seg.clear();
            seg.extend(
                self.component_out_positions(ci)
                    .iter()
                    .map(|&p| tuple.get(p).clone()),
            );
            let m = self.component_multiplicity_with(ci, &seg, &mut scratch);
            if m == 0 {
                return 0;
            }
            total = total.saturating_mul(m);
        }
        total
    }

    /// Whether `tuple` is in the current result (a point lookup, not a
    /// scan).
    pub fn contains(&self, tuple: &Tuple) -> bool {
        self.multiplicity(tuple) != 0
    }

    /// Multiplicity of `seg` (the values of component `ci`'s free
    /// variables, in [`IvmEngine::component_out_positions`] order) within
    /// that component's result: the sum of the stateless tree lookups.
    fn component_multiplicity_with(
        &self,
        ci: usize,
        seg: &[Value],
        scratch: &mut EnumScratch,
    ) -> i64 {
        let ctx = Tuple::empty();
        self.enums[ci]
            .iter()
            .map(|tree| tree.lookup(&self.rt, &ctx, seg, scratch))
            .sum()
    }

    /// One page of the result in enumeration order: skips `offset` tuples,
    /// then collects up to `limit`.
    ///
    /// The skip exploits the cross-component odometer: the offset is
    /// decomposed mixed-radix over the component result sizes, so each
    /// component iterator advances only to its own digit — at most
    /// `O(Σ_i |C_i|)` instead of `O(offset)` product steps, and trailing
    /// components are counted only while the remaining digits are
    /// non-zero (a first page costs nothing extra). Single-component
    /// queries degenerate to an `O(offset)` skip. The page boundary is
    /// stable as long as no update lands in between (updates may reorder
    /// enumeration).
    pub fn enumerate_page(&self, offset: usize, limit: usize) -> Vec<(Tuple, i64)> {
        let mut it = self.enumerate();
        if !it.seek(offset) {
            return Vec::new();
        }
        it.take(limit).collect()
    }

    // ------------------------------------------------------------------
    // Updates (Fig. 22: OnUpdate, generalized to batches)
    // ------------------------------------------------------------------

    /// Applies a single-tuple update `δR = {tuple → delta}` to relation
    /// `relation`. Inserts have `delta > 0`, deletes `delta < 0`; deletes
    /// exceeding the stored multiplicity are rejected. With repeated
    /// relation symbols the update is applied to each occurrence in
    /// sequence (paper footnote 2).
    ///
    /// This is a batch of one: see [`IvmEngine::apply_batch`] for the
    /// general entry point and the shared semantics.
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

    /// Applies a batch of single-tuple updates as one maintenance round.
    ///
    /// The updates are consolidated per relation and tuple (a +1/−1 pair
    /// on the same tuple cancels), validated, and applied **atomically**:
    /// if any *net* delta would drive a stored multiplicity negative, or
    /// names an unknown relation, or has the wrong arity, the engine is
    /// left untouched and the error returned. A valid batch reaches the same
    /// *result* as applying its updates one by one, with partitions equal up
    /// to Def. 11's slack: each delta is routed by its key's side before
    /// the batch, and a key that crossed a threshold migrates once, right
    /// after its atom occurrence is applied and before the next one, so
    /// no light tree joins a light group of `1.5·θ` tuples or more.
    /// Maintenance does one group-product per *distinct dirty key* per
    /// view node instead of one trigger walk per tuple, and rebalancing
    /// bookkeeping is charged once with the batch's cardinality, preserving
    /// the amortized `O(N^{δε})` bound per update.
    pub fn apply_batch(&mut self, updates: &[Update]) -> Result<(), UpdateError> {
        let batch = DeltaBatch::from_updates(updates);
        self.apply_delta_batch(&batch)
    }

    /// [`IvmEngine::apply_batch`] for a pre-consolidated [`DeltaBatch`].
    pub fn apply_delta_batch(&mut self, batch: &DeltaBatch) -> Result<(), UpdateError> {
        let prepared = self.prepare_delta_batch(batch)?;
        self.apply_prepared(prepared);
        Ok(())
    }

    /// Validation half of [`IvmEngine::apply_delta_batch`]: resolves every
    /// relation to its atom occurrences, checks arities, dry-runs the
    /// negative-multiplicity rule and admits the batch under
    /// [`MAX_VIEW_MULT`] — all against `&self`, mutating nothing.
    pub(crate) fn prepare_delta_batch(
        &self,
        batch: &DeltaBatch,
    ) -> Result<PreparedBatch, UpdateError> {
        if self.mode == Mode::Static {
            return Err(UpdateError::StaticMode);
        }
        if let Some((relation, t)) = batch.overflow() {
            let msg = format!("the deltas of {relation}{t} sum past i64");
            return Err(UpdateError::Overflow(msg));
        }
        // What the batch may add to each atom's total multiplicity: its
        // positive deltas, so every partial sum maintenance forms stays
        // under the bound too.
        let mut grow = vec![0i128; self.query.atoms.len()];
        // Resolve and validate everything up front so rejection is atomic.
        let mut relations: Vec<&str> = batch.relations().collect();
        relations.sort_unstable(); // deterministic application order
        let mut work: Vec<RelationWork> = Vec::new();
        for relation in relations {
            let atoms: Vec<usize> = (0..self.query.atoms.len())
                .filter(|&a| self.query.atoms[a].relation == relation)
                .collect();
            if atoms.is_empty() {
                return Err(UpdateError::UnknownRelation(relation.to_owned()));
            }
            let deltas = batch.deltas_vec(relation);
            for &a in &atoms {
                let arity = self.query.atoms[a].schema.arity();
                for (t, _) in &deltas {
                    if t.arity() != arity {
                        return Err(UpdateError::Arity(format!(
                            "tuple {t:?} does not match schema {:?} of {relation}",
                            self.query.atoms[a].schema
                        )));
                    }
                }
            }
            // Negative-multiplicity dry run against the first occurrence:
            // occurrences are identical copies receiving identical deltas,
            // so one check covers them all. A batch with no negative net
            // delta cannot underflow — pure insert loads skip the probes.
            if deltas.iter().any(|(_, d)| *d < 0) {
                let base = self.rt.base_rel[atoms[0]];
                for (t, d) in &deltas {
                    let present = self.rt.rels[base].get(t);
                    match present.checked_add(*d) {
                        Some(m) if m >= 0 => {}
                        Some(_) => {
                            return Err(UpdateError::Negative(NegativeMultiplicity {
                                tuple: t.clone(),
                                present,
                                delta: *d,
                            }))
                        }
                        None => {
                            let msg = format!("{relation}{t} has {present}, +{d} is past i64");
                            return Err(UpdateError::Overflow(msg));
                        }
                    }
                }
            }
            let pos: i128 = deltas.iter().map(|(_, d)| i128::from(*d).max(0)).sum();
            for &a in &atoms {
                grow[a] = pos;
            }
            work.push((atoms, deltas));
        }
        if let Some(ci) = over_bound(&self.plan, &self.mass, |a| grow[a]) {
            let msg = bound_message(&self.query, &self.plan, ci);
            return Err(UpdateError::Overflow(msg));
        }
        Ok(PreparedBatch {
            work,
            cardinality: batch.cardinality(),
        })
    }

    /// Mutation half of [`IvmEngine::apply_delta_batch`]: applies a batch
    /// that [`IvmEngine::prepare_delta_batch`] already validated. Infallible
    /// by construction.
    pub(crate) fn apply_prepared(&mut self, prepared: PreparedBatch) {
        let PreparedBatch { work, cardinality } = prepared;
        // Invalidate read caches precisely: bump the version of every
        // component whose relations this batch touches (and only those).
        for ci in 0..self.comp_versions.len() {
            if work
                .iter()
                .any(|(atoms, _)| atoms.iter().any(|&a| self.atom_comp[a] == ci))
            {
                self.comp_versions[ci] += 1;
            }
        }
        // Apply per atom occurrence: trees, light parts, and indicators,
        // then the minor-rebalancing checks on the keys its routing
        // projected (Fig. 22). Checking before the next occurrence is
        // applied keeps every light degree that occurrence's light trees
        // join with below `1.5·θ`, as the `O(N^ε)` light-tree bound needs.
        for (atoms, deltas) in &work {
            let net: i128 = deltas.iter().map(|(_, d)| i128::from(*d)).sum();
            for &a in atoms {
                self.mass[a] += net;
                let keys = self.update_trees_batch(a, deltas);
                self.minor_rebalance_batch(a, keys);
            }
        }
        self.stats.updates += cardinality as u64;
        self.stats.batches += 1;
        // Restore the size invariant ⌊M/4⌋ ≤ N < M. A batch can overshoot
        // the thresholds by more than 2×, so double/halve to a fixpoint and
        // recompute once (`MajorRebalancing`, Fig. 20, charged per batch).
        let mut resized = false;
        while self.n_size >= self.m_threshold {
            self.m_threshold *= 2;
            resized = true;
        }
        while self.n_size < self.m_threshold / 4 {
            self.m_threshold = (self.m_threshold / 2).saturating_sub(1).max(1);
            resized = true;
        }
        if resized {
            // The minor checks above ran anyway: deferring them to this
            // rebuild would let a later occurrence's light trees join a
            // group past `1.5·θ`.
            self.major_rebalance();
        }
    }

    /// `UpdateTrees` (Fig. 19) for a consolidated per-atom delta set:
    /// pushes the deltas through every view tree, light part, indicator
    /// tree, and heavy indicator, grouping per-node work by dirty key.
    ///
    /// Returns, per partition of the atom, the partition key of every delta
    /// tuple (projected exactly once, while routing) so the caller's
    /// minor-rebalancing sweep reuses the cached keys instead of
    /// re-projecting.
    fn update_trees_batch(&mut self, atom: usize, deltas: &[(Tuple, i64)]) -> PartitionKeys {
        // Route each delta by its key's side before the batch: to the light
        // part iff the key is light or absent from R (Fig. 19 line 10).
        // Keys these deltas carry across a threshold move right after this
        // occurrence, in minor rebalancing (Fig. 22). A key's light degree
        // is its group size in L, so `degree > 0` doubles as the
        // `key ∈ π_S L` test.
        let base = self.rt.base_rel[atom];
        let mut part_keys: PartitionKeys = Vec::new();
        let mut light_sub: Vec<(usize, Vec<(Tuple, i64)>)> = Vec::new();
        for pi in 0..self.rt.partitions.len() {
            if self.rt.part_atom[pi] != atom {
                continue;
            }
            let idx = self.rt.base_part_idx[pi];
            let part = &self.rt.partitions[pi];
            let mut sub: Vec<(Tuple, i64)> = Vec::new();
            let mut tuple_keys: Vec<Tuple> = Vec::with_capacity(deltas.len());
            for (t, d) in deltas {
                let key = part.key_of(t);
                if part.light_degree(&key) > 0 || !self.rt.rels[base].group_contains(idx, &key) {
                    sub.push((t.clone(), *d));
                }
                tuple_keys.push(key);
            }
            if !sub.is_empty() {
                light_sub.push((pi, sub));
            }
            part_keys.push((pi, tuple_keys));
        }
        // 1. Base relation, atomically (legality was validated up front).
        let outcome = self.rt.rels[base].apply_batch_unchecked(deltas);
        self.n_size = (self.n_size as i64 + outcome.net_size_change()) as usize;
        // 2. Propagate through every tree reading this atom directly
        //    (component trees and indicator All-trees).
        self.rt.propagate_atom_leaves(atom, deltas);
        // 3. Light parts and the trees reading them (component light trees
        //    and indicator L-trees).
        for (pi, sub) in light_sub {
            self.rt.partitions[pi]
                .light_mut()
                .apply_batch_unchecked(&sub);
            self.rt.propagate_part_leaves(pi, &sub);
        }
        // 4. Refresh the heavy indicators at every distinct touched key and
        //    propagate the collected δ(∃H) (Fig. 18 / Fig. 19 lines 8-14).
        for ind in 0..self.rt.heavy_rel.len() {
            let Some(pos) = self.rt.ind_key_pos_in_atom[ind].get(&atom).cloned() else {
                continue;
            };
            let mut seen: FxHashSet<Tuple> =
                FxHashSet::with_capacity_and_hasher(deltas.len(), Default::default());
            let mut dh: Vec<(Tuple, i64)> = Vec::new();
            for (t, _) in deltas {
                let key = t.project(&pos);
                if seen.insert(key.clone()) {
                    if let Some(d) = self.rt.refresh_heavy(ind, &key) {
                        dh.push(d);
                    }
                }
            }
            if !dh.is_empty() {
                self.rt.propagate_ind_leaves(ind, &dh);
            }
        }
        part_keys
    }

    /// `MajorRebalancing` (Fig. 20): strict repartition with the new
    /// threshold and recomputation of all views.
    fn major_rebalance(&mut self) {
        self.stats.major_rebalances += 1;
        self.rt.materialize_all(self.theta_ceil());
    }

    /// `MinorRebalancing` checks (Fig. 22 lines 9-15) for every partition
    /// of the updated atom, once per **distinct key** the batch touched;
    /// migrations move whole keys between the light and heavy sides and
    /// propagate the resulting deltas (Fig. 21). The keys were projected by
    /// `update_trees_batch`'s routing and arrive pre-computed.
    fn minor_rebalance_batch(&mut self, atom: usize, part_keys: PartitionKeys) {
        let theta = self.theta();
        for (pi, tuple_keys) in part_keys {
            let mut seen: FxHashSet<Tuple> =
                FxHashSet::with_capacity_and_hasher(tuple_keys.len(), Default::default());
            for key in tuple_keys {
                if seen.insert(key.clone()) {
                    self.minor_rebalance_key(pi, atom, &key, theta);
                }
            }
        }
    }

    /// One minor-rebalancing check for one partition key.
    fn minor_rebalance_key(&mut self, pi: usize, atom: usize, key: &Tuple, theta: f64) {
        let light_deg = self.rt.partitions[pi].light_degree(key);
        let base = self.rt.base_rel[atom];
        let full_deg = self.rt.rels[base].group_len(self.rt.base_part_idx[pi], key);
        let deltas: Vec<(Tuple, i64)>;
        if light_deg == 0 && full_deg > 0 && (full_deg as f64) < 0.5 * theta {
            // Heavy → light.
            let Runtime {
                rels,
                partitions,
                base_rel,
                base_part_idx,
                part_atom,
                ..
            } = &mut self.rt;
            let b = &rels[base_rel[part_atom[pi]]];
            deltas = partitions[pi].migrate_in(b, base_part_idx[pi], key);
        } else if (light_deg as f64) >= 1.5 * theta {
            // Light → heavy.
            deltas = self.rt.partitions[pi].migrate_out(key);
        } else {
            return;
        }
        self.stats.minor_rebalances += 1;
        self.rt.propagate_part_leaves(pi, &deltas);
        // The migration may flip the heavy indicator at this key.
        for ind in 0..self.rt.heavy_rel.len() {
            if !self.rt.ind_key_pos_in_atom[ind].contains_key(&atom) {
                continue;
            }
            if !self.plan.indicators[ind]
                .keys
                .same_set(self.rt.partitions[pi].key())
            {
                continue;
            }
            if let Some(dh) = self.rt.refresh_heavy(ind, key) {
                let dh = [dh];
                self.rt.propagate_ind_leaves(ind, &dh);
            }
        }
    }

    /// Validates every internal invariant against brute-force recomputation
    /// — test support, O(N^k).
    pub fn check_consistency(&self) -> Result<(), String> {
        #[cfg(test)]
        self.rt.check_all_views()?;
        // Partitions satisfy Def. 11 slack conditions.
        for pi in 0..self.rt.partitions.len() {
            let atom = self.rt.part_atom[pi];
            let base = &self.rt.rels[self.rt.base_rel[atom]];
            self.rt.partitions[pi]
                .check_invariants(base, self.rt.base_part_idx[pi], self.theta_ceil())
                .map_err(|e| format!("partition {pi}: {e}"))?;
        }
        Ok(())
    }
}

/// The first component of `plan` whose bound `Π_{atoms a} max(1, ‖R_a‖ +
/// grow(a))` on its views' multiplicities passes [`MAX_VIEW_MULT`].
fn over_bound(plan: &Plan, mass: &[i128], grow: impl Fn(usize) -> i128) -> Option<usize> {
    plan.components.iter().position(|comp| {
        let bound = comp.atoms.iter().try_fold(1i128, |acc, &a| {
            acc.checked_mul((mass[a] + grow(a)).max(1))
                .filter(|&b| b <= i128::from(MAX_VIEW_MULT))
        });
        bound.is_none()
    })
}

/// Why component `ci` was refused, naming its relations.
fn bound_message(query: &Query, plan: &Plan, ci: usize) -> String {
    let rels: Vec<&str> = plan.components[ci]
        .atoms
        .iter()
        .map(|&a| query.atoms[a].relation.as_str())
        .collect();
    format!(
        "a view over {} could pass 2^62 (the product of their total multiplicities)",
        rels.join(", ")
    )
}
