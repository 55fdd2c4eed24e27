//! Enumeration of the query result from the materialized view trees
//! (paper Sec. 5, Figs. 13–16).
//!
//! Each view-tree node is compiled into an `EnumNode`:
//!
//! * **Covering** — the node's schema contains every free variable of its
//!   subtree: enumerate its stored tuples directly (Fig. 13 line 4).
//! * **Directory** — iterate the node's distinct tuples within the parent
//!   context; for each, form the Cartesian **Product** (Fig. 16) of the
//!   children opened with that tuple as context.
//! * **Buckets** — the node has a heavy-indicator child: ground `∃H` into
//!   one shallow instance per heavy key and enumerate their **Union**
//!   (Fig. 15, the Durand–Strozecki algorithm) with per-bucket lookups for
//!   deduplication and multiplicity summation.
//!
//! The top level unions the trees of each component and takes the product
//! across components. Every enumerator writes the variables it binds into a
//! shared buffer indexed by the query's free schema, so tuples assemble
//! without repeated re-projection.
//!
//! # One union form, and a separate push freeze
//!
//! A `Union` — over a component's trees, or over the heavy buckets of an
//! indicator node — has one form, Fig. 15 as printed: `O(#parts)`
//! membership lookups per emitted tuple suppress duplicates *without
//! materializing* anything. At an indicator node `#parts` is the number of
//! heavy keys, at most `N^{1−ε}` — this is the paper's enumeration delay
//! (Prop. 22), and the bound [`ResultIter`] (`IvmEngine::enumerate`,
//! `enumerate_page`, `count_distinct`) keeps.
//!
//! The frozen snapshot
//! ([`ShardedEngine::snapshot`](crate::ShardedEngine::snapshot)) does not
//! go through the iterators at all, and it does not materialize the
//! result either: it keeps the parts the engine keeps. `freeze_component`
//! pushes them into a [`FreezeSink`], in two halves the snapshot can ask
//! for apart: `freeze_flat` and `freeze_heavy`. The trees the engine
//! materializes are walked by `EnumNode::drain_each` — plain nested loops
//! (Fig. 16 written as recursion) that *push* every `(values,
//! multiplicity)` occurrence. When one covering root is a component's
//! only flat tree and stores its rows verbatim (`verbatim_flat_tree`, the
//! test `EnumNode::stores_rows_of` makes), a single-shard snapshot skips
//! that walk: it keeps a mirror of the root's slab and patches it from
//! the slots the root reports changed, and asks for the heavy half alone.
//! A heavy tree — a root indicator node, Figs. 23/24 — is
//! pushed per live heavy key as one drain per child: the factors of that
//! key's bucket, whose product is left unformed, so the heavy part costs
//! `Σ |factor|` rows where its tuples number `Π |factor|`. A tuple living
//! in `k` parts comes out `k` times, and the snapshot settles where it
//! lives on its first positional read. The freeze keeps no delay bound
//! and needs none, and it takes no [`EnumScratch`] — the only way to
//! reach `EnumNode::lookup` — so "the freeze never looks up" holds by
//! signature. Nor does it build a `Tuple` (which hashes at construction)
//! per occurrence: the sink borrows the bound values as a slice and
//! copies a row only on first sight.
//!
//! # The zero-clone serving discipline
//!
//! The paper's constant-delay guarantee is only as good as the constant,
//! and the constant is dominated by allocator and hashing traffic. The
//! iterators here therefore never copy a stored tuple per step:
//!
//! * The runtime is borrowed immutably for the whole life of an iterator,
//!   so cursors hold `&'e Tuple` **references** into storage — directory
//!   contexts, product contexts, and grounded heavy keys are borrowed, not
//!   cloned, and a covering node replays its current tuple straight from
//!   its scan cursor instead of keeping a cloned `last`.
//! * Output values move through the shared position-indexed buffer by
//!   cheap per-`Value` copy (an `Int` is a copy, a `Str` an `Arc` bump);
//!   fresh `Tuple`s (which hash at construction) are built only for the
//!   items actually handed to the caller.
//! * Transient segment projections inside the Union's lookups go through
//!   an [`EnumScratch`] buffer pool (the read-path mirror of the
//!   maintenance path's `PropScratch`), so steady-state enumeration and
//!   point lookups allocate nothing per step.

use ivme_data::{IndexId, Relation, Schema, SlotId, Tuple, Value};

use crate::runtime::{NodeId, RtKind, Runtime};

/// How one variable of a node's stored schema is obtained during lookups.
#[derive(Clone, Copy, Debug)]
enum SVal {
    /// From the parent context tuple at this position.
    Ctx(usize),
    /// From the node's output segment at this index.
    Seg(usize),
}

/// Reusable buffers for the read path: a pool of `Value` vectors handed
/// out to the recursive Union/lookup machinery (child-segment projections,
/// candidate segments) so steady-state enumeration allocates nothing per
/// step. Owned by each iterator; a fresh pool is `Vec::new()`-cheap, so
/// one-shot point lookups can build one on the stack.
#[derive(Default)]
pub struct EnumScratch {
    pool: Vec<Vec<Value>>,
    /// `EnumNode::lookup` calls made with this scratch — the read path's
    /// deterministic work count (`tests/paper_bounds.rs`).
    lookups: u64,
}

impl EnumScratch {
    /// An empty pool (no allocation until a buffer is first used).
    pub fn new() -> EnumScratch {
        EnumScratch::default()
    }

    #[inline]
    fn take(&mut self) -> Vec<Value> {
        self.pool.pop().unwrap_or_default()
    }

    #[inline]
    fn put(&mut self, mut buf: Vec<Value>) {
        buf.clear();
        self.pool.push(buf);
    }
}

/// Compiled enumeration info for one view-tree node.
pub(crate) struct EnumNode {
    mat: NodeId,
    /// Positions (in the query's free schema) of the variables this
    /// subtree emits, ascending.
    pub out_positions: Vec<usize>,
    /// Variables emitted by this node itself: (position in schema,
    /// position in the shared buffer).
    own_emit: Vec<(usize, usize)>,
    /// Positions, within the parent's schema, of `schema ∩ parent-schema`
    /// (used to project the context tuple to this node's group key).
    ctx_pos_in_parent: Vec<usize>,
    /// Index on `schema ∩ parent-schema` in this node's storage; `None`
    /// means full scan (roots).
    ctx_index: Option<IndexId>,
    /// Assembly of a full stored tuple from (context, segment) — lookups.
    s_assembly: Vec<SVal>,
    kind: EnumKind,
}

enum EnumKind {
    Covering,
    Directory {
        children: Vec<EnumNode>,
        /// For child `i`'s k-th output position, its index within this
        /// node's `out_positions`.
        child_seg_idx: Vec<Vec<usize>>,
    },
    Buckets {
        ind: usize,
        /// Index on `keys ∩ parent-schema` in the H relation.
        h_ctx_index: Option<IndexId>,
        children: Vec<EnumNode>,
        child_seg_idx: Vec<Vec<usize>>,
    },
}

impl Runtime {
    /// Compiles the enumeration tree for a component tree root.
    pub(crate) fn build_enum(&mut self, root: NodeId, free: &Schema) -> EnumNode {
        self.build_enum_at(root, &Schema::empty(), free)
    }

    fn subtree_free(&self, n: NodeId, free: &Schema) -> Schema {
        let mut vars = self.nodes[n].schema.clone();
        let mut stack = vec![n];
        while let Some(x) = stack.pop() {
            vars = vars.union(&self.nodes[x].schema);
            stack.extend(self.nodes[x].children.iter().copied());
        }
        free.intersect(&vars)
    }

    fn build_enum_at(&mut self, n: NodeId, parent_schema: &Schema, free: &Schema) -> EnumNode {
        let schema = self.nodes[n].schema.clone();
        let sub_free = self.subtree_free(n, free);
        let out_vars = sub_free.difference(parent_schema);
        let mut out_positions: Vec<usize> = out_vars
            .vars()
            .iter()
            .map(|&v| free.position(v).unwrap())
            .collect();
        out_positions.sort_unstable();
        // Canonical out order = free-schema order.
        let out_schema: Schema = out_positions.iter().map(|&p| free.vars()[p]).collect();

        let own_vars = schema.intersect(free).difference(parent_schema);
        let own_emit: Vec<(usize, usize)> = own_vars
            .vars()
            .iter()
            .map(|&v| (schema.position(v).unwrap(), free.position(v).unwrap()))
            .collect();

        let ctx_schema = schema.intersect(parent_schema);
        let ctx_pos_in_parent = parent_schema.positions_of(&ctx_schema);
        let ctx_index = if ctx_schema.is_empty() {
            None
        } else {
            Some(self.add_index_to_node(n, &ctx_schema))
        };

        let is_leaf = self.nodes[n].children.is_empty();
        let covering = is_leaf || schema.contains_all(&sub_free);
        let kind = if covering {
            EnumKind::Covering
        } else {
            let mat_children = self.nodes[n].children.clone();
            let h_child = mat_children
                .iter()
                .copied()
                .find(|&c| matches!(self.nodes[c].kind, RtKind::LeafHeavy(_)));
            let non_heavy: Vec<NodeId> = mat_children
                .iter()
                .copied()
                .filter(|&c| !matches!(self.nodes[c].kind, RtKind::LeafHeavy(_)))
                .collect();
            let enum_children: Vec<EnumNode> = non_heavy
                .into_iter()
                .map(|c| self.build_enum_at(c, &schema, free))
                .collect();
            let child_seg_idx: Vec<Vec<usize>> = enum_children
                .iter()
                .map(|c| {
                    c.out_positions
                        .iter()
                        .map(|p| out_positions.iter().position(|q| q == p).unwrap())
                        .collect()
                })
                .collect();
            match h_child {
                None => EnumKind::Directory {
                    children: enum_children,
                    child_seg_idx,
                },
                Some(hc) => {
                    let RtKind::LeafHeavy(ind) = self.nodes[hc].kind else {
                        unreachable!()
                    };
                    assert!(
                        own_emit.is_empty(),
                        "indicator nodes emit nothing themselves"
                    );
                    let h_ctx_index = if ctx_schema.is_empty() {
                        None
                    } else {
                        let h = self.heavy_rel[ind];
                        Some(self.rels[h].add_index(&ctx_schema))
                    };
                    EnumKind::Buckets {
                        ind,
                        h_ctx_index,
                        children: enum_children,
                        child_seg_idx,
                    }
                }
            }
        };
        // Assembly of the full stored tuple (for lookups): every schema
        // variable must come from the context or from the out segment.
        // Indicator (Buckets) nodes are exempt — their bound heavy variable
        // is resolved by grounding, never by assembly.
        let s_assembly: Vec<SVal> = if matches!(kind, EnumKind::Buckets { .. }) {
            Vec::new()
        } else {
            schema
                .vars()
                .iter()
                .map(|&v| {
                    if let Some(p) = parent_schema.position(v) {
                        // Lookup contexts are full parent-schema tuples.
                        SVal::Ctx(p)
                    } else if let Some(i) = out_schema.position(v) {
                        SVal::Seg(i)
                    } else {
                        panic!(
                            "enumeration invariant violated at {}: variable {v} is \
                             neither context nor output",
                            self.nodes[n].name
                        )
                    }
                })
                .collect()
        };
        EnumNode {
            mat: n,
            out_positions,
            own_emit,
            ctx_pos_in_parent,
            ctx_index,
            s_assembly,
            kind,
        }
    }
}

impl EnumNode {
    /// The relation storing this node's tuples.
    pub(crate) fn storage<'r>(&self, rt: &'r Runtime) -> &'r Relation {
        rt.node_rel(self.mat)
    }

    /// The view-tree node this node enumerates.
    pub(crate) fn node(&self) -> NodeId {
        self.mat
    }

    fn assemble_s(&self, ctx: &Tuple, seg: &[Value]) -> Tuple {
        self.s_assembly
            .iter()
            .map(|sv| match *sv {
                SVal::Ctx(p) => ctx.get(p).clone(),
                SVal::Seg(i) => seg[i].clone(),
            })
            .collect()
    }

    /// Projects `seg` onto child `child_idx` into the reusable `out`.
    fn child_seg_into(child_idx: &[usize], seg: &[Value], out: &mut Vec<Value>) {
        out.clear();
        out.extend(child_idx.iter().map(|&k| seg[k].clone()));
    }

    /// Stateless multiplicity lookup of an output segment under a context
    /// (used by the Union algorithm; O(#buckets) at indicator nodes).
    /// Transient child-segment projections are staged in `scratch`.
    pub(crate) fn lookup(
        &self,
        rt: &Runtime,
        ctx: &Tuple,
        seg: &[Value],
        scratch: &mut EnumScratch,
    ) -> i64 {
        scratch.lookups += 1;
        match &self.kind {
            EnumKind::Covering => self.storage(rt).get(&self.assemble_s(ctx, seg)),
            EnumKind::Directory {
                children,
                child_seg_idx,
            } => {
                let s = self.assemble_s(ctx, seg);
                if self.storage(rt).get(&s) == 0 {
                    return 0;
                }
                let mut m = 1i64;
                let mut cs = scratch.take();
                for (i, c) in children.iter().enumerate() {
                    Self::child_seg_into(&child_seg_idx[i], seg, &mut cs);
                    let cm = c.lookup(rt, &s, &cs, scratch);
                    if cm == 0 {
                        scratch.put(cs);
                        return 0;
                    }
                    m = m.saturating_mul(cm);
                }
                scratch.put(cs);
                m
            }
            EnumKind::Buckets {
                ind,
                h_ctx_index,
                children,
                child_seg_idx,
            } => {
                let h_rel = &rt.rels[rt.heavy_rel[*ind]];
                let v_rel = self.storage(rt);
                let mut total = 0i64;
                let mut cs = scratch.take();
                let mut each = |h: &Tuple, total: &mut i64, scratch: &mut EnumScratch| {
                    if v_rel.get(h) == 0 {
                        return;
                    }
                    let mut m = 1i64;
                    for (i, c) in children.iter().enumerate() {
                        Self::child_seg_into(&child_seg_idx[i], seg, &mut cs);
                        let cm = c.lookup(rt, h, &cs, scratch);
                        if cm == 0 {
                            return;
                        }
                        m = m.saturating_mul(cm);
                    }
                    *total = total.saturating_add(m);
                };
                match h_ctx_index {
                    Some(ix) => {
                        let key = ctx.project(&self.ctx_pos_in_parent);
                        for (h, _) in h_rel.group_iter(*ix, &key) {
                            each(h, &mut total, scratch);
                        }
                    }
                    None => {
                        for (h, _) in h_rel.iter() {
                            each(h, &mut total, scratch);
                        }
                    }
                }
                scratch.put(cs);
                total
            }
        }
    }

    /// The push drain: every `(values, multiplicity)` occurrence of this
    /// subtree under `ctx`, each exactly once, as nested loops — Covering:
    /// scan and emit; Directory: scan, then the children's product under
    /// the scanned tuple; Buckets: for each live heavy key in context, the
    /// children's product under it. The subtree's variables are bound in
    /// `buf` when `sink` runs (it is handed `buf` back); nothing is
    /// replayed, because a loop level only ever writes its own positions.
    /// The order is storage order at every level: first child outermost,
    /// heavy keys as the indicator relation lists them.
    pub(crate) fn drain_each(
        &self,
        rt: &Runtime,
        ctx: &Tuple,
        buf: &mut [Value],
        sink: &mut dyn FnMut(&mut [Value], i64),
    ) {
        let key = ctx.project(&self.ctx_pos_in_parent);
        let bind = |t: &Tuple, buf: &mut [Value]| {
            for &(sp, bp) in &self.own_emit {
                buf[bp] = t.get(sp).clone();
            }
        };
        match &self.kind {
            EnumKind::Covering => scan_each(self.storage(rt), self.ctx_index, &key, |t, m| {
                bind(t, buf);
                sink(buf, m)
            }),
            EnumKind::Directory { children, .. } => {
                scan_each(self.storage(rt), self.ctx_index, &key, |t, _| {
                    bind(t, buf);
                    drain_product(children, rt, t, buf, 1, sink)
                })
            }
            EnumKind::Buckets {
                ind,
                h_ctx_index,
                children,
                ..
            } => {
                let v_rel = self.storage(rt);
                scan_each(&rt.rels[rt.heavy_rel[*ind]], *h_ctx_index, &key, |h, _| {
                    if v_rel.get(h) != 0 {
                        drain_product(children, rt, h, buf, 1, sink)
                    }
                })
            }
        }
    }
}

/// Visits `rel`'s group under `key` in `index`, or all of `rel` when there
/// is no index, in storage order.
fn scan_each(
    rel: &Relation,
    index: Option<IndexId>,
    key: &Tuple,
    mut each: impl FnMut(&Tuple, i64),
) {
    match index {
        Some(ix) => rel.group_iter(ix, key).for_each(|(t, m)| each(t, m)),
        None => rel.iter().for_each(|(t, m)| each(t, m)),
    }
}

/// The product of `children` under the shared context `ctx` as recursion
/// (Fig. 16 without the odometer): the first child's occurrences are the
/// outer loop, the rest run inside each of them, and `sink` sees the
/// running multiplicity `mult · Π m_i` once every child has bound its
/// variables.
fn drain_product(
    children: &[EnumNode],
    rt: &Runtime,
    ctx: &Tuple,
    buf: &mut [Value],
    mult: i64,
    sink: &mut dyn FnMut(&mut [Value], i64),
) {
    match children.split_first() {
        None => sink(buf, mult),
        Some((first, rest)) => first.drain_each(rt, ctx, buf, &mut |buf, m| {
            drain_product(rest, rt, ctx, buf, mult * m, sink)
        }),
    }
}

/// Receives one component's freeze
/// ([`IvmEngine::freeze_component`](crate::IvmEngine::freeze_component)):
/// the trees the engine materializes as flat occurrences, and the
/// component's heavy trees as, per live heavy key, one group per child —
/// the factors whose product is that key's bucket, never formed here.
pub trait FreezeSink {
    /// One occurrence of a tree drained flat: the component's values, in
    /// [`IvmEngine::component_out_positions`](crate::IvmEngine::component_out_positions)
    /// order and lent for the call only, their [`Tuple::hash_of`], and
    /// the multiplicity.
    fn flat(&mut self, row: &[Value], hash: u64, m: i64);
    /// The next live heavy key: the `factor` calls up to the next
    /// `bucket` are its children's drains. Every child of a live key
    /// pushes at least one row.
    fn bucket(&mut self);
    /// One occurrence of child `f`'s drain under the current heavy key:
    /// the values of the child's variables, in free-schema order. A child
    /// with nested indicators can push a row more than once.
    fn factor(&mut self, f: usize, row: &[Value], m: i64);
}

impl EnumNode {
    /// Whether a stored tuple of this (root) node is, verbatim, a row of
    /// a component emitting `positions`: a covering node whose whole
    /// schema is free and bound in that order.
    fn stores_rows_of(&self, rt: &Runtime, positions: &[usize]) -> bool {
        matches!(self.kind, EnumKind::Covering)
            && rt.nodes[self.mat].schema.arity() == positions.len()
            && self
                .own_emit
                .iter()
                .enumerate()
                .all(|(i, &(sp, bp))| sp == i && positions.get(i) == Some(&bp))
    }
}

/// The free positions each child of `tree`'s root binds, when the root is
/// an indicator node: the factors of its buckets, in child order.
fn bucket_factors(tree: &EnumNode) -> Option<Vec<&[usize]>> {
    match &tree.kind {
        EnumKind::Buckets { children, .. } => Some(
            children
                .iter()
                .map(|c| c.out_positions.as_slice())
                .collect(),
        ),
        _ => None,
    }
}

/// The factors of a component's heavy trees: those of the first tree
/// whose root is an indicator node (Figs. 23/24); empty without one.
pub(crate) fn factor_positions(trees: &[EnumNode]) -> Vec<&[usize]> {
    trees.iter().find_map(bucket_factors).unwrap_or_default()
}

/// Whether `tree` is one of the component's heavy trees: a root indicator
/// node whose children bind the component's bucket `factors`.
fn is_heavy(tree: &EnumNode, factors: &[&[usize]]) -> bool {
    bucket_factors(tree).is_some_and(|f| f == factors)
}

/// The component's one tree that is not a heavy tree, when its root
/// stores the component's rows verbatim: the component's flat part is
/// then that root's storage, entry for entry. `None` when the flat part
/// has another shape — several flat trees, none, or one that is drained.
pub(crate) fn verbatim_flat_tree<'t>(rt: &Runtime, trees: &'t [EnumNode]) -> Option<&'t EnumNode> {
    let factors = factor_positions(trees);
    let mut flat = trees.iter().filter(|t| !is_heavy(t, &factors));
    match (flat.next(), flat.next()) {
        (Some(tree), None) if tree.stores_rows_of(rt, &trees[0].out_positions) => Some(tree),
        _ => None,
    }
}

/// The freeze of one connected component, pushed into `sink` without a
/// lookup and without the cross-component product: its flat trees
/// ([`freeze_flat`]), then its heavy trees ([`freeze_heavy`]). A tuple
/// produced by several trees, buckets (or shards) arrives once per
/// producer; the sink's owner sums.
pub(crate) fn freeze_component(
    rt: &Runtime,
    trees: &[EnumNode],
    free_arity: usize,
    sink: &mut dyn FreezeSink,
) {
    freeze_flat(rt, trees, free_arity, sink);
    freeze_heavy(rt, trees, free_arity, sink);
}

/// Every tree of the component that is not a heavy tree, drained flat,
/// each occurrence once; a covering root whose stored tuples are the
/// component's rows verbatim hands them over with their cached hash.
pub(crate) fn freeze_flat(
    rt: &Runtime,
    trees: &[EnumNode],
    free_arity: usize,
    sink: &mut dyn FreezeSink,
) {
    let positions = &trees[0].out_positions;
    let factors = factor_positions(trees);
    let mut buf = vec![Value::Int(0); free_arity];
    // Ascending and distinct, so covering every position is the identity.
    let covers = positions.len() == free_arity;
    let mut row = vec![Value::Int(0); positions.len()];
    for tree in trees.iter().filter(|t| !is_heavy(t, &factors)) {
        if tree.stores_rows_of(rt, positions) {
            for (t, m) in tree.storage(rt).iter() {
                sink.flat(t.values(), t.cached_hash(), m);
            }
            continue;
        }
        tree.drain_each(rt, &Tuple::empty(), &mut buf, &mut |buf, m| {
            let row: &[Value] = if covers {
                buf
            } else {
                for (dst, &p) in row.iter_mut().zip(positions) {
                    dst.clone_from(&buf[p]);
                }
                &row
            };
            sink.flat(row, Tuple::hash_of(row), m)
        });
    }
}

/// Each heavy tree of the component — a root indicator node whose
/// children bind [`factor_positions`] — for each live heavy key in its
/// indicator's storage order (the liveness test the enumerator grounds
/// with): a `bucket`, then each child's drain under that key as that
/// factor's rows, `O(Σ |group|)` where the product would be
/// `O(Π |group|)`.
pub(crate) fn freeze_heavy(
    rt: &Runtime,
    trees: &[EnumNode],
    free_arity: usize,
    sink: &mut dyn FreezeSink,
) {
    let factors = factor_positions(trees);
    let mut buf = vec![Value::Int(0); free_arity];
    let mut rows: Vec<Vec<Value>> = factors
        .iter()
        .map(|f| vec![Value::Int(0); f.len()])
        .collect();
    for tree in trees.iter().filter(|t| is_heavy(t, &factors)) {
        let EnumKind::Buckets {
            ind,
            h_ctx_index,
            children,
            ..
        } = &tree.kind
        else {
            unreachable!("a heavy tree's root is an indicator node")
        };
        let v_rel = tree.storage(rt);
        let h_rel = &rt.rels[rt.heavy_rel[*ind]];
        scan_each(h_rel, *h_ctx_index, &Tuple::empty(), |h, _| {
            if v_rel.get(h) == 0 {
                return;
            }
            sink.bucket();
            for (f, (child, row)) in children.iter().zip(&mut rows).enumerate() {
                child.drain_each(rt, h, &mut buf, &mut |buf, m| {
                    for (dst, &p) in row.iter_mut().zip(&child.out_positions) {
                        dst.clone_from(&buf[p]);
                    }
                    sink.factor(f, row, m)
                });
            }
        });
    }
}

// ---------------------------------------------------------------------
// Iterators
// ---------------------------------------------------------------------

/// Cursor over one storage relation, either a full scan or one index group.
pub(crate) struct Scan {
    index: Option<IndexId>,
    key: Tuple,
    cur: Option<SlotId>,
    started: bool,
}

impl Scan {
    fn open(node: &EnumNode, ctx: &Tuple) -> Scan {
        Scan {
            index: node.ctx_index,
            key: ctx.project(&node.ctx_pos_in_parent),
            cur: None,
            started: false,
        }
    }

    fn next<'r>(&mut self, rel: &'r Relation) -> Option<(&'r Tuple, i64)> {
        let next = if !self.started {
            self.started = true;
            match self.index {
                Some(ix) => rel.group_first(ix, &self.key),
                None => rel.first(),
            }
        } else {
            let cur = self.cur?;
            match self.index {
                Some(ix) => rel.group_next(ix, cur),
                None => rel.next(cur),
            }
        };
        self.cur = next;
        next.map(|s| (rel.tuple_at(s), rel.mult_at(s)))
    }

    /// The tuple under the cursor (its values are replayable straight from
    /// storage — no cloned `last` needed).
    fn current<'r>(&self, rel: &'r Relation) -> Option<&'r Tuple> {
        self.cur.map(|s| rel.tuple_at(s))
    }
}

/// Runtime iterator state for an `EnumNode`.
///
/// Iterators write into a buffer shared by *all* iterators of the
/// enumeration (including sibling union buckets over the same output
/// positions); each variant can [`NodeIter::replay`] its current values
/// into the buffer after siblings have clobbered it — covering and
/// directory nodes replay from their storage cursors, unions from their
/// cached last segment.
pub(crate) enum NodeIter<'e> {
    Covering {
        node: &'e EnumNode,
        scan: Scan,
    },
    Directory {
        node: &'e EnumNode,
        scan: Scan,
        cur: Option<&'e Tuple>,
        prod: Option<Product<'e>>,
    },
    Buckets {
        node: &'e EnumNode,
        union: Union<BucketPart<'e>>,
    },
}

impl<'e> NodeIter<'e> {
    pub(crate) fn open(node: &'e EnumNode, rt: &'e Runtime, ctx: &Tuple) -> NodeIter<'e> {
        match &node.kind {
            EnumKind::Covering => NodeIter::Covering {
                node,
                scan: Scan::open(node, ctx),
            },
            EnumKind::Directory { .. } => NodeIter::Directory {
                node,
                scan: Scan::open(node, ctx),
                cur: None,
                prod: None,
            },
            EnumKind::Buckets {
                ind,
                h_ctx_index,
                children,
                ..
            } => {
                // Ground the heavy indicator: one bucket per heavy key in
                // context (Fig. 13 lines 6-11). The keys stay borrowed from
                // the indicator relation for the iterator's whole life.
                let h_rel = &rt.rels[rt.heavy_rel[*ind]];
                let v_rel = node.storage(rt);
                let mut hs: Vec<&'e Tuple> = Vec::new();
                match h_ctx_index {
                    Some(ix) => {
                        let key = ctx.project(&node.ctx_pos_in_parent);
                        for (h, _) in h_rel.group_iter(*ix, &key) {
                            if v_rel.get(h) != 0 {
                                hs.push(h);
                            }
                        }
                    }
                    None => {
                        for (h, _) in h_rel.iter() {
                            if v_rel.get(h) != 0 {
                                hs.push(h);
                            }
                        }
                    }
                }
                let parts: Vec<BucketPart<'e>> = hs
                    .into_iter()
                    .map(|h| {
                        let prod = Product::open(children, rt, h);
                        BucketPart { node, h, prod }
                    })
                    .collect();
                NodeIter::Buckets {
                    node,
                    union: Union::new(parts, true),
                }
            }
        }
    }

    /// Rewrites this iterator's current values into `buf` (they may have
    /// been overwritten by sibling iterators sharing the same positions).
    pub(crate) fn replay(&self, rt: &Runtime, buf: &mut [Value]) {
        match self {
            NodeIter::Covering { node, scan } => {
                if let Some(t) = scan.current(node.storage(rt)) {
                    for &(sp, bp) in &node.own_emit {
                        buf[bp] = t.get(sp).clone();
                    }
                }
            }
            NodeIter::Directory {
                node, cur, prod, ..
            } => {
                if let Some(t) = cur {
                    for &(sp, bp) in &node.own_emit {
                        buf[bp] = t.get(sp).clone();
                    }
                }
                if let Some(p) = prod {
                    p.replay(rt, buf);
                }
            }
            NodeIter::Buckets { node, union } => {
                if union.has_last {
                    for (i, &p) in node.out_positions.iter().enumerate() {
                        buf[p] = union.last[i].clone();
                    }
                }
            }
        }
    }

    /// Advances to the next tuple: binds this subtree's variables in `buf`
    /// and returns the multiplicity.
    pub(crate) fn next(
        &mut self,
        rt: &'e Runtime,
        buf: &mut [Value],
        scratch: &mut EnumScratch,
    ) -> Option<i64> {
        match self {
            NodeIter::Covering { node, scan } => {
                let (t, m) = scan.next(node.storage(rt))?;
                for &(sp, bp) in &node.own_emit {
                    buf[bp] = t.get(sp).clone();
                }
                Some(m)
            }
            NodeIter::Directory {
                node,
                scan,
                cur,
                prod,
            } => loop {
                if cur.is_none() {
                    let (t, _m) = scan.next(node.storage(rt))?;
                    for &(sp, bp) in &node.own_emit {
                        buf[bp] = t.get(sp).clone();
                    }
                    let EnumKind::Directory { children, .. } = &node.kind else {
                        unreachable!()
                    };
                    *prod = Some(Product::open(children, rt, t));
                    *cur = Some(t);
                }
                match prod.as_mut().unwrap().next(rt, buf, scratch) {
                    Some(m) => {
                        // Sibling iterators may have clobbered our own
                        // variables since the last call.
                        if let Some(t) = cur {
                            for &(sp, bp) in &node.own_emit {
                                buf[bp] = t.get(sp).clone();
                            }
                        }
                        return Some(m);
                    }
                    None => {
                        *cur = None;
                        *prod = None;
                    }
                }
            },
            NodeIter::Buckets { union, .. } => union.next(rt, buf, scratch),
        }
    }
}

/// The Product algorithm (Fig. 16): odometer over child iterators sharing a
/// common context; multiplicity is the product of the children's. The
/// context is borrowed from the parent's storage for the product's life.
pub(crate) struct Product<'e> {
    children: &'e [EnumNode],
    ctx: &'e Tuple,
    kids: Vec<NodeIter<'e>>,
    mults: Vec<i64>,
    primed: bool,
    dead: bool,
}

impl<'e> Product<'e> {
    pub(crate) fn open(children: &'e [EnumNode], rt: &'e Runtime, ctx: &'e Tuple) -> Product<'e> {
        let kids = children
            .iter()
            .map(|c| NodeIter::open(c, rt, ctx))
            .collect();
        Product {
            children,
            ctx,
            kids,
            mults: vec![0; children.len()],
            primed: false,
            dead: false,
        }
    }

    pub(crate) fn next(
        &mut self,
        rt: &'e Runtime,
        buf: &mut [Value],
        scratch: &mut EnumScratch,
    ) -> Option<i64> {
        if self.dead {
            return None;
        }
        if !self.primed {
            self.primed = true;
            for i in 0..self.kids.len() {
                match self.kids[i].next(rt, buf, scratch) {
                    Some(m) => self.mults[i] = m,
                    None => {
                        self.dead = true;
                        return None;
                    }
                }
            }
            return Some(saturating_product(&self.mults));
        }
        // Advance the odometer from the last child (Fig. 16 lines 8-11).
        let k = self.kids.len();
        let mut i = k;
        loop {
            if i == 0 {
                self.dead = true;
                return None;
            }
            i -= 1;
            match self.kids[i].next(rt, buf, scratch) {
                Some(m) => {
                    self.mults[i] = m;
                    break;
                }
                None => {
                    // Reset child i and move to its predecessor.
                    self.kids[i] = NodeIter::open(&self.children[i], rt, self.ctx);
                    match self.kids[i].next(rt, buf, scratch) {
                        Some(m) => self.mults[i] = m,
                        None => {
                            self.dead = true;
                            return None;
                        }
                    }
                }
            }
        }
        // Children before the advanced one did not move this call; restore
        // their current values into the (shared) buffer.
        for j in 0..i {
            self.kids[j].replay(rt, buf);
        }
        Some(saturating_product(&self.mults))
    }

    /// Restores every child's current values into `buf`.
    pub(crate) fn replay(&self, rt: &Runtime, buf: &mut [Value]) {
        for kid in &self.kids {
            kid.replay(rt, buf);
        }
    }
}

/// One grounded instance `T(h)` of an indicator node (a shallow copy of the
/// tree opened with heavy key `h`, Fig. 13 line 9).
pub(crate) struct BucketPart<'e> {
    node: &'e EnumNode,
    h: &'e Tuple,
    prod: Product<'e>,
}

/// A participant in the Union algorithm.
pub(crate) trait UnionPart<'e> {
    /// Advances; on success writes the winning values into `buf` (at this
    /// part's output positions) and returns the multiplicity.
    fn next_seg(
        &mut self,
        rt: &'e Runtime,
        buf: &mut [Value],
        scratch: &mut EnumScratch,
    ) -> Option<i64>;
    /// Multiplicity of `seg` within this part (0 when absent).
    fn lookup(&self, rt: &Runtime, seg: &[Value], scratch: &mut EnumScratch) -> i64;
    /// The output positions shared by all parts of the union.
    fn out_positions(&self) -> &[usize];
}

impl<'e> UnionPart<'e> for BucketPart<'e> {
    fn next_seg(
        &mut self,
        rt: &'e Runtime,
        buf: &mut [Value],
        scratch: &mut EnumScratch,
    ) -> Option<i64> {
        self.prod.next(rt, buf, scratch)
    }

    fn lookup(&self, rt: &Runtime, seg: &[Value], scratch: &mut EnumScratch) -> i64 {
        let EnumKind::Buckets {
            children,
            child_seg_idx,
            ..
        } = &self.node.kind
        else {
            unreachable!()
        };
        if self.node.storage(rt).get(self.h) == 0 {
            return 0;
        }
        let mut m = 1i64;
        let mut cs = scratch.take();
        for (i, c) in children.iter().enumerate() {
            EnumNode::child_seg_into(&child_seg_idx[i], seg, &mut cs);
            let cm = c.lookup(rt, self.h, &cs, scratch);
            if cm == 0 {
                scratch.put(cs);
                return 0;
            }
            m = m.saturating_mul(cm);
        }
        scratch.put(cs);
        m
    }

    fn out_positions(&self) -> &[usize] {
        &self.node.out_positions
    }
}

/// The Union algorithm (Fig. 15, after Durand–Strozecki): enumerates the
/// distinct tuples of `T_1 ∪ ... ∪ T_n` (parts over the same output
/// positions) with their total multiplicity, with O(n) lookups per
/// emitted tuple.
///
/// The winning segment lives in the shared buffer; a union only keeps an
/// owned copy (`last`, value copies — never a hashed `Tuple`) when an
/// enclosing product may need to replay it.
pub(crate) struct Union<P> {
    parts: Vec<P>,
    /// The parts' shared output positions (owned so candidate staging does
    /// not borrow `parts`).
    positions: Vec<usize>,
    /// Current candidate's segment values, in `positions` order.
    cand: Vec<Value>,
    /// Last emitted segment values, for replay by enclosing products.
    last: Vec<Value>,
    has_last: bool,
    /// Whether `last` is maintained at all (top-level unions under
    /// [`ResultIter`] are never replayed, so they skip the per-tuple
    /// copy).
    track_last: bool,
}

impl<P> Union<P> {
    pub(crate) fn new<'x>(parts: Vec<P>, track_last: bool) -> Union<P>
    where
        P: UnionPart<'x>,
    {
        let positions = parts
            .first()
            .map(|p| p.out_positions().to_vec())
            .unwrap_or_default();
        Union {
            parts,
            positions,
            cand: Vec::new(),
            last: Vec::new(),
            has_last: false,
            track_last,
        }
    }
}

impl<P> Union<P> {
    /// Copies the values at `positions` of `buf` into `out`.
    fn stage(positions: &[usize], buf: &[Value], out: &mut Vec<Value>) {
        out.clear();
        out.extend(positions.iter().map(|&p| buf[p].clone()));
    }

    pub(crate) fn next<'e>(
        &mut self,
        rt: &'e Runtime,
        buf: &mut [Value],
        scratch: &mut EnumScratch,
    ) -> Option<i64>
    where
        P: UnionPart<'e>,
    {
        let n = self.parts.len();
        if n == 0 {
            return None;
        }
        if n == 1 {
            // Single live part: its stream is the union — no lookups, no
            // candidate staging, no write-back.
            let m = self.parts[0].next_seg(rt, buf, scratch)?;
            if self.track_last {
                Self::stage(&self.positions, buf, &mut self.last);
                self.has_last = true;
            }
            return Some(m);
        }
        // Iterative form of the paper's recursion over T_1..T_n. The
        // current candidate's values are staged in `cand` (the shared
        // buffer is clobbered whenever a later part advances).
        let mut cur: Option<i64> = self.parts[0].next_seg(rt, buf, scratch);
        if cur.is_some() {
            Self::stage(&self.positions, buf, &mut self.cand);
        }
        for k in 1..n {
            cur = match cur {
                Some(m) => {
                    if self.parts[k].lookup(rt, &self.cand, scratch) != 0 {
                        // The candidate also lives in T_k: emit T_k's next
                        // tuple with its total multiplicity over T_1..T_k
                        // instead.
                        let mk = self.parts[k]
                            .next_seg(rt, buf, scratch)
                            .expect("T_k cannot be exhausted while it still contains t");
                        Self::stage(&self.positions, buf, &mut self.cand);
                        let cand = &self.cand;
                        Some((0..k).fold(mk, |sum, i| {
                            sum.saturating_add(self.parts[i].lookup(rt, cand, scratch))
                        }))
                    } else {
                        Some(m)
                    }
                }
                None => match self.parts[k].next_seg(rt, buf, scratch) {
                    Some(mk) => {
                        Self::stage(&self.positions, buf, &mut self.cand);
                        let cand = &self.cand;
                        Some((0..k).fold(mk, |sum, i| {
                            sum.saturating_add(self.parts[i].lookup(rt, cand, scratch))
                        }))
                    }
                    None => None,
                },
            };
        }
        // Write the winning values back into the buffer (lookups and
        // sibling advances may have clobbered it).
        if cur.is_some() {
            for (i, &p) in self.positions.iter().enumerate() {
                buf[p] = self.cand[i].clone();
            }
            if self.track_last {
                self.last.clone_from(&self.cand);
                self.has_last = true;
            }
        }
        cur
    }
}

/// A whole component tree as a union participant.
pub(crate) struct TreePart<'e> {
    pub node: &'e EnumNode,
    pub iter: NodeIter<'e>,
}

impl<'e> UnionPart<'e> for TreePart<'e> {
    fn next_seg(
        &mut self,
        rt: &'e Runtime,
        buf: &mut [Value],
        scratch: &mut EnumScratch,
    ) -> Option<i64> {
        self.iter.next(rt, buf, scratch)
    }

    fn lookup(&self, rt: &Runtime, seg: &[Value], scratch: &mut EnumScratch) -> i64 {
        self.node.lookup(rt, &Tuple::empty(), seg, scratch)
    }

    fn out_positions(&self) -> &[usize] {
        &self.node.out_positions
    }
}

/// Opens the union over one component's view trees. Trees whose root
/// storage is empty contribute nothing to the union (and every lookup into
/// them would return 0), so they are pruned up front — on unskewed data
/// this collapses the union to the single live tree and the per-tuple
/// cross-part lookups vanish entirely.
fn open_component<'e>(rt: &'e Runtime, trees: &'e [EnumNode]) -> Union<TreePart<'e>> {
    Union::new(
        trees
            .iter()
            .filter(|node| !node.storage(rt).is_empty())
            .map(|node| TreePart {
                node,
                iter: NodeIter::open(node, rt, &Tuple::empty()),
            })
            .collect(),
        false,
    )
}

/// Number of distinct tuples in one component's result: one walk of its
/// union. `buf` (free-schema sized) is clobbered.
pub(crate) fn count_component(
    rt: &Runtime,
    trees: &[EnumNode],
    buf: &mut [Value],
    scratch: &mut EnumScratch,
) -> usize {
    let mut u = open_component(rt, trees);
    let mut n = 0usize;
    while u.next(rt, buf, scratch).is_some() {
        n += 1;
    }
    n
}

/// Size of the Cartesian product of components with the given result
/// sizes — what `count` reports — saturating at `usize::MAX` (five
/// components of 8,000 tuples already exceed it). No component at all is
/// an empty result.
pub(crate) fn product_size(sizes: impl IntoIterator<Item = usize>) -> usize {
    sizes.into_iter().reduce(usize::saturating_mul).unwrap_or(0)
}

/// The product of multiplicities, saturating at `i64::MAX`: a result
/// tuple's true multiplicity may exceed `i64` (eight components of 256
/// make 2⁶⁴), and a read reports it as `i64::MAX`, never wrapped.
fn saturating_product(mults: &[i64]) -> i64 {
    mults.iter().fold(1, |p, &m| p.saturating_mul(m))
}

/// Iterator over the distinct tuples of the full query result with their
/// multiplicities: Product across components of Union across view trees.
pub struct ResultIter<'e> {
    rt: &'e Runtime,
    enums: &'e [Vec<EnumNode>],
    comps: Vec<Union<TreePart<'e>>>,
    comp_mults: Vec<i64>,
    free_arity: usize,
    buf: Vec<Value>,
    scratch: EnumScratch,
    primed: bool,
    /// Set by [`ResultIter::seek`]: the next `next()` call emits the
    /// current assembly without advancing.
    emit_current: bool,
    dead: bool,
}

impl<'e> ResultIter<'e> {
    pub(crate) fn new(rt: &'e Runtime, enums: &'e [Vec<EnumNode>], free_arity: usize) -> Self {
        let comps: Vec<Union<TreePart<'e>>> = enums
            .iter()
            .map(|trees| open_component(rt, trees))
            .collect();
        let n = comps.len();
        ResultIter {
            rt,
            enums,
            comps,
            comp_mults: vec![0; n],
            free_arity,
            buf: vec![Value::Int(0); free_arity],
            scratch: EnumScratch::new(),
            primed: false,
            emit_current: false,
            dead: false,
        }
    }

    /// Stateless tree lookups (`EnumNode::lookup` calls, the recursive
    /// ones included) made so far by this iterator's unions — the work
    /// the `O(N^{1−ε})` delay bound is about; 0 while every union has a
    /// single live part.
    pub fn lookups(&self) -> u64 {
        self.scratch.lookups
    }

    /// Advances the underlying state by one result tuple (priming on the
    /// first call) without assembling an output `Tuple`. Returns `false`
    /// when the result is exhausted.
    fn advance(&mut self) -> bool {
        if self.dead {
            return false;
        }
        if self.comps.is_empty() {
            self.dead = true;
            return false;
        }
        if !self.primed {
            self.primed = true;
            for i in 0..self.comps.len() {
                match self.comps[i].next(self.rt, &mut self.buf, &mut self.scratch) {
                    Some(m) => self.comp_mults[i] = m,
                    None => {
                        self.dead = true;
                        return false;
                    }
                }
            }
            return true;
        }
        // Odometer across components; exhausted components are reopened
        // from scratch (Fig. 16's close/open/next pattern).
        let k = self.comps.len();
        let mut i = k;
        loop {
            if i == 0 {
                self.dead = true;
                return false;
            }
            i -= 1;
            match self.comps[i].next(self.rt, &mut self.buf, &mut self.scratch) {
                Some(m) => {
                    self.comp_mults[i] = m;
                    return true;
                }
                None => {
                    self.comps[i] = open_component(self.rt, &self.enums[i]);
                    match self.comps[i].next(self.rt, &mut self.buf, &mut self.scratch) {
                        Some(m) => self.comp_mults[i] = m,
                        None => {
                            self.dead = true;
                            return false;
                        }
                    }
                }
            }
        }
    }

    /// Positions this fresh iterator so that the next emitted item is the
    /// `offset`-th result tuple (0-based, in enumeration order), without
    /// walking the skipped cross-component combinations.
    ///
    /// The linear offset is decomposed mixed-radix over the component
    /// result sizes, least-significant digit first: a trailing component
    /// is counted (one walk of its own result) only while the remaining
    /// index is non-zero, so a small offset — the common first page —
    /// counts nothing and keeps the constant-delay start, and a large one
    /// costs at most `O(Σ_i |C_i|)` — for multi-component queries an
    /// exponential improvement over walking `offset` product tuples. With
    /// a single component the decomposition degenerates to skipping
    /// `offset` tuples (`O(offset)`).
    ///
    /// Returns `false` (and exhausts the iterator) when `offset` is past
    /// the end of the result.
    pub(crate) fn seek(&mut self, offset: usize) -> bool {
        debug_assert!(!self.primed, "seek requires a fresh iterator");
        if self.comps.is_empty() {
            self.dead = true;
            return false;
        }
        let k = self.comps.len();
        let mut picks = vec![0usize; k];
        let mut rem = offset;
        for i in (1..k).rev() {
            if rem == 0 {
                // Every more significant digit is 0 — no count needed.
                break;
            }
            let n = count_component(self.rt, &self.enums[i], &mut self.buf, &mut self.scratch);
            if n == 0 {
                self.dead = true;
                return false;
            }
            picks[i] = rem % n;
            rem /= n;
        }
        // What remains is the leading digit; running off that component's
        // end below is exactly the offset-past-the-end case. (An uncounted
        // empty trailing component dies the same way, on its first
        // advance.)
        picks[0] = rem;
        self.primed = true;
        for (i, &pick) in picks.iter().enumerate() {
            for _ in 0..=pick {
                match self.comps[i].next(self.rt, &mut self.buf, &mut self.scratch) {
                    Some(m) => self.comp_mults[i] = m,
                    None => {
                        self.dead = true;
                        return false;
                    }
                }
            }
        }
        self.emit_current = true;
        true
    }

    /// Assembles the current buffer state into an output item.
    fn current(&self) -> (Tuple, i64) {
        let tuple = Tuple::from_slice(&self.buf[..self.free_arity]);
        (tuple, saturating_product(&self.comp_mults))
    }
}

impl<'e> Iterator for ResultIter<'e> {
    type Item = (Tuple, i64);

    fn next(&mut self) -> Option<Self::Item> {
        if self.emit_current {
            self.emit_current = false;
            return Some(self.current());
        }
        if !self.advance() {
            return None;
        }
        // `buf` holds exactly the free variables in schema order; clone it
        // straight into the (inline up to INLINE_ARITY) representation.
        Some(self.current())
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use ivme_data::{Tuple, Value};

    use super::FreezeSink;
    use crate::{Database, EngineOptions, IvmEngine};

    /// The rows one factor pushed, in order.
    type Factor = Vec<(Vec<Value>, i64)>;

    /// A freeze as pushed: the flat occurrences, and per bucket the rows
    /// each factor pushed.
    #[derive(Default)]
    struct Pushed {
        flat: Vec<(Tuple, i64)>,
        buckets: Vec<Vec<Factor>>,
    }

    impl FreezeSink for Pushed {
        fn flat(&mut self, row: &[Value], hash: u64, m: i64) {
            assert_eq!(hash, Tuple::hash_of(row));
            self.flat.push((Tuple::from_slice(row), m));
        }

        fn bucket(&mut self) {
            self.buckets.push(Vec::new());
        }

        fn factor(&mut self, f: usize, row: &[Value], m: i64) {
            let bucket = self.buckets.last_mut().unwrap();
            bucket.resize_with(bucket.len().max(f + 1), Vec::new);
            bucket[f].push((row.to_vec(), m));
        }
    }

    /// Freezes `src`'s single component at every ε, expands each bucket's
    /// product, sums the occurrences per tuple and requires exactly what
    /// the deduplicating `ResultIter` enumerates. Returns the occurrence
    /// counts (flat occurrences plus each bucket's product), one per ε.
    fn drain_sums_to_enumerate(src: &str, db: &Database) -> [usize; 3] {
        [0.0, 0.5, 1.0].map(|eps| {
            let eng = IvmEngine::from_sql(src, db, EngineOptions::dynamic(eps)).unwrap();
            assert_eq!(eng.num_components(), 1, "{src}");
            let mut pushed = Pushed::default();
            eng.freeze_component(0, &mut pushed);
            let mut occurrences = pushed.flat.len();
            let mut summed: BTreeMap<Tuple, i64> = BTreeMap::new();
            for (t, m) in pushed.flat {
                *summed.entry(t).or_insert(0) += m;
            }
            let factor_positions = eng.component_factor_positions(0);
            let mut buf = vec![Value::Int(0); eng.query().free.arity()];
            for factors in &pushed.buckets {
                assert_eq!(factors.len(), factor_positions.len(), "{src} at eps {eps}");
                let mut pick = vec![0; factors.len()];
                loop {
                    occurrences += 1;
                    let mut m = 1;
                    for ((rows, &k), positions) in factors.iter().zip(&pick).zip(&factor_positions)
                    {
                        for (&p, v) in positions.iter().zip(&rows[k].0) {
                            buf[p] = v.clone();
                        }
                        m *= rows[k].1;
                    }
                    let t = Tuple::from_slice(&buf).project(eng.component_out_positions(0));
                    *summed.entry(t).or_insert(0) += m;
                    // Row-major: the last factor turns fastest.
                    let Some(f) = (0..pick.len())
                        .rev()
                        .find(|&f| pick[f] + 1 < factors[f].len())
                    else {
                        break;
                    };
                    pick[f] += 1;
                    pick[f + 1..].fill(0);
                }
            }
            let distinct = eng.result_sorted();
            assert_eq!(
                summed.into_iter().collect::<Vec<_>>(),
                distinct,
                "{src} at eps {eps}"
            );
            assert!(occurrences >= distinct.len(), "{src} at eps {eps}");
            occurrences
        })
    }

    /// `n` rows per relation over `0..domain`, from a fixed xorshift.
    fn random_db(rels: &[(&str, usize)], n: usize, domain: u64) -> Database {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut db = Database::new();
        for &(rel, arity) in rels {
            for _ in 0..n {
                let vals: Vec<i64> = (0..arity)
                    .map(|_| {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        (x % domain) as i64
                    })
                    .collect();
                db.insert(rel, Tuple::ints(&vals), 1 + (x >> 40) as i64 % 2);
            }
        }
        db
    }

    #[test]
    fn push_drain_summed_per_tuple_is_what_the_union_enumerates() {
        // Examples 28, 29, 18 and 19: small domains make heavy keys, so the
        // drains below ε = 1 carry duplicates.
        let two_path = [("R", 2), ("S", 2)];
        drain_sums_to_enumerate("Q(A,C) :- R(A,B), S(B,C)", &random_db(&two_path, 60, 8));
        drain_sums_to_enumerate(
            "Q(A) :- R(A,B), S(B)",
            &random_db(&[("R", 2), ("S", 1)], 60, 8),
        );
        drain_sums_to_enumerate(
            "Q(A,D,E) :- R(A,B,C), S(A,B,D), T(A,E)",
            &random_db(&[("R", 3), ("S", 3), ("T", 2)], 60, 4),
        );
        drain_sums_to_enumerate(
            "Q(C,D,E,F) :- R(A,B,D), S(A,B,E), T(A,C,F), U(A,C,G)",
            &random_db(&[("R", 3), ("S", 3), ("T", 3), ("U", 3)], 40, 3),
        );

        // A Zipf-shaped two-path: join value b has 40/(b+1) distinct
        // partners on each side (5 and 7 are units mod 48), drawn from
        // overlapping ranges.
        let mut db = Database::new();
        for b in 0..24i64 {
            for k in 0..40 / (b + 1) {
                db.insert("R", Tuple::ints(&[(3 * b + 5 * k) % 48, b]), 1 + k % 2);
                db.insert("S", Tuple::ints(&[b, (b + 7 * k) % 48]), 1);
            }
        }
        let [all_heavy, mixed, all_light] =
            drain_sums_to_enumerate("Q(A,C) :- R(A,B), S(B,C)", &db);
        // At ε = 1 the one tree is fully materialized: no duplicates. With
        // every b heavy (ε = 0) the drain is Σ_b |R_b|·|S_b| occurrences.
        let q = ivme_query::parse_query("Q(A,C) :- R(A,B), S(B,C)").unwrap();
        let distinct = crate::brute_force(&q, &db).len();
        assert_eq!(all_light, distinct);
        assert!(
            all_heavy > distinct && mixed > distinct,
            "the parts overlap"
        );
        let per_b: i64 = (0..24).map(|b| (40 / (b + 1)) * (40 / (b + 1))).sum();
        assert_eq!(all_heavy as i64, per_b);
    }
}
