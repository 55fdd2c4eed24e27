//! Materialized view-tree runtime.
//!
//! Lowers an `ivme-plan` [`Plan`] into flat arrays of relations and
//! materialized-view nodes, sets up the secondary indexes required for
//! group-product joins, and materializes every view bottom-up
//! (the preprocessing stage, paper Sec. 4; complexity per Prop. 21).
//!
//! Join evaluation at a view node exploits the canonical-variable-order
//! invariant: all children share the node's *join key* (the intersection of
//! their schemas) and their remaining variables are pairwise disjoint. A
//! view is therefore computed per key as the Cartesian product of its
//! children's key groups, with each child's group first aggregated onto the
//! variables the view retains (the InsideOut-style aggregation used in the
//! proof of Lemma 44).

use ivme_data::fx::FxHashMap;
use ivme_data::{IndexId, Partition, Relation, Schema, Tuple, Value};
use ivme_plan::{Node, NodeKind, Plan, Source};

pub(crate) type RelId = usize;
pub(crate) type NodeId = usize;

/// Where a runtime node reads/stores its data.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum RtKind {
    /// Leaf over the base relation of atom `usize`.
    LeafBase(usize),
    /// Leaf over the light part of partition `usize`.
    LeafLight(usize),
    /// Leaf over the heavy indicator relation of indicator `usize`.
    LeafHeavy(usize),
    /// Materialized view.
    View,
}

/// Source of one field of a view tuple during assembly.
#[derive(Clone, Copy, Debug)]
pub(crate) enum FieldSrc {
    /// From the join-key tuple, position `usize`.
    Key(usize),
    /// From child `c`'s segment tuple at position `p`.
    Seg { c: usize, p: usize },
}

/// A runtime view-tree node.
pub(crate) struct MatNode {
    pub name: String,
    pub schema: Schema,
    pub rel: RelId,
    pub kind: RtKind,
    pub children: Vec<NodeId>,
    pub parent: Option<NodeId>,
    /// Join key `K` = intersection of all child schemas (views with ≥ 2
    /// children; single-child views use a plain projection instead).
    pub join_key: Schema,
    /// Index on `K` in each child's relation.
    pub child_key_idx: Vec<IndexId>,
    /// Positions of `K` within each child's schema.
    pub child_key_pos: Vec<Vec<usize>>,
    /// Per child: positions (in the child schema) of the segment variables
    /// the view retains, i.e. `(S_i − K) ∩ S`.
    pub child_seg_pos: Vec<Vec<usize>>,
    /// Per child: true when key ∪ segment spans the child schema, so the
    /// tuples of a key group are already distinct on the segment and need
    /// no aggregation map.
    pub child_seg_distinct: Vec<bool>,
    /// For each variable of `schema`: where to read it from during
    /// assembly (key tuple or some child's segment).
    pub assembly: Vec<FieldSrc>,
    /// True when `assembly` is exactly the join-key tuple in order — the
    /// assembled view tuple *is* the key (hot in indicator trees, where
    /// every view is keyed on the indicator variables).
    pub assembly_is_key: bool,
    /// `Some(c)` when `assembly` is exactly child `c`'s segment tuple in
    /// order — the assembled view tuple *is* that segment (hot in light
    /// component trees, where the root retains one child's free vars).
    pub assembly_is_seg: Option<usize>,
    /// Single-child views: positions of `schema` within the child schema.
    pub project_pos: Vec<usize>,
    /// Single-child views: true when `project_pos` is the identity, so the
    /// view is a verbatim copy of its child and deltas pass through
    /// unchanged (no accumulator, no projection).
    pub project_identity: bool,
    /// Per child: true when the join key covers the child's whole schema
    /// in order, so a consolidated delta needs no per-key regrouping — each
    /// delta tuple *is* its own dirty key (hot for partition leaves keyed
    /// on their full schema, e.g. the OMv vector relation).
    pub child_key_identity: Vec<bool>,
}

/// Whether `positions` is the identity permutation of length `arity`.
fn is_identity(positions: &[usize], arity: usize) -> bool {
    positions.len() == arity && positions.iter().enumerate().all(|(i, &p)| i == p)
}

/// The full runtime state: every relation (bases, light parts, heavy
/// indicators, views) plus the flattened node forest.
pub(crate) struct Runtime {
    pub rels: Vec<Relation>,
    pub nodes: Vec<MatNode>,
    /// Base relation per atom occurrence.
    pub base_rel: Vec<RelId>,
    /// Index on each partition key within the corresponding base relation.
    pub base_part_idx: Vec<IndexId>,
    /// Partitions, parallel to `Plan::partitions`.
    pub partitions: Vec<Partition>,
    /// Atom index backing each partition.
    pub part_atom: Vec<usize>,
    /// Heavy indicator relation per `Plan::indicators` entry.
    pub heavy_rel: Vec<RelId>,
    /// Roots of the All/Light indicator trees per indicator.
    pub ind_all_root: Vec<NodeId>,
    pub ind_light_root: Vec<NodeId>,
    /// Positions of each indicator's keys within each atom's schema
    /// (indicator keys are contained in every atom below the split).
    pub ind_key_pos_in_atom: Vec<FxHashMap<usize, Vec<usize>>>,
    /// Component tree roots: `comp_roots[c][t]`.
    pub comp_roots: Vec<Vec<NodeId>>,
    /// All leaf node ids per atom / partition / indicator (for update
    /// propagation).
    pub leaves_by_atom: Vec<Vec<NodeId>>,
    pub leaves_by_part: Vec<Vec<NodeId>>,
    pub leaves_by_ind: Vec<Vec<NodeId>>,
    /// Reusable buffers for delta propagation (see `delta.rs`): taken out
    /// at the start of a propagation and put back at the end, so the
    /// per-level accumulator maps and delta vectors are allocated once per
    /// runtime instead of once per level per update.
    pub(crate) scratch: crate::delta::PropScratch,
}

impl Runtime {
    /// Builds the runtime skeleton for `plan` (no data yet).
    pub fn build(plan: &Plan) -> Runtime {
        let q = &plan.query;
        let mut rt = Runtime {
            rels: Vec::new(),
            nodes: Vec::new(),
            base_rel: Vec::new(),
            base_part_idx: Vec::with_capacity(plan.partitions.len()),
            partitions: Vec::new(),
            part_atom: plan.partitions.iter().map(|p| p.atom).collect(),
            heavy_rel: Vec::new(),
            ind_all_root: Vec::new(),
            ind_light_root: Vec::new(),
            ind_key_pos_in_atom: Vec::new(),
            comp_roots: Vec::new(),
            leaves_by_atom: vec![Vec::new(); q.atoms.len()],
            leaves_by_part: vec![Vec::new(); plan.partitions.len()],
            leaves_by_ind: vec![Vec::new(); plan.indicators.len()],
            scratch: Default::default(),
        };
        // Base relations (one copy per atom occurrence).
        for a in &q.atoms {
            let name = if a.occurrence == 0 {
                a.relation.clone()
            } else {
                format!("{}#{}", a.relation, a.occurrence)
            };
            rt.rels.push(Relation::new(name, a.schema.clone()));
            rt.base_rel.push(rt.rels.len() - 1);
        }
        // Partitions and the base-side degree indexes.
        for p in &plan.partitions {
            let atom = &q.atoms[p.atom];
            let base = rt.base_rel[p.atom];
            let idx = rt.rels[base].add_index(&p.key);
            rt.base_part_idx.push(idx);
            rt.partitions.push(Partition::new(
                format!("{}^{}", atom.relation, key_tag(&p.key)),
                &atom.schema,
                &p.key,
            ));
        }
        // Heavy indicator relations.
        for ind in &plan.indicators {
            rt.rels
                .push(Relation::new(format!("H{}", ind.tag), ind.keys.clone()));
            rt.heavy_rel.push(rt.rels.len() - 1);
            let mut per_atom = FxHashMap::default();
            for &a in &ind.all_tree.leaf_atoms() {
                per_atom.insert(a, q.atoms[a].schema.positions_of(&ind.keys));
            }
            rt.ind_key_pos_in_atom.push(per_atom);
        }
        // Indicator trees first (their nodes precede component trees so a
        // simple in-order materialization pass is bottom-up overall).
        for ind in &plan.indicators {
            let all_root = rt.lower(&ind.all_tree, None);
            let light_root = rt.lower(&ind.light_tree, None);
            rt.ind_all_root.push(all_root);
            rt.ind_light_root.push(light_root);
        }
        // Component trees.
        for comp in &plan.components {
            let mut roots = Vec::new();
            for tree in &comp.trees {
                roots.push(rt.lower(tree, None));
            }
            rt.comp_roots.push(roots);
        }
        rt
    }

    /// Recursively lowers a plan node, post-order (children first).
    fn lower(&mut self, node: &Node, parent: Option<NodeId>) -> NodeId {
        let id = self.nodes.len();
        // Reserve the slot so children can record `parent = id`.
        self.nodes.push(MatNode {
            name: node.name.clone(),
            schema: node.schema.clone(),
            rel: usize::MAX,
            kind: RtKind::View,
            children: Vec::new(),
            parent,
            join_key: Schema::empty(),
            child_key_idx: Vec::new(),
            child_key_pos: Vec::new(),
            child_seg_pos: Vec::new(),
            child_seg_distinct: Vec::new(),
            assembly: Vec::new(),
            assembly_is_key: false,
            assembly_is_seg: None,
            project_pos: Vec::new(),
            project_identity: false,
            child_key_identity: Vec::new(),
        });
        match &node.kind {
            NodeKind::Leaf(src) => {
                let (rel, kind) = match src {
                    Source::Base(a) => {
                        self.leaves_by_atom[*a].push(id);
                        (self.base_rel[*a], RtKind::LeafBase(*a))
                    }
                    Source::Light { part, .. } => {
                        self.leaves_by_part[*part].push(id);
                        // Partition light relations live in `partitions`,
                        // not `rels`; mark with a sentinel rel id.
                        (usize::MAX, RtKind::LeafLight(*part))
                    }
                    Source::HeavyIndicator(i) => {
                        self.leaves_by_ind[*i].push(id);
                        (self.heavy_rel[*i], RtKind::LeafHeavy(*i))
                    }
                };
                self.nodes[id].rel = rel;
                self.nodes[id].kind = kind;
            }
            NodeKind::View { children } => {
                let child_ids: Vec<NodeId> =
                    children.iter().map(|c| self.lower(c, Some(id))).collect();
                let rel = {
                    self.rels
                        .push(Relation::new(node.name.clone(), node.schema.clone()));
                    self.rels.len() - 1
                };
                self.nodes[id].rel = rel;
                self.nodes[id].children = child_ids.clone();
                if child_ids.len() == 1 {
                    let c = &self.nodes[child_ids[0]];
                    let pos = c.schema.positions_of(&node.schema);
                    self.nodes[id].project_identity = is_identity(&pos, c.schema.arity());
                    self.nodes[id].project_pos = pos;
                } else {
                    // Join key = intersection of all child schemas.
                    let mut key = self.nodes[child_ids[0]].schema.clone();
                    for &c in &child_ids[1..] {
                        key = key.intersect(&self.nodes[c].schema);
                    }
                    let mut key_idx = Vec::new();
                    let mut key_pos = Vec::new();
                    let mut seg_pos = Vec::new();
                    for &c in &child_ids {
                        let cs = self.nodes[c].schema.clone();
                        key_pos.push(cs.positions_of(&key));
                        let seg: Schema = cs
                            .vars()
                            .iter()
                            .copied()
                            .filter(|&v| !key.contains(v) && node.schema.contains(v))
                            .collect();
                        seg_pos.push(cs.positions_of(&seg));
                        key_idx.push(self.add_index_to_node(c, &key));
                    }
                    // Assembly: each view-schema variable comes from the key
                    // or from exactly one child's segment.
                    let mut assembly = Vec::new();
                    'vars: for &v in node.schema.vars() {
                        if let Some(p) = key.position(v) {
                            assembly.push(FieldSrc::Key(p));
                            continue;
                        }
                        for (ci, &c) in child_ids.iter().enumerate() {
                            let cs = &self.nodes[c].schema;
                            if cs.contains(v) {
                                let seg: Vec<_> = cs
                                    .vars()
                                    .iter()
                                    .copied()
                                    .filter(|&x| !key.contains(x) && node.schema.contains(x))
                                    .collect();
                                let p = seg.iter().position(|&x| x == v).unwrap();
                                assembly.push(FieldSrc::Seg { c: ci, p });
                                continue 'vars;
                            }
                        }
                        panic!("view {} variable {v} not covered by children", node.name);
                    }
                    self.nodes[id].assembly_is_key = node.schema.arity() == key.arity()
                        && assembly
                            .iter()
                            .enumerate()
                            .all(|(i, src)| matches!(src, FieldSrc::Key(p) if *p == i));
                    self.nodes[id].assembly_is_seg = (0..child_ids.len()).find(|&c| {
                        node.schema.arity() == seg_pos[c].len()
                            && assembly.iter().enumerate().all(|(i, src)| {
                                matches!(src, FieldSrc::Seg { c: sc, p } if *sc == c && *p == i)
                            })
                    });
                    self.nodes[id].child_seg_distinct = (0..child_ids.len())
                        .map(|c| {
                            let arity = self.nodes[child_ids[c]].schema.arity();
                            key_pos[c].len() + seg_pos[c].len() == arity
                        })
                        .collect();
                    self.nodes[id].child_key_identity = (0..child_ids.len())
                        .map(|c| is_identity(&key_pos[c], self.nodes[child_ids[c]].schema.arity()))
                        .collect();
                    self.nodes[id].join_key = key;
                    self.nodes[id].child_key_idx = key_idx;
                    self.nodes[id].child_key_pos = key_pos;
                    self.nodes[id].child_seg_pos = seg_pos;
                    self.nodes[id].assembly = assembly;
                }
            }
        }
        id
    }

    /// Adds an index on `key` to the relation backing node `n`.
    pub(crate) fn add_index_to_node(&mut self, n: NodeId, key: &Schema) -> IndexId {
        self.node_rel_mut(n).add_index(key)
    }

    /// Shared read access to the relation backing node `n`.
    pub(crate) fn node_rel(&self, n: NodeId) -> &Relation {
        match self.nodes[n].kind {
            RtKind::LeafLight(p) => self.partitions[p].light(),
            _ => &self.rels[self.nodes[n].rel],
        }
    }

    /// Mutable access to the relation backing node `n`.
    pub(crate) fn node_rel_mut(&mut self, n: NodeId) -> &mut Relation {
        match self.nodes[n].kind {
            RtKind::LeafLight(p) => self.partitions[p].light_mut(),
            _ => &mut self.rels[self.nodes[n].rel],
        }
    }

    // ------------------------------------------------------------------
    // Materialization (preprocessing / major-rebalancing recompute)
    // ------------------------------------------------------------------

    /// Clears and recomputes every view in the subtree of `root`
    /// (children first). Leaves are left untouched.
    pub(crate) fn materialize_tree(&mut self, root: NodeId) {
        let order = self.postorder(root);
        for n in order {
            if matches!(self.nodes[n].kind, RtKind::View) {
                self.materialize_view(n);
            }
        }
    }

    fn postorder(&self, root: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut stack = vec![(root, false)];
        while let Some((n, expanded)) = stack.pop() {
            if expanded {
                out.push(n);
            } else {
                stack.push((n, true));
                for &c in &self.nodes[n].children {
                    stack.push((c, false));
                }
            }
        }
        out
    }

    /// Recomputes one view from its (already materialized) children.
    fn materialize_view(&mut self, n: NodeId) {
        let children = self.nodes[n].children.clone();
        // The view's current size is a good capacity estimate for the
        // recompute (major rebalancing changes it only marginally).
        let mut acc: FxHashMap<Tuple, i64> = FxHashMap::with_capacity_and_hasher(
            self.rels[self.nodes[n].rel].len(),
            Default::default(),
        );
        if children.len() == 1 {
            let pos = self.nodes[n].project_pos.clone();
            let child = self.node_rel(children[0]);
            for (t, m) in child.iter() {
                *acc.entry(t.project(&pos)).or_insert(0) += m;
            }
        } else {
            // Pivot on the child with the fewest key groups (the heavy
            // indicator when present, making heavy trees O(#heavy keys)).
            let pivot = (0..children.len())
                .min_by_key(|&i| {
                    self.node_rel(children[i])
                        .num_groups(self.nodes[n].child_key_idx[i])
                })
                .unwrap();
            let mut segs: Vec<Vec<(Tuple, i64)>> = vec![Vec::new(); children.len()];
            let mut agg: FxHashMap<Tuple, i64> = FxHashMap::default();
            'keys: for key in self
                .node_rel(children[pivot])
                .group_keys(self.nodes[n].child_key_idx[pivot])
            {
                // Semi-join filter: every child must have the key.
                for (i, &c) in children.iter().enumerate() {
                    if !self
                        .node_rel(c)
                        .group_contains(self.nodes[n].child_key_idx[i], key)
                    {
                        continue 'keys;
                    }
                }
                for (i, seg) in segs.iter_mut().enumerate() {
                    self.aggregated_group_into(n, i, key, &mut agg, seg);
                }
                self.emit_products(n, key, &segs, 1, &mut acc);
            }
        }
        let rel = self.nodes[n].rel;
        self.rels[rel].clear();
        for (t, m) in acc {
            if m != 0 {
                self.rels[rel]
                    .apply(t, m)
                    .expect("materialized view multiplicities must be positive");
            }
        }
    }

    /// The group `σ_{K=key}` of child `i`, aggregated onto the segment
    /// variables the parent retains (InsideOut step of Lemma 44), written
    /// into the reusable `out` buffer (cleared first). `agg` is scratch for
    /// the general aggregation case; left drained.
    pub(crate) fn aggregated_group_into(
        &self,
        n: NodeId,
        i: usize,
        key: &Tuple,
        agg: &mut FxHashMap<Tuple, i64>,
        out: &mut Vec<(Tuple, i64)>,
    ) {
        out.clear();
        let node = &self.nodes[n];
        let child = node.children[i];
        let idx = node.child_key_idx[i];
        let seg_pos = &node.child_seg_pos[i];
        let rel = self.node_rel(child);
        // Fast paths for the shapes that dominate delta propagation:
        // nothing retained (sum the group) and unit groups (no aggregation
        // needed) — both skip the hash-map round trip.
        if seg_pos.is_empty() {
            let mut sum = 0i64;
            for (_, m) in rel.group_iter(idx, key) {
                sum += m;
            }
            if sum != 0 {
                out.push((Tuple::empty(), sum));
            }
            return;
        }
        if rel.group_len(idx, key) == 1 {
            let (t, m) = rel
                .group_iter(idx, key)
                .next()
                .expect("group_len == 1 implies one entry");
            if m != 0 {
                out.push((t.project(seg_pos), m));
            }
            return;
        }
        if node.child_seg_distinct[i] {
            // key ∪ segment spans the child schema: group entries are
            // already distinct on the segment, so projection is enough.
            out.extend(
                rel.group_iter(idx, key)
                    .map(|(t, m)| (t.project(seg_pos), m)),
            );
            return;
        }
        agg.clear();
        for (t, m) in rel.group_iter(idx, key) {
            *agg.entry(t.project(seg_pos)).or_insert(0) += m;
        }
        out.extend(agg.drain().filter(|&(_, m)| m != 0));
    }

    /// Emits all products `key × seg_1 × ... × seg_k` (times `scale`) into
    /// `acc`, assembled onto the view schema.
    pub(crate) fn emit_products(
        &self,
        n: NodeId,
        key: &Tuple,
        segs: &[Vec<(Tuple, i64)>],
        scale: i64,
        acc: &mut FxHashMap<Tuple, i64>,
    ) {
        let node = &self.nodes[n];
        let k = segs.len();
        // Fast path: every segment is a single entry (the common case in
        // key-schema views such as indicator trees) — one product, and
        // when the view tuple is the key itself, no assembly at all.
        if segs.iter().all(|s| s.len() == 1) {
            let mut mult = scale;
            for s in segs {
                mult *= s[0].1;
            }
            let tuple = if node.assembly_is_key {
                key.clone()
            } else if let Some(c) = node.assembly_is_seg {
                segs[c][0].0.clone()
            } else {
                let mut values: Vec<Value> = Vec::with_capacity(node.schema.arity());
                for src in &node.assembly {
                    match *src {
                        FieldSrc::Key(p) => values.push(key.get(p).clone()),
                        FieldSrc::Seg { c, p } => values.push(segs[c][0].0.get(p).clone()),
                    }
                }
                Tuple::new(values)
            };
            *acc.entry(tuple).or_insert(0) += mult;
            return;
        }
        let mut pick = vec![0usize; k];
        'outer: loop {
            let mut mult = scale;
            for i in 0..k {
                mult *= segs[i][pick[i]].1;
            }
            let tuple = if let Some(c) = node.assembly_is_seg {
                // The view tuple *is* child c's segment tuple: reuse it.
                segs[c][pick[c]].0.clone()
            } else {
                let mut values: Vec<Value> = Vec::with_capacity(node.schema.arity());
                for src in &node.assembly {
                    match *src {
                        FieldSrc::Key(p) => values.push(key.get(p).clone()),
                        FieldSrc::Seg { c, p } => values.push(segs[c][pick[c]].0.get(p).clone()),
                    }
                }
                Tuple::new(values)
            };
            *acc.entry(tuple).or_insert(0) += mult;
            // Odometer.
            for i in (0..k).rev() {
                pick[i] += 1;
                if pick[i] < segs[i].len() {
                    continue 'outer;
                }
                pick[i] = 0;
            }
            break;
        }
    }

    /// Rebuilds partition `pi` as a strict partition with threshold
    /// `theta` against its base relation (Fig. 20 line 3).
    pub(crate) fn rebuild_partition(&mut self, pi: usize, theta: usize) {
        let Runtime {
            rels,
            partitions,
            base_rel,
            base_part_idx,
            part_atom,
            ..
        } = self;
        let base = &rels[base_rel[part_atom[pi]]];
        partitions[pi].rebuild_strict(base, base_part_idx[pi], theta);
    }

    /// Recomputes every partition, indicator tree, heavy indicator, and
    /// component view from the current base relations (preprocessing and
    /// `MajorRebalancing`, Figs. 20/22).
    pub(crate) fn materialize_all(&mut self, theta: usize) {
        for pi in 0..self.partitions.len() {
            self.rebuild_partition(pi, theta);
        }
        for i in 0..self.ind_all_root.len() {
            self.materialize_tree(self.ind_all_root[i]);
            self.materialize_tree(self.ind_light_root[i]);
            self.fill_heavy(i);
        }
        let roots: Vec<NodeId> = self.comp_roots.iter().flatten().copied().collect();
        for r in roots {
            self.materialize_tree(r);
        }
    }

    /// Fills the heavy indicator relation `H = ∃All ∧ ∄L` for indicator
    /// `i` from the materialized indicator-tree roots (set semantics).
    pub(crate) fn fill_heavy(&mut self, i: usize) {
        let all_root = self.ind_all_root[i];
        let light_root = self.ind_light_root[i];
        let mut present: Vec<Tuple> = Vec::new();
        {
            let all = self.node_rel(all_root);
            let light = self.node_rel(light_root);
            for (t, _) in all.iter() {
                if light.get(t) == 0 {
                    present.push(t.clone());
                }
            }
        }
        let h = self.heavy_rel[i];
        self.rels[h].clear();
        for t in present {
            self.rels[h].insert(t, 1);
        }
    }
}

/// Helper: concatenated variable names of a key schema (display only).
pub(crate) fn key_tag(key: &Schema) -> String {
    key.vars().iter().map(|v| v.name()).collect()
}
