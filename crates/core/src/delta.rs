//! Delta propagation (paper Figs. 17–18), batched over dirty keys.
//!
//! `Runtime::propagate` implements `Apply` for a *set* of leaf deltas: the
//! consolidated delta is pushed along the path from the leaf to the root of
//! its view tree; at each view the delta is joined with the *current* state
//! of the sibling subtrees (classical delta rules \[16\]). Since children
//! share the view's join key and are disjoint elsewhere, the delta is first
//! grouped by that key and each **distinct dirty key** then costs one
//! sibling semi-join check plus one group-product recomputation — O(1)
//! after aux views, O(N^ε) inside light trees, which is what yields the
//! O(N^{δε}) amortized per-update time of Prop. 23. A batch of k updates
//! hitting d ≤ k distinct keys therefore does d group-products per node
//! instead of k, and deltas that cancel on the way up (the accumulator
//! drops zero entries between levels) stop propagating early.
//!
//! All per-level state (delta vectors, accumulator maps, grouping maps,
//! segment buffers) lives in a `PropScratch` arena owned by the
//! `Runtime`: it is taken out when a propagation starts and put back when
//! it ends, so the hot path performs no map or vector allocations after
//! warm-up — the zero-allocation contract of this storage engine's
//! maintenance path.
//!
//! `Runtime::refresh_heavy` realizes `UpdateIndTree` for the derived
//! heavy indicator `H = ∃All ∧ ∄L`: after the All/L indicator trees have
//! absorbed a delta, the support of `H` at the update's key is recomputed
//! and the ±1 change in `∃H` is returned for further propagation.

use ivme_data::fx::FxHashMap;
use ivme_data::Tuple;

use crate::runtime::{NodeId, Runtime};

#[cfg(test)]
thread_local! {
    /// Tuples this thread's view deltas produced, summed over every level
    /// of every propagation — test support for bounding maintenance work.
    pub(crate) static VIEW_DELTA_TUPLES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// A set of per-tuple multiplicity changes over one node's schema.
pub(crate) type Delta = Vec<(Tuple, i64)>;

/// Reusable buffers for `Runtime::propagate` and `view_delta`. Owned by
/// the runtime; `std::mem::take`n for the duration of one propagation
/// (propagation never re-enters itself, so the take can't observe an empty
/// arena mid-flight — and even if it did, a fresh default is correct, just
/// slower).
#[derive(Default)]
pub(crate) struct PropScratch {
    /// The delta at the current level.
    current: Delta,
    /// The delta being assembled for the next level.
    next: Delta,
    /// Consolidated view-delta accumulator (one entry per output tuple).
    acc: FxHashMap<Tuple, i64>,
    /// Scalar grouping: dirty key → Σ multiplicity.
    by_key: FxHashMap<Tuple, i64>,
    /// General grouping: dirty key → aggregated delta segments.
    by_key_seg: FxHashMap<Tuple, FxHashMap<Tuple, i64>>,
    /// Pool of drained inner maps for `by_key_seg`.
    seg_pool: Vec<FxHashMap<Tuple, i64>>,
    /// Per-child segment vectors for group products.
    segs: Vec<Vec<(Tuple, i64)>>,
    /// Aggregation scratch for `aggregated_group_into`.
    agg: FxHashMap<Tuple, i64>,
}

impl Runtime {
    /// Applies `delta` (already applied to the leaf's backing relation) to
    /// every ancestor view of `leaf`, bottom-up. Each ancestor recomputes
    /// one group-product per distinct dirty join key.
    ///
    /// `delta` must be **consolidated**: at most one entry per tuple, none
    /// zero. Every producer (DeltaBatch, accumulator drains, migrations,
    /// indicator refreshes) already satisfies this, and the identity fast
    /// paths rely on it — an entry pair like `(t,−1),(t,+1)` that an
    /// accumulator would net to nothing could otherwise underflow a copy
    /// view mid-application.
    pub(crate) fn propagate(&mut self, leaf: NodeId, delta: &[(Tuple, i64)]) {
        if delta.is_empty() || self.nodes[leaf].parent.is_none() {
            return;
        }
        let mut scr = std::mem::take(&mut self.scratch);
        let mut child = leaf;
        // The first level reads the caller's slice directly; later levels
        // read the scratch buffer refilled from the accumulator.
        let mut first = true;
        while let Some(parent) = self.nodes[child].parent {
            if !first && scr.current.is_empty() {
                break;
            }
            if self.nodes[parent].project_identity {
                // The view is a verbatim copy of its child: the delta
                // passes through unchanged — apply it and keep the same
                // buffer for the next level, no accumulator round trip.
                let rel = self.nodes[parent].rel;
                let level: &[(Tuple, i64)] = if first { delta } else { &scr.current };
                for (t, m) in level {
                    self.rels[rel]
                        .apply(t.clone(), *m)
                        .expect("view maintenance drove a multiplicity negative");
                }
                child = parent;
                continue;
            }
            scr.acc.clear();
            {
                let level: &[(Tuple, i64)] = if first { delta } else { &scr.current };
                self.view_delta(
                    parent,
                    child,
                    level,
                    &mut scr.acc,
                    &mut scr.by_key,
                    &mut scr.by_key_seg,
                    &mut scr.seg_pool,
                    &mut scr.segs,
                    &mut scr.agg,
                );
            }
            #[cfg(test)]
            VIEW_DELTA_TUPLES.with(|n| n.set(n.get() + scr.acc.len() as u64));
            first = false;
            let rel = self.nodes[parent].rel;
            let terminal = self.nodes[parent].parent.is_none();
            // The accumulator holds one consolidated entry per tuple;
            // apply in one pass, materializing the delta vector only if
            // another level needs it.
            if terminal {
                for (t, m) in scr.acc.drain() {
                    if m != 0 {
                        self.rels[rel]
                            .apply(t, m)
                            .expect("view maintenance drove a multiplicity negative");
                    }
                }
                break;
            }
            scr.next.clear();
            for (t, m) in scr.acc.drain() {
                if m != 0 {
                    self.rels[rel]
                        .apply(t.clone(), m)
                        .expect("view maintenance drove a multiplicity negative");
                    scr.next.push((t, m));
                }
            }
            std::mem::swap(&mut scr.current, &mut scr.next);
            child = parent;
        }
        scr.current.clear();
        scr.next.clear();
        self.scratch = scr;
    }

    /// `Runtime::propagate` to every leaf reading atom `atom` directly.
    /// The leaf list is taken out for the walk instead of cloned.
    pub(crate) fn propagate_atom_leaves(&mut self, atom: usize, delta: &[(Tuple, i64)]) {
        let leaves = std::mem::take(&mut self.leaves_by_atom[atom]);
        for &leaf in &leaves {
            self.propagate(leaf, delta);
        }
        self.leaves_by_atom[atom] = leaves;
    }

    /// `Runtime::propagate` to every leaf reading partition `pi`'s light
    /// part. The leaf list is taken out for the walk instead of cloned.
    pub(crate) fn propagate_part_leaves(&mut self, pi: usize, delta: &[(Tuple, i64)]) {
        let leaves = std::mem::take(&mut self.leaves_by_part[pi]);
        for &leaf in &leaves {
            self.propagate(leaf, delta);
        }
        self.leaves_by_part[pi] = leaves;
    }

    /// `Runtime::propagate` to every leaf reading heavy indicator `ind`.
    /// The leaf list is taken out for the walk instead of cloned.
    pub(crate) fn propagate_ind_leaves(&mut self, ind: usize, delta: &[(Tuple, i64)]) {
        let leaves = std::mem::take(&mut self.leaves_by_ind[ind]);
        for &leaf in &leaves {
            self.propagate(leaf, delta);
        }
        self.leaves_by_ind[ind] = leaves;
    }

    /// Computes the view delta `δV = V_1 ⋈ ... ⋈ δV_j ⋈ ... ⋈ V_k`
    /// (projected onto V's schema) for a delta arriving from child `child`,
    /// grouped so that every distinct dirty key is recomputed exactly once.
    /// Fills the consolidated accumulator `acc` (entries may be zero); all
    /// other parameters are reusable scratch, left drained/cleared.
    #[allow(clippy::too_many_arguments)]
    fn view_delta(
        &self,
        parent: NodeId,
        child: NodeId,
        delta: &[(Tuple, i64)],
        acc: &mut FxHashMap<Tuple, i64>,
        by_key: &mut FxHashMap<Tuple, i64>,
        by_key_seg: &mut FxHashMap<Tuple, FxHashMap<Tuple, i64>>,
        seg_pool: &mut Vec<FxHashMap<Tuple, i64>>,
        segs: &mut Vec<Vec<(Tuple, i64)>>,
        agg: &mut FxHashMap<Tuple, i64>,
    ) {
        let node = &self.nodes[parent];
        let j = node
            .children
            .iter()
            .position(|&c| c == child)
            .expect("delta child must be a child of parent");
        if node.children.len() == 1 {
            for (t, m) in delta {
                *acc.entry(t.project(&node.project_pos)).or_insert(0) += m;
            }
            return;
        }
        // Size the per-child segment buffers once.
        if segs.len() < node.children.len() {
            segs.resize_with(node.children.len(), Vec::new);
        }
        if node.child_seg_pos[j].is_empty() {
            let scalar_view = node.child_seg_pos.iter().all(|s| s.is_empty());
            if node.child_key_identity[j] {
                // The join key covers the whole delta tuple: each entry of
                // the (consolidated) delta is its own dirty key, so the
                // per-key regrouping map would be a verbatim rebuild —
                // skip it and process entries directly.
                for (t, m) in delta {
                    self.scalar_dirty_key(parent, j, t, *m, scalar_view, acc, segs, agg);
                }
            } else {
                // The updated child contributes no segment variables: its
                // per-key delta is a scalar, so group straight into
                // key → Σm (self-cancellation nets +1/−1 pairs to nothing).
                by_key.clear();
                for (t, m) in delta {
                    *by_key.entry(t.project(&node.child_key_pos[j])).or_insert(0) += m;
                }
                for (key, dm) in by_key.drain() {
                    if dm != 0 {
                        self.scalar_dirty_key(parent, j, &key, dm, scalar_view, acc, segs, agg);
                    }
                }
            }
        } else {
            // General case: group the incoming delta by the view's join
            // key, aggregating the updated child's segments. Inner maps are
            // pooled across keys and propagations.
            by_key_seg.clear();
            for (t, m) in delta {
                let key = t.project(&node.child_key_pos[j]);
                let seg = t.project(&node.child_seg_pos[j]);
                *by_key_seg
                    .entry(key)
                    .or_insert_with(|| seg_pool.pop().unwrap_or_default())
                    .entry(seg)
                    .or_insert(0) += m;
            }
            'keys: for (key, mut dsegs) in by_key_seg.drain() {
                // One group-product per dirty key: aggregated sibling
                // groups × the aggregated delta segments. The delta's own
                // segments land in segs[j]; the inner map returns to the
                // pool either way.
                segs[j].clear();
                segs[j].extend(dsegs.drain().filter(|&(_, m)| m != 0));
                seg_pool.push(dsegs);
                if segs[j].is_empty() {
                    continue;
                }
                // Semi-join filter against the siblings — once per key.
                // With a single sibling the aggregation below detects the
                // absent group with the same one probe, so the precheck
                // would only add work.
                if node.children.len() > 2 {
                    for (i, &c) in node.children.iter().enumerate() {
                        if i != j && !self.node_rel(c).group_contains(node.child_key_idx[i], &key) {
                            continue 'keys;
                        }
                    }
                }
                let mut any_empty = false;
                for i in 0..node.children.len() {
                    if i != j {
                        self.aggregated_group_into(parent, i, &key, agg, &mut segs[i]);
                        any_empty |= segs[i].is_empty();
                    }
                }
                if any_empty {
                    continue;
                }
                self.emit_products(parent, &key, &segs[..node.children.len()], 1, acc);
            }
        }
    }

    /// One dirty key of a scalar-contribution delta (the updated child
    /// retains no segment variables): joins `dm` with the sibling groups at
    /// `key` and folds the result into `acc`. Factored out so the
    /// identity-key fast path and the grouped path share it.
    #[allow(clippy::too_many_arguments)]
    fn scalar_dirty_key(
        &self,
        parent: NodeId,
        j: usize,
        key: &Tuple,
        dm: i64,
        scalar_view: bool,
        acc: &mut FxHashMap<Tuple, i64>,
        segs: &mut [Vec<(Tuple, i64)>],
        agg: &mut FxHashMap<Tuple, i64>,
    ) {
        let node = &self.nodes[parent];
        // Semi-join precheck pays only with ≥ 2 siblings: with one sibling
        // the group walk below detects absence with the same single probe.
        if node.children.len() > 2 {
            for (i, &c) in node.children.iter().enumerate() {
                if i != j && !self.node_rel(c).group_contains(node.child_key_idx[i], key) {
                    return;
                }
            }
        }
        if scalar_view {
            // No child retains segment variables: the view tuple is
            // assembled from the key alone and δV(key) is the plain
            // product of the sibling group sums — fully scalar, no
            // intermediate vectors (the indicator-tree hot path).
            let mut mult = dm;
            for (i, &c) in node.children.iter().enumerate() {
                if i == j {
                    continue;
                }
                let mut sum = 0i64;
                for (_, m) in self.node_rel(c).group_iter(node.child_key_idx[i], key) {
                    sum += m;
                }
                mult *= sum;
                if mult == 0 {
                    return;
                }
            }
            let tuple = if node.assembly_is_key {
                key.clone()
            } else {
                node.assembly
                    .iter()
                    .map(|src| match *src {
                        crate::runtime::FieldSrc::Key(p) => key.get(p).clone(),
                        crate::runtime::FieldSrc::Seg { .. } => {
                            unreachable!("scalar view has no segment sources")
                        }
                    })
                    .collect()
            };
            *acc.entry(tuple).or_insert(0) += mult;
        } else if node.children.len() == 2
            && node.assembly_is_seg == Some(1 - j)
            && node.child_seg_distinct[1 - j]
        {
            // Binary view whose output tuple is the sibling's segment (the
            // light component tree hot path): δV = dm × σ_{K=key}(sibling),
            // streamed straight into the accumulator with no intermediate
            // vectors.
            let i = 1 - j;
            let sib = self.node_rel(node.children[i]);
            let idx = node.child_key_idx[i];
            let seg_pos = &node.child_seg_pos[i];
            for (t, m) in sib.group_iter(idx, key) {
                *acc.entry(t.project(seg_pos)).or_insert(0) += dm * m;
            }
        } else {
            let k = node.children.len();
            let mut any_empty = false;
            for i in 0..k {
                if i == j {
                    segs[i].clear();
                    segs[i].push((Tuple::empty(), dm));
                } else {
                    self.aggregated_group_into(parent, i, key, agg, &mut segs[i]);
                    any_empty |= segs[i].is_empty();
                }
            }
            if !any_empty {
                self.emit_products(parent, key, &segs[..k], 1, acc);
            }
        }
    }

    /// `UpdateIndTree` for the derived heavy indicator of `ind` at `key`:
    /// recomputes `present(key) = key ∈ All ∧ key ∉ L` against the current
    /// indicator-tree roots, applies the change to the `H` relation, and
    /// returns the `δ(∃H)` to propagate (`None` when unchanged).
    pub(crate) fn refresh_heavy(&mut self, ind: usize, key: &Tuple) -> Option<(Tuple, i64)> {
        // `&&` short-circuits the L-tree probe when the key left All.
        let desired = self.node_rel(self.ind_all_root[ind]).get(key) != 0
            && self.node_rel(self.ind_light_root[ind]).get(key) == 0;
        let h = self.heavy_rel[ind];
        let present = self.rels[h].get(key) != 0;
        match (present, desired) {
            (false, true) => {
                self.rels[h].insert(key.clone(), 1);
                Some((key.clone(), 1))
            }
            (true, false) => {
                self.rels[h].delete(key.clone(), 1);
                Some((key.clone(), -1))
            }
            _ => None,
        }
    }

    /// Brute-force recompute of one view from its children — test oracle
    /// used to validate incremental maintenance.
    #[cfg(test)]
    pub(crate) fn recompute_view_oracle(&self, n: NodeId) -> Vec<(Tuple, i64)> {
        use crate::runtime::{FieldSrc, RtKind};
        use ivme_data::Value;
        let node = &self.nodes[n];
        assert!(matches!(node.kind, RtKind::View));
        let mut acc: FxHashMap<Tuple, i64> = FxHashMap::default();
        if node.children.len() == 1 {
            for (t, m) in self.node_rel(node.children[0]).iter() {
                *acc.entry(t.project(&node.project_pos)).or_insert(0) += m;
            }
        } else {
            // Nested-loop join over all children (exponential; tests only).
            let rows: Vec<Vec<(Tuple, i64)>> = node
                .children
                .iter()
                .map(|&c| {
                    self.node_rel(c)
                        .iter()
                        .map(|(t, m)| (t.clone(), m))
                        .collect()
                })
                .collect();
            let mut pick = vec![0usize; rows.len()];
            if rows.iter().all(|r| !r.is_empty()) {
                'outer: loop {
                    let tuples: Vec<&Tuple> =
                        (0..rows.len()).map(|i| &rows[i][pick[i]].0).collect();
                    let key0 = tuples[0].project(&node.child_key_pos[0]);
                    let matches =
                        (1..rows.len()).all(|i| tuples[i].project(&node.child_key_pos[i]) == key0);
                    if matches {
                        let mult: i64 = (0..rows.len()).map(|i| rows[i][pick[i]].1).product();
                        let mut vals: Vec<Value> = Vec::new();
                        for src in &node.assembly {
                            match *src {
                                FieldSrc::Key(p) => vals.push(key0.get(p).clone()),
                                FieldSrc::Seg { c, p } => vals
                                    .push(tuples[c].project(&node.child_seg_pos[c]).get(p).clone()),
                            }
                        }
                        *acc.entry(Tuple::new(vals)).or_insert(0) += mult;
                    }
                    for i in (0..rows.len()).rev() {
                        pick[i] += 1;
                        if pick[i] < rows[i].len() {
                            continue 'outer;
                        }
                        pick[i] = 0;
                    }
                    break;
                }
            }
        }
        let mut v: Vec<(Tuple, i64)> = acc.into_iter().filter(|&(_, m)| m != 0).collect();
        v.sort();
        v
    }

    /// Checks that every materialized view equals a from-scratch recompute
    /// over its current children — test support for the maintenance path.
    #[cfg(test)]
    pub(crate) fn check_all_views(&self) -> Result<(), String> {
        use crate::runtime::RtKind;
        for n in 0..self.nodes.len() {
            if !matches!(self.nodes[n].kind, RtKind::View) {
                continue;
            }
            let got = self.rels[self.nodes[n].rel].to_sorted_vec();
            let want = self.recompute_view_oracle(n);
            if got != want {
                return Err(format!(
                    "view {} (node {n}) diverged from its definition:\n got {got:?}\nwant {want:?}",
                    self.nodes[n].name
                ));
            }
        }
        // Heavy indicators equal All ∧ ¬L.
        for i in 0..self.heavy_rel.len() {
            let all = self.node_rel(self.ind_all_root[i]);
            let light = self.node_rel(self.ind_light_root[i]);
            let h = &self.rels[self.heavy_rel[i]];
            for (t, _) in all.iter() {
                let want = light.get(t) == 0;
                let got = h.get(t) != 0;
                if got != want {
                    return Err(format!(
                        "indicator {i} wrong at {t:?}: got {got}, want {want}"
                    ));
                }
            }
            for (t, m) in h.iter() {
                if m != 1 || all.get(t) == 0 || light.get(t) != 0 {
                    return Err(format!("indicator {i} stray entry {t:?}→{m}"));
                }
            }
        }
        Ok(())
    }
}
