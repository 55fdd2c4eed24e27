//! Batched deltas.
//!
//! A [`DeltaBatch`] is a consolidated multiset of signed single-tuple
//! updates, grouped per relation: pushing `{t → +1}` and `{t → −1}` into
//! the same batch cancels to nothing (self-cancellation), and pushing
//! `{t → +1}` twice consolidates to `{t → +2}`. The batch remembers its
//! *cardinality* — the number of raw single-tuple updates folded in — so
//! engines can charge rebalancing bookkeeping per update even when the
//! consolidated delta is much smaller.
//!
//! Semantics: a batch is the **net** delta of its updates. Applying a
//! batch is equivalent to applying its updates one at a time in any order,
//! provided every prefix stays valid; a batch whose *net* effect would
//! drive some multiplicity negative is rejected atomically (nothing is
//! applied), mirroring the paper's per-update rejection rule (Sec. 3).
//! So is a batch whose deltas on one tuple sum past `i64`: the batch
//! remembers the first such entry ([`DeltaBatch::overflow`]) and every
//! engine refuses it whole.

use std::collections::hash_map::Entry;

use crate::fx::FxHashMap;
use crate::value::Tuple;

/// One single-tuple update against a named relation: `δR = {tuple → delta}`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Update {
    /// Relation symbol the delta targets.
    pub relation: String,
    /// The tuple whose multiplicity changes.
    pub tuple: Tuple,
    /// Signed multiplicity change (`> 0` insert, `< 0` delete).
    pub delta: i64,
}

impl Update {
    /// An arbitrary signed update.
    pub fn new(relation: impl Into<String>, tuple: Tuple, delta: i64) -> Update {
        Update {
            relation: relation.into(),
            tuple,
            delta,
        }
    }

    /// A unit-multiplicity insert.
    pub fn insert(relation: impl Into<String>, tuple: Tuple) -> Update {
        Update::new(relation, tuple, 1)
    }

    /// A unit-multiplicity delete.
    pub fn delete(relation: impl Into<String>, tuple: Tuple) -> Update {
        Update::new(relation, tuple, -1)
    }
}

/// A consolidated, per-relation-grouped multiset of signed tuple deltas.
#[derive(Clone, Debug, Default)]
pub struct DeltaBatch {
    per_rel: FxHashMap<String, FxHashMap<Tuple, i64>>,
    cardinality: usize,
    /// The first `(relation, tuple)` whose deltas summed past `i64`; its
    /// entry keeps the sum from before the overflowing push.
    overflow: Option<(String, Tuple)>,
}

/// Adds `delta` to `tuple`'s entry in `rel`, dropping an entry that
/// cancels to nothing. A sum past `i64` leaves the entry as it was and
/// hands the tuple back.
fn fold(rel: &mut FxHashMap<Tuple, i64>, tuple: Tuple, delta: i64) -> Result<(), Tuple> {
    match rel.entry(tuple) {
        Entry::Occupied(mut o) => match o.get().checked_add(delta) {
            Some(0) => {
                o.remove();
            }
            Some(sum) => *o.get_mut() = sum,
            None => return Err(o.key().clone()),
        },
        Entry::Vacant(v) => {
            v.insert(delta);
        }
    }
    Ok(())
}

impl DeltaBatch {
    /// An empty batch.
    pub fn new() -> DeltaBatch {
        DeltaBatch::default()
    }

    /// Consolidates a slice of updates into a batch.
    pub fn from_updates(updates: &[Update]) -> DeltaBatch {
        let mut b = DeltaBatch::new();
        for u in updates {
            b.push(&u.relation, u.tuple.clone(), u.delta);
        }
        b
    }

    /// Folds one update into the batch, consolidating with (and possibly
    /// cancelling against) previously pushed deltas on the same tuple.
    /// Zero deltas still count toward the cardinality but store nothing.
    pub fn push(&mut self, relation: &str, tuple: Tuple, delta: i64) {
        self.cardinality += 1;
        if delta == 0 {
            return;
        }
        if !self.per_rel.contains_key(relation) {
            self.per_rel
                .insert(relation.to_owned(), FxHashMap::default());
        }
        let rel = self.per_rel.get_mut(relation).expect("just inserted");
        if let Err(t) = fold(rel, tuple, delta) {
            self.overflow
                .get_or_insert_with(|| (relation.to_owned(), t));
        }
    }

    /// Folds a run of deltas against one relation, resolving the
    /// per-relation map once instead of once per delta — the splitting hot
    /// path of the sharded engine's router. Semantically identical to calling
    /// [`DeltaBatch::push`] for each element.
    pub fn extend_relation<I>(&mut self, relation: &str, deltas: I)
    where
        I: IntoIterator<Item = (Tuple, i64)>,
    {
        let it = deltas.into_iter();
        if !self.per_rel.contains_key(relation) {
            self.per_rel
                .insert(relation.to_owned(), FxHashMap::default());
        }
        let rel = self.per_rel.get_mut(relation).expect("just inserted");
        rel.reserve(it.size_hint().0);
        let mut folded = 0usize;
        for (tuple, delta) in it {
            folded += 1;
            if delta == 0 {
                continue;
            }
            if let Err(t) = fold(rel, tuple, delta) {
                self.overflow
                    .get_or_insert_with(|| (relation.to_owned(), t));
            }
        }
        self.cardinality += folded;
    }

    /// Convenience: fold in a unit insert.
    pub fn insert(&mut self, relation: &str, tuple: Tuple) {
        self.push(relation, tuple, 1);
    }

    /// Convenience: fold in a unit delete.
    pub fn delete(&mut self, relation: &str, tuple: Tuple) {
        self.push(relation, tuple, -1);
    }

    /// Number of raw single-tuple updates folded in (the batch cardinality
    /// `k` used for amortized-rebalancing bookkeeping).
    pub fn cardinality(&self) -> usize {
        self.cardinality
    }

    /// The first `(relation, tuple)` whose pushed deltas summed past
    /// `i64`, if any: the batch is not a net delta, and engines refuse it.
    pub fn overflow(&self) -> Option<(&str, &Tuple)> {
        self.overflow.as_ref().map(|(r, t)| (r.as_str(), t))
    }

    /// Number of distinct `(relation, tuple)` entries with non-zero net
    /// delta.
    pub fn distinct_len(&self) -> usize {
        self.per_rel.values().map(FxHashMap::len).sum()
    }

    /// True when the net delta is empty (everything cancelled or nothing
    /// was pushed).
    pub fn is_empty(&self) -> bool {
        self.per_rel.values().all(FxHashMap::is_empty)
    }

    /// The relation names with non-empty net deltas (arbitrary order).
    pub fn relations(&self) -> impl Iterator<Item = &str> {
        self.per_rel
            .iter()
            .filter(|(_, d)| !d.is_empty())
            .map(|(r, _)| r.as_str())
    }

    /// The consolidated deltas for one relation, as the map that holds
    /// them (`None` if untouched).
    pub fn relation(&self, relation: &str) -> Option<&FxHashMap<Tuple, i64>> {
        self.per_rel.get(relation)
    }

    /// The consolidated deltas for one relation (empty if untouched).
    pub fn deltas(&self, relation: &str) -> impl Iterator<Item = (&Tuple, i64)> {
        self.per_rel
            .get(relation)
            .into_iter()
            .flat_map(|d| d.iter().map(|(t, &m)| (t, m)))
    }

    /// The consolidated deltas for one relation as an owned vector —
    /// what engines feed into `Relation::apply_batch` and propagation.
    /// Sized up front (the iterator's `flat_map` hides the length, which
    /// would otherwise cost a realloc chain on large batches).
    pub fn deltas_vec(&self, relation: &str) -> Vec<(Tuple, i64)> {
        match self.per_rel.get(relation) {
            Some(d) => {
                let mut v = Vec::with_capacity(d.len());
                v.extend(d.iter().map(|(t, &m)| (t.clone(), m)));
                v
            }
            None => Vec::new(),
        }
    }

    /// Expands the batch back into per-tuple updates (consolidated form,
    /// one update per distinct tuple) — used to replay a batch through a
    /// single-tuple API for equivalence testing.
    pub fn to_updates(&self) -> Vec<Update> {
        let mut out: Vec<Update> = self
            .per_rel
            .iter()
            .flat_map(|(r, d)| d.iter().map(|(t, &m)| Update::new(r.clone(), t.clone(), m)))
            .collect();
        // Deterministic order for reproducible replays.
        out.sort_by(|a, b| (&a.relation, &a.tuple).cmp(&(&b.relation, &b.tuple)));
        out
    }

    /// Drops all state.
    pub fn clear(&mut self) {
        self.per_rel.clear();
        self.cardinality = 0;
        self.overflow = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consolidation_and_cancellation() {
        let mut b = DeltaBatch::new();
        b.insert("R", Tuple::ints(&[1, 2]));
        b.insert("R", Tuple::ints(&[1, 2]));
        b.push("R", Tuple::ints(&[3, 4]), 5);
        b.delete("R", Tuple::ints(&[3, 4]));
        b.insert("S", Tuple::ints(&[9]));
        b.delete("S", Tuple::ints(&[9]));
        assert_eq!(b.cardinality(), 6);
        assert_eq!(b.distinct_len(), 2);
        let r: Vec<(Tuple, i64)> = {
            let mut v = b.deltas_vec("R");
            v.sort();
            v
        };
        assert_eq!(
            r,
            vec![(Tuple::ints(&[1, 2]), 2), (Tuple::ints(&[3, 4]), 4)]
        );
        assert!(b.deltas("S").next().is_none(), "S fully cancelled");
        let rels: Vec<&str> = b.relations().collect();
        assert_eq!(rels, vec!["R"]);
    }

    #[test]
    fn a_sum_past_i64_is_remembered_not_wrapped() {
        let mut b = DeltaBatch::new();
        b.push("R", Tuple::ints(&[1, 2]), i64::MAX);
        assert_eq!(b.overflow(), None);
        b.push("R", Tuple::ints(&[1, 2]), i64::MAX);
        b.push("R", Tuple::ints(&[3]), i64::MIN);
        b.extend_relation("R", [(Tuple::ints(&[3]), -1)]);
        assert_eq!(b.overflow(), Some(("R", &Tuple::ints(&[1, 2]))));
        assert_eq!(b.deltas_vec("R").len(), 2);
        assert!(b.deltas("R").all(|(_, d)| d == i64::MAX || d == i64::MIN));
        let mut c = DeltaBatch::new();
        c.extend_relation(
            "S",
            [(Tuple::ints(&[1]), i64::MIN), (Tuple::ints(&[1]), -1)],
        );
        assert_eq!(c.overflow(), Some(("S", &Tuple::ints(&[1]))));
        c.clear();
        assert_eq!(c.overflow(), None);
    }

    #[test]
    fn zero_deltas_count_cardinality_only() {
        let mut b = DeltaBatch::new();
        b.push("R", Tuple::ints(&[1]), 0);
        assert_eq!(b.cardinality(), 1);
        assert!(b.is_empty());
    }

    #[test]
    fn roundtrip_through_updates() {
        let us = vec![
            Update::insert("R", Tuple::ints(&[1])),
            Update::delete("S", Tuple::ints(&[2])),
            Update::insert("R", Tuple::ints(&[1])),
        ];
        let b = DeltaBatch::from_updates(&us);
        let back = b.to_updates();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0], Update::new("R", Tuple::ints(&[1]), 2));
        assert_eq!(back[1], Update::new("S", Tuple::ints(&[2]), -1));
    }

    #[test]
    fn clear_resets() {
        let mut b = DeltaBatch::new();
        b.insert("R", Tuple::ints(&[1]));
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.cardinality(), 0);
    }
}
