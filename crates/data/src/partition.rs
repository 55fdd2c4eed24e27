//! Heavy/light partitions of relations (Def. 11 of the paper).
//!
//! A partition of relation `R` on a key schema `S` with threshold `θ` splits
//! `R` into a *heavy* part `H` and a *light* part `L` such that
//!
//! * (union) `R(x) = H(x) + L(x)`,
//! * (domain partition) `π_S H ∩ π_S L = ∅`,
//! * (heavy part) every key of `H` has degree ≥ ½·θ in `H`,
//! * (light part) every key of `L` has degree < 3⁄2·θ in `L`.
//!
//! A *strict* partition uses `≥ θ` / `< θ` instead; preprocessing and major
//! rebalancing build strict partitions, while single-tuple maintenance only
//! restores the slack conditions (which is what makes minor rebalancing
//! amortizable, Sec. 6.2).
//!
//! We materialize only the light part `R^S` — the heavy part is implicit as
//! `R − R^S` and is never scanned as a whole; heavy keys are reached through
//! heavy *indicator* views built by the planner.

use crate::relation::{IndexId, Relation};
use crate::schema::Schema;
use crate::value::Tuple;

/// The materialized light part `R^S` of a relation partitioned on `S`,
/// together with the bookkeeping needed for minor rebalancing.
pub struct Partition {
    /// Key schema `S`, a subset of the base schema (Example 29 splits
    /// `S(B)` on `B`, where Def. 11 states `S ⊂ X`).
    key: Schema,
    /// Positions of `S` inside the base schema.
    key_positions: Vec<usize>,
    /// The light part; same schema as the base relation.
    light: Relation,
    /// Index on `S` within the light part (degree of keys in `L`).
    light_key_index: IndexId,
}

impl Partition {
    /// Creates an empty partition of a relation with schema `base_schema`
    /// on key `key`.
    pub fn new(name: impl Into<String>, base_schema: &Schema, key: &Schema) -> Partition {
        assert!(
            base_schema.contains_all(key),
            "partition key {key:?} must be a subset of {base_schema:?}"
        );
        let mut light = Relation::new(name, base_schema.clone());
        let light_key_index = light.add_index(key);
        let key_positions = base_schema.positions_of(key);
        Partition {
            key: key.clone(),
            key_positions,
            light,
            light_key_index,
        }
    }

    /// The key schema `S`.
    pub fn key(&self) -> &Schema {
        &self.key
    }

    /// Positions of the key within the base schema.
    pub fn key_positions(&self) -> &[usize] {
        &self.key_positions
    }

    /// Shared access to the light part `R^S`.
    pub fn light(&self) -> &Relation {
        &self.light
    }

    /// Mutable access to the light part (the engine applies deltas through
    /// this and propagates them to dependent views).
    pub fn light_mut(&mut self) -> &mut Relation {
        &mut self.light
    }

    /// Degree `|σ_{S=key} L|` of a key in the light part. O(1).
    pub fn light_degree(&self, key: &Tuple) -> usize {
        self.light.group_len(self.light_key_index, key)
    }

    /// Whether the key currently has tuples in the light part.
    pub fn key_is_light(&self, key: &Tuple) -> bool {
        self.light.group_contains(self.light_key_index, key)
    }

    /// Projects a base tuple onto the partition key.
    pub fn key_of(&self, tuple: &Tuple) -> Tuple {
        tuple.project(&self.key_positions)
    }

    /// Rebuilds the light part from scratch as a *strict* partition of
    /// `base` with threshold `theta` (Fig. 20, `MajorRebalancing` line 3).
    ///
    /// Returns nothing; callers must recompute dependent views.
    pub fn rebuild_strict(&mut self, base: &Relation, base_key_index: IndexId, theta: usize) {
        self.light.clear();
        for (t, m) in base.iter() {
            let key = t.project(&self.key_positions);
            if base.group_len(base_key_index, &key) < theta {
                self.light.insert(t.clone(), m);
            }
        }
    }

    /// Moves every base tuple with the given key *into* the light part
    /// (heavy → light migration). Returns the inserted `(tuple, mult)`
    /// deltas so the caller can propagate them to views.
    pub fn migrate_in(
        &mut self,
        base: &Relation,
        base_key_index: IndexId,
        key: &Tuple,
    ) -> Vec<(Tuple, i64)> {
        let mut deltas = Vec::new();
        for (t, m) in base.group_iter(base_key_index, key) {
            deltas.push((t.clone(), m));
        }
        for (t, m) in &deltas {
            self.light.insert(t.clone(), *m);
        }
        deltas
    }

    /// Removes every tuple with the given key *from* the light part
    /// (light → heavy migration). Returns the removed `(tuple, -mult)`
    /// deltas so the caller can propagate them to views.
    pub fn migrate_out(&mut self, key: &Tuple) -> Vec<(Tuple, i64)> {
        let mut deltas = Vec::new();
        for (t, m) in self.light.group_iter(self.light_key_index, key) {
            deltas.push((t.clone(), -m));
        }
        for (t, m) in &deltas {
            self.light.delete(t.clone(), -m);
        }
        deltas
    }

    /// Checks the (slack) partition invariants of Def. 11 against `base`.
    /// Test/debug helper; O(|R|).
    pub fn check_invariants(
        &self,
        base: &Relation,
        base_key_index: IndexId,
        theta: usize,
    ) -> Result<(), String> {
        // Union + light-part containment: L ⊆ R with equal multiplicities
        // on light keys, and every base tuple with a light key is in L.
        for (t, m) in self.light.iter() {
            if base.get(t) != m {
                return Err(format!(
                    "light tuple {t:?} has mult {m} but base has {}",
                    base.get(t)
                ));
            }
        }
        let mut seen_keys: Vec<Tuple> = Vec::new();
        for key in self.light.group_keys(self.light_key_index) {
            seen_keys.push(key.clone());
        }
        for key in &seen_keys {
            let l = self.light_degree(key);
            let r = base.group_len(base_key_index, key);
            if l != r {
                return Err(format!(
                    "key {key:?} split between parts: light degree {l}, base degree {r}"
                ));
            }
            // Light part condition: degree < 3/2 θ.
            if 2 * l >= 3 * theta {
                return Err(format!(
                    "light key {key:?} has degree {l} ≥ 3/2·θ (θ={theta})"
                ));
            }
        }
        // Heavy part condition: every base key not in L has degree ≥ ½ θ.
        for key in base.group_keys(base_key_index) {
            if !self.key_is_light(key) {
                let d = base.group_len(base_key_index, key);
                if 2 * d < theta {
                    return Err(format!(
                        "heavy key {key:?} has degree {d} < ½·θ (θ={theta})"
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_with_degrees(degrees: &[(i64, usize)]) -> (Relation, IndexId) {
        let mut r = Relation::new("R", Schema::of(&["A", "B"]));
        let idx = r.add_index(&Schema::of(&["B"]));
        for &(b, deg) in degrees {
            for a in 0..deg as i64 {
                r.insert(Tuple::ints(&[a, b]), 1);
            }
        }
        (r, idx)
    }

    #[test]
    fn strict_rebuild_splits_on_threshold() {
        let (base, idx) = base_with_degrees(&[(1, 2), (2, 5), (3, 4)]);
        let mut p = Partition::new("R_B", base.schema(), &Schema::of(&["B"]));
        p.rebuild_strict(&base, idx, 4);
        // Degree < 4 is light: key 1 (deg 2); keys 2 (5) and 3 (4) heavy.
        assert_eq!(p.light_degree(&Tuple::ints(&[1])), 2);
        assert_eq!(p.light_degree(&Tuple::ints(&[2])), 0);
        assert_eq!(p.light_degree(&Tuple::ints(&[3])), 0);
        p.check_invariants(&base, idx, 4).unwrap();
    }

    #[test]
    fn migrations_roundtrip() {
        let (base, idx) = base_with_degrees(&[(1, 3)]);
        let mut p = Partition::new("R_B", base.schema(), &Schema::of(&["B"]));
        let ins = p.migrate_in(&base, idx, &Tuple::ints(&[1]));
        assert_eq!(ins.len(), 3);
        assert!(ins.iter().all(|(_, m)| *m == 1));
        assert_eq!(p.light_degree(&Tuple::ints(&[1])), 3);
        let outs = p.migrate_out(&Tuple::ints(&[1]));
        assert_eq!(outs.len(), 3);
        assert!(outs.iter().all(|(_, m)| *m == -1));
        assert_eq!(p.light_degree(&Tuple::ints(&[1])), 0);
        assert!(p.light().is_empty());
    }

    #[test]
    fn invariant_checker_flags_split_key() {
        let (base, idx) = base_with_degrees(&[(1, 4)]);
        let mut p = Partition::new("R_B", base.schema(), &Schema::of(&["B"]));
        // Insert only half the group into the light part: invalid.
        p.light_mut().insert(Tuple::ints(&[0, 1]), 1);
        p.light_mut().insert(Tuple::ints(&[1, 1]), 1);
        assert!(p.check_invariants(&base, idx, 10).is_err());
    }

    #[test]
    #[should_panic(expected = "must be a subset")]
    fn key_must_be_subset() {
        let _ = Partition::new("P", &Schema::of(&["A"]), &Schema::of(&["B"]));
    }

    #[test]
    fn full_schema_key_degrees_are_unit() {
        // Example 29 partitions S(B) on B itself.
        let mut base = Relation::new("S", Schema::of(&["B"]));
        let idx = base.add_index(&Schema::of(&["B"]));
        base.insert(Tuple::ints(&[1]), 5);
        let mut p = Partition::new("S_B", base.schema(), &Schema::of(&["B"]));
        p.rebuild_strict(&base, idx, 2);
        assert_eq!(p.light_degree(&Tuple::ints(&[1])), 1);
        p.check_invariants(&base, idx, 2).unwrap();
    }
}
