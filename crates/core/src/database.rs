//! Input database container.
//!
//! A [`Database`] maps relation names to bags of tuples with strictly
//! positive multiplicities — the engine copies these into per-atom-occurrence
//! base relations during preprocessing (the paper assumes each view tree has
//! a copy of its base relations; occurrences of a repeated relation symbol
//! are separate copies, footnote 2). The container also supports deltas so
//! tests can mirror an update stream and compare against a brute-force
//! oracle.

use ivme_data::fx::FxHashMap;
use ivme_data::{NegativeMultiplicity, Schema, Tuple};

/// A named collection of input relations (bag semantics).
#[derive(Default, Clone)]
pub struct Database {
    relations: FxHashMap<String, FxHashMap<Tuple, i64>>,
}

impl Database {
    /// Empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// Adds `mult` copies of `tuple` to relation `name`.
    pub fn insert(&mut self, name: &str, tuple: Tuple, mult: i64) {
        assert!(mult > 0, "database tuples must have positive multiplicity");
        self.apply(name, tuple, mult);
    }

    /// Applies a delta (insert for positive, delete for negative).
    /// Panics if a multiplicity would go negative.
    pub fn apply(&mut self, name: &str, tuple: Tuple, delta: i64) {
        let rel = self.relations.entry(name.to_owned()).or_default();
        let m = rel.entry(tuple.clone()).or_insert(0);
        *m += delta;
        assert!(*m >= 0, "negative multiplicity for {tuple:?} in {name}");
        if *m == 0 {
            rel.remove(&tuple);
        }
    }

    /// Whether `deltas` can apply to relation `name`: refused, with the
    /// first tuple that fails, if one would take a multiplicity below zero
    /// or past `i64`.
    pub fn check(
        &self,
        name: &str,
        deltas: &FxHashMap<Tuple, i64>,
    ) -> Result<(), NegativeMultiplicity> {
        let rel = self.relations.get(name);
        for (tuple, &delta) in deltas {
            let present = rel.and_then(|r| r.get(tuple)).copied().unwrap_or(0);
            if present.checked_add(delta).is_none_or(|m| m < 0) {
                let tuple = tuple.clone();
                return Err(NegativeMultiplicity {
                    tuple,
                    present,
                    delta,
                });
            }
        }
        Ok(())
    }

    /// Applies `deltas` that [`Database::check`] accepted. A relation that
    /// holds no rows takes them whole, as a copy of the map: a bulk load
    /// hashes each row once, into the batch.
    pub fn apply_all(&mut self, name: &str, deltas: &FxHashMap<Tuple, i64>) {
        match self.relations.get_mut(name) {
            Some(rel) if !rel.is_empty() => {
                for (tuple, &delta) in deltas {
                    self.apply(name, tuple.clone(), delta);
                }
            }
            _ => {
                let positive = deltas.values().all(|&d| d > 0);
                assert!(positive, "negative multiplicity in {name}");
                self.relations.insert(name.to_owned(), deltas.clone());
            }
        }
    }

    /// Adds a set-semantics batch of integer tuples (test/bench helper).
    pub fn insert_ints(&mut self, name: &str, rows: &[&[i64]]) {
        for r in rows {
            self.insert(name, Tuple::ints(r), 1);
        }
    }

    /// Current multiplicity of `tuple` in `name`.
    pub fn get(&self, name: &str, tuple: &Tuple) -> i64 {
        self.relations
            .get(name)
            .and_then(|r| r.get(tuple))
            .copied()
            .unwrap_or(0)
    }

    /// The consolidated rows of `name` (unspecified order).
    pub fn rows(&self, name: &str) -> Vec<(Tuple, i64)> {
        self.relations
            .get(name)
            .map(|r| r.iter().map(|(t, m)| (t.clone(), *m)).collect())
            .unwrap_or_default()
    }

    /// All relation names, sorted — a deterministic iteration order for
    /// serialization (the backing map is hash-ordered).
    pub fn relations(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.relations.keys().map(String::as_str).collect();
        names.sort_unstable();
        names
    }

    /// Number of distinct tuples in `name`.
    pub fn len(&self, name: &str) -> usize {
        self.relations.get(name).map_or(0, FxHashMap::len)
    }

    /// Total number of distinct tuples across all relations (the database
    /// size `N` of the paper).
    pub fn total_rows(&self) -> usize {
        self.relations.values().map(FxHashMap::len).sum()
    }

    /// Validates tuple arities against a schema assignment.
    pub fn check_arity(&self, name: &str, schema: &Schema) -> Result<(), String> {
        if let Some(rel) = self.relations.get(name) {
            for t in rel.keys() {
                if t.arity() != schema.arity() {
                    return Err(format!(
                        "relation {name}: tuple {t:?} has arity {}, schema {schema:?} expects {}",
                        t.arity(),
                        schema.arity()
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

    #[test]
    fn insert_and_read_back() {
        let mut db = Database::new();
        db.insert_ints("R", &[&[1, 2], &[3, 4]]);
        db.insert("R", Tuple::ints(&[1, 2]), 2);
        assert_eq!(db.len("R"), 2);
        assert_eq!(db.get("R", &Tuple::ints(&[1, 2])), 3);
        assert_eq!(db.rows("S").len(), 0);
        assert_eq!(db.total_rows(), 2);
    }

    #[test]
    fn deltas_consolidate_and_remove() {
        let mut db = Database::new();
        db.apply("R", Tuple::ints(&[1]), 2);
        db.apply("R", Tuple::ints(&[1]), -2);
        assert_eq!(db.len("R"), 0);
    }

    #[test]
    #[should_panic(expected = "negative multiplicity")]
    fn negative_rejected() {
        let mut db = Database::new();
        db.apply("R", Tuple::ints(&[1]), -1);
    }

    #[test]
    fn deltas_check_then_apply_all_or_nothing() {
        let map = |rows: &[(i64, i64)]| -> FxHashMap<Tuple, i64> {
            rows.iter().map(|&(v, d)| (Tuple::ints(&[v]), d)).collect()
        };
        let mut db = Database::new();
        // A relation with no rows takes the deltas whole.
        db.apply_all("R", &map(&[(1, 2), (2, 1)]));
        assert_eq!((db.len("R"), db.get("R", &Tuple::ints(&[1]))), (2, 2));
        for (bad, present) in [(map(&[(2, 5), (1, -3)]), 2), (map(&[(1, i64::MAX)]), 2)] {
            let e = db.check("R", &bad).unwrap_err();
            assert_eq!((e.tuple, e.present), (Tuple::ints(&[1]), present));
        }
        assert!(db.check("S", &map(&[(1, -1)])).is_err());
        let ok = map(&[(1, -2), (3, 4)]);
        db.check("R", &ok).unwrap();
        db.apply_all("R", &ok);
        let mut rows = db.rows("R");
        rows.sort_unstable();
        assert_eq!(rows, [(Tuple::ints(&[2]), 1), (Tuple::ints(&[3]), 4)]);
    }

    #[test]
    fn arity_check() {
        let mut db = Database::new();
        db.insert_ints("R", &[&[1, 2]]);
        assert!(db.check_arity("R", &Schema::of(&["A", "B"])).is_ok());
        assert!(db.check_arity("R", &Schema::of(&["A"])).is_err());
    }
}
