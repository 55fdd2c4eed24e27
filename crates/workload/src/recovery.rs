//! Kill-and-recover driver: deterministic randomized workloads whose
//! every prefix has a cheap brute-force oracle.
//!
//! The durability tests and the `fig_recovery` bench share a need: drive
//! a server through a seed load plus `k` committed batches, kill it at an
//! arbitrary point, restart against the same data dir, and know *exactly*
//! what the recovered state must be. [`RecoveryWorkload`] pre-generates
//! the whole update history up front (seeded RNG, so reproducible from a
//! single `u64`), exposes each prefix as a [`Database`] for the oracle,
//! and renders the setup and per-batch wire scripts in the canonical
//! forms the WAL itself uses.
//!
//! Generation invariants that keep the oracles exact:
//! * deletes only target tuples live at that point of the history, so
//!   every batch is accepted — an acked batch k means prefixes 0..=k are
//!   the only possible recovered states;
//! * tuples within one batch are distinct, so the batch's cardinality
//!   equals its consolidated entry count and the engine's `updates`
//!   counter advances identically live and on WAL replay (replay sees
//!   consolidated entries; cancellation inside a batch would make the
//!   two counts diverge).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ivme_cli::proto;
use ivme_core::Database;
use ivme_data::Tuple;

/// The two-path join used throughout the serving tests.
pub const QUERY: &str = "Q(A,C) :- R(A,B), S(B,C)";

const RELS: &[&str] = &["R", "S"];
const DOMAIN: i64 = 6;

/// A pre-generated seed load plus batch history with known prefixes.
pub struct RecoveryWorkload {
    /// Initial rows, staged before `build`.
    pub seed: Vec<(String, Tuple)>,
    /// Committed batches, in order; entries are `(relation, tuple, ±1)`.
    pub batches: Vec<Vec<(String, Tuple, i64)>>,
}

impl RecoveryWorkload {
    /// Generates a workload: `n_seed` seed rows, then `n_batches` batches
    /// of 1..=`max_entries` distinct entries each. Deterministic in
    /// `seed_rng`.
    pub fn generate(seed_rng: u64, n_seed: usize, n_batches: usize, max_entries: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed_rng);
        let mut sim = Database::new();
        let mut seed = Vec::with_capacity(n_seed);
        for _ in 0..n_seed {
            let rel = RELS[rng.gen_range(0..RELS.len())];
            let t = Tuple::ints(&[rng.gen_range(0..DOMAIN), rng.gen_range(0..DOMAIN)]);
            sim.apply(rel, t.clone(), 1);
            seed.push((rel.to_owned(), t));
        }
        let mut batches = Vec::with_capacity(n_batches);
        for _ in 0..n_batches {
            let mut entries: Vec<(String, Tuple, i64)> = Vec::new();
            let want = rng.gen_range(1..=max_entries.max(1));
            let mut attempts = 0;
            while entries.len() < want && attempts < want * 10 {
                attempts += 1;
                let rel = RELS[rng.gen_range(0..RELS.len())];
                let t = Tuple::ints(&[rng.gen_range(0..DOMAIN), rng.gen_range(0..DOMAIN)]);
                // Distinct tuples within a batch (see module docs).
                if entries.iter().any(|(r, bt, _)| r == rel && bt == &t) {
                    continue;
                }
                let delta = if sim.get(rel, &t) > 0 && rng.gen_bool(0.4) {
                    -1
                } else {
                    1
                };
                sim.apply(rel, t.clone(), delta);
                entries.push((rel.to_owned(), t, delta));
            }
            batches.push(entries);
        }
        RecoveryWorkload { seed, batches }
    }

    /// The setup script: query, one `insert` per seed row, `build`.
    pub fn setup_script(&self) -> String {
        let mut out = format!("query {QUERY}\n");
        for (rel, t) in &self.seed {
            proto::push_line(&mut out, rel, t, 1);
        }
        out.push_str("build\n");
        out
    }

    /// Batch `k` as the canonical `.batch begin … commit` wire script —
    /// the same rendering the server's WAL frames use.
    pub fn batch_script(&self, k: usize) -> String {
        let mut out = String::from(".batch begin\n");
        for (rel, t, d) in &self.batches[k] {
            proto::push_line(&mut out, rel, t, *d);
        }
        out.push_str(".batch commit\n");
        out
    }

    /// The database after the seed plus the first `k` batches — input for
    /// a brute-force prefix oracle.
    pub fn database_after(&self, k: usize) -> Database {
        let mut db = Database::new();
        for (rel, t) in &self.seed {
            db.apply(rel, t.clone(), 1);
        }
        for batch in &self.batches[..k] {
            for (rel, t, d) in batch {
                db.apply(rel, t.clone(), *d);
            }
        }
        db
    }

    /// The engine's cumulative `updates` counter after `k` committed
    /// batches (the seed goes in before `build`; it does not count as updates).
    pub fn total_updates_after(&self, k: usize) -> u64 {
        self.batches[..k].iter().map(|b| b.len() as u64).sum()
    }
}

/// Parses a `list` response back into `(tuple, multiplicity)` rows —
/// the verification half of a kill-and-recover round trip.
pub fn parse_listing(payload: &str) -> Result<Vec<(Tuple, i64)>, String> {
    let mut rows = Vec::new();
    for line in payload.lines() {
        // Result lines look like `(1, 5) x2`; the footer `(2 tuples)`
        // has no ` x` marker.
        let Some((tuple_part, mult)) = line.rsplit_once(" x") else {
            continue;
        };
        let inner = tuple_part
            .strip_prefix('(')
            .and_then(|s| s.strip_suffix(')'))
            .ok_or_else(|| format!("malformed result line `{line}`"))?;
        let mult: i64 = mult
            .trim()
            .parse()
            .map_err(|_| format!("malformed multiplicity in `{line}`"))?;
        rows.push((proto::parse_tuple(inner)?, mult));
    }
    rows.sort();
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_prefix_consistent() {
        let a = RecoveryWorkload::generate(7, 20, 10, 5);
        let b = RecoveryWorkload::generate(7, 20, 10, 5);
        assert_eq!(a.seed.len(), b.seed.len());
        assert_eq!(a.batches.len(), 10);
        for (x, y) in a.batches.iter().zip(&b.batches) {
            assert_eq!(x, y);
        }
        // Batches are distinct-tuple and never over-delete.
        let mut sim = a.database_after(0);
        for (k, batch) in a.batches.iter().enumerate() {
            for (rel, t, d) in batch {
                assert!(
                    *d > 0 || sim.get(rel, t) > 0,
                    "batch {k} over-deletes {rel} {t:?}"
                );
                sim.apply(rel, t.clone(), *d);
            }
            for i in 0..batch.len() {
                for j in 0..i {
                    assert!(
                        !(batch[i].0 == batch[j].0 && batch[i].1 == batch[j].1),
                        "batch {k} repeats a tuple"
                    );
                }
            }
        }
        // database_after(k) matches the running simulation at the end.
        let end = a.database_after(a.batches.len());
        for rel in end.relations() {
            let mut rows = end.rows(rel);
            rows.sort();
            let mut sim_rows = sim.rows(rel);
            sim_rows.sort();
            assert_eq!(rows, sim_rows);
        }
    }

    #[test]
    fn listing_parse_round_trips() {
        let rows = parse_listing("(1, 5) x2\n(2, abc) x1\n(2 tuples)\n").unwrap();
        assert_eq!(
            rows,
            vec![
                (Tuple::ints(&[1, 5]), 2),
                (
                    Tuple::new(vec![
                        ivme_data::Value::Int(2),
                        ivme_data::Value::from("abc")
                    ]),
                    1
                ),
            ]
        );
    }
}
