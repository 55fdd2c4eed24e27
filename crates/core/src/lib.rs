//! `ivme-core` — the IVM^ε engine.
//!
//! Implementation of *Kara, Nikolic, Olteanu, Zhang: "Trade-offs in Static
//! and Dynamic Evaluation of Hierarchical Queries"* (PODS 2020). For a
//! hierarchical query with static width `w` and dynamic width `δ`, a
//! database of size `N`, and a knob `ε ∈ [0, 1]`, the engine offers
//!
//! * preprocessing in `O(N^{1+(w−1)ε})` (Thm. 2),
//! * enumeration of the distinct result tuples with multiplicities at
//!   `O(N^{1−ε})` delay (Prop. 22),
//! * single-tuple inserts/deletes in `O(N^{δε})` amortized time with
//!   periodic major/minor rebalancing (Thm. 4, Sec. 6),
//! * **batched** updates through [`IvmEngine::apply_batch`], which apply a
//!   whole [`DeltaBatch`] in one maintenance round at the same amortized
//!   per-update bound and strictly lower constants,
//! * **sharded** evaluation through [`ShardedEngine`], which
//!   hash-partitions the database on each component's canonical root
//!   variable into `S` fully independent runtimes, materializes and
//!   maintains them one after another on the caller's thread (a batch is
//!   validated on every shard before any shard applies its part), and
//!   freezes the per-component merged
//!   result into a [`ShardedSnapshot`] — the one surface a sharded result
//!   is read from (see [`sharded`] for why the root variable makes this
//!   sound).
//!
//! # The batched delta pipeline
//!
//! The paper's `OnUpdate` trigger (Fig. 22) processes one tuple at a time.
//! This crate generalizes the entire update path to batches:
//!
//! 1. **Consolidation** ([`ivme_data::batch`]): a batch of [`Update`]s is
//!    folded into a [`DeltaBatch`] — per relation, tuple → net signed
//!    multiplicity. Cancelling pairs vanish here, before any engine work.
//! 2. **Atomic validation**: the net deltas of *every* relation in the
//!    batch are dry-run against the stored multiplicities first; an
//!    over-deleting, unknown-relation, or wrong-arity batch is rejected
//!    with the engine untouched (the batched form of the paper's
//!    per-update rejection rule, Sec. 3).
//! 3. **Dirty-key propagation** ([`delta`]): each view node groups the
//!    incoming delta by its join key and recomputes **one sibling
//!    semi-join + group-product per distinct dirty key**, instead of one
//!    per delta tuple. A batch of `k` updates touching `d ≤ k` distinct
//!    keys costs `d` group-products per node; deltas that cancel midway
//!    stop propagating. Per dirty key the work is exactly the single-tuple
//!    trigger's, so the `O(N^{δε})` amortized per-update bound of
//!    Prop. 23 is preserved.
//! 4. **Rebalancing once per batch** ([`engine`]): bookkeeping counts the
//!    batch *cardinality* (a batch of `k` counts as `k` updates towards
//!    the amortization argument of Sec. 6.2). The `⌊M/4⌋ ≤ N < M` size
//!    invariant is restored once per batch — doubling/halving cascades
//!    collapse into a single recompute — and minor-rebalancing checks run
//!    once per distinct touched partition key. Each delta goes to the
//!    light part iff its key is light or absent from the relation before
//!    the batch (Fig. 19 line 10); a key the batch carried across a
//!    threshold then migrates in minor rebalancing (Fig. 22), run per atom
//!    occurrence right after it is applied, so the next occurrence's light
//!    trees never join a light group of `1.5·θ` tuples or more. Those
//!    checks and major rebalancing's strict rebuild (Fig. 20) are the only
//!    places a key moves between light and heavy.
//!
//! The single-tuple API ([`IvmEngine::apply_update`], `insert`, `delete`)
//! is a batch of one, so both paths share one audited code path.
//!
//! # Quickstart
//!
//! ```
//! use ivme_core::{Database, EngineOptions, IvmEngine};
//! use ivme_data::Tuple;
//!
//! let mut db = Database::new();
//! db.insert_ints("R", &[&[1, 10], &[2, 10]]);
//! db.insert_ints("S", &[&[10, 7]]);
//!
//! let mut eng = IvmEngine::from_sql(
//!     "Q(A, C) :- R(A, B), S(B, C)",
//!     &db,
//!     EngineOptions::dynamic(0.5),
//! )
//! .unwrap();
//!
//! assert_eq!(eng.count_distinct(), 2);
//! eng.insert("S", Tuple::ints(&[10, 8])).unwrap();
//! assert_eq!(eng.count_distinct(), 4);
//! ```

pub mod database;
pub mod delta;
pub mod engine;
pub mod enumerate;
pub mod oracle;
pub mod runtime;
mod shard;
pub mod sharded;

pub use database::Database;
pub use engine::{EngineError, EngineOptions, EngineStats, IvmEngine, UpdateError};
pub use enumerate::{EnumScratch, FreezeSink, ResultIter};
pub use ivme_data::{DeltaBatch, Update};
pub use ivme_plan::Mode;
pub use oracle::brute_force;
pub use sharded::{FreezeProfile, MergedResultIter, ShardedEngine, ShardedSnapshot};

#[cfg(test)]
mod tests;
