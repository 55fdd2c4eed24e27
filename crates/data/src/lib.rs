//! `ivme-data` — storage substrate for the IVM^ε engine.
//!
//! Implements the computational model of *Kara, Nikolic, Olteanu, Zhang:
//! "Trade-offs in Static and Dynamic Evaluation of Hierarchical Queries"*
//! (PODS 2020), Sec. 3:
//!
//! * [`value`] — data values and cheaply-shared tuples,
//! * [`schema`] — interned variables and ordered schemas,
//! * [`relation`] — Z-relations with O(1) updates, constant-delay scans,
//!   and O(1)-maintained secondary indexes,
//! * [`batch`] — consolidated multi-tuple deltas ([`DeltaBatch`]) and the
//!   named single-tuple [`Update`] they are built from,
//! * [`partition`] — heavy/light partitions with slack thresholds (Def. 11),
//! * [`fx`] — fast non-cryptographic hashing used throughout.

pub mod batch;
pub mod fx;
pub mod partition;
pub mod relation;
pub mod schema;
pub mod value;

pub use batch::{DeltaBatch, Update};
pub use partition::Partition;
pub use relation::{BatchOutcome, DeltaOutcome, IndexId, NegativeMultiplicity, Relation, SlotId};
pub use schema::{Schema, Var};
pub use value::{Tuple, Value};
