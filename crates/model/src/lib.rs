//! Data model for the Orchestra collaborative data sharing system (CDSS).
//!
//! This crate defines the vocabulary shared by every other crate in the
//! workspace, corresponding to Section 3 and Section 4 of *"Reconciling while
//! Tolerating Disagreement in Collaborative Data Sharing"* (Taylor & Ives,
//! SIGMOD 2006):
//!
//! * [`Value`], [`Tuple`], [`RelationSchema`] and [`Schema`] — the relational
//!   data model the participants share.
//! * [`Update`] and [`Transaction`] — provenance-annotated insertions,
//!   deletions and modifications, grouped into transactions identified by
//!   their originating participant.
//! * [`flatten()`] — the Heraclitus-style net-effect computation used to remove
//!   intermediate steps from a chain of updates before conflict detection.
//! * [`TrustPolicy`] and [`AcceptanceRule`] — per-participant acceptance rules
//!   mapping predicates over updates to integer trust priorities, and the
//!   `pri_i(X)` transaction-priority function.
//! * [`conflict`] — the conflict relation between updates and between
//!   transactions, and the conflict-group key used to cluster deferred
//!   conflicts.
//! * [`Constraint`] — integrity constraints (primary key, foreign key,
//!   not-null) and their evaluation against an [`InstanceView`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod causal;
pub mod conflict;
pub mod constraint;
pub mod error;
pub mod flatten;
pub mod ids;
pub mod intern;
pub mod schema;
pub mod transaction;
pub mod trust;
pub mod tuple;
pub mod update;
pub mod value;

pub use causal::{AntichainClock, StampId};
pub use conflict::{ConflictKey, ConflictKind};
pub use constraint::{Constraint, InstanceView};
pub use error::{ModelError, Result};
pub use flatten::{flatten, flatten_keyed, flatten_own, NetUpdates};
pub use ids::{CausalStamp, Epoch, ParticipantId, Priority, ReconciliationId, TransactionId};
pub use intern::RelName;
pub use schema::{ColumnDef, RelationSchema, Schema};
pub use transaction::Transaction;
pub use trust::{AcceptanceRule, Predicate, TrustPolicy};
pub use tuple::{KeyValue, Tuple};
pub use update::{Update, UpdateKind, UpdateOp};
pub use value::{Value, ValueType};
