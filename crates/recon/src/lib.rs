//! Reconciliation semantics and algorithms for the Orchestra CDSS.
//!
//! This crate implements Sections 4 and 5 of the paper:
//!
//! * [`extension`] — candidate transactions carrying their transaction
//!   extension (Definition 3), flattened update extension (with the keys it
//!   touches, computed once), subsumption and the *direct conflict* relation
//!   (Definition 4).
//! * [`softstate`] — the client's soft state: dirty values, deferred
//!   transactions, conflict groups and options, and user-driven conflict
//!   resolution ([`SoftState::resolve`]): picking an option of a conflict
//!   group rejects the others and hands back the remaining deferred
//!   transactions, which the caller reconciles again with one more
//!   [`ReconcileEngine::reconcile`] as if freshly published.
//! * [`engine`] — the client-centric `ReconcileUpdates` algorithm of
//!   Figures 4 and 5, including `CheckState`, `FindConflicts`, `DoGroup` and
//!   `UpdateSoftState`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod engine;
pub mod extension;
#[cfg(test)]
mod resolution;
pub mod softstate;

pub use engine::{ReconcileEngine, ReconcileInput, ReconcileOutcome, TransactionDecision};
pub use extension::{CandidateTransaction, FlatExtension};
pub use softstate::{ConflictGroup, ConflictOption, ResolutionChoice, SoftState};
