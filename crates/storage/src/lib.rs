//! Embedded relational storage engine for the Orchestra CDSS.
//!
//! The paper's centralised update store is built on a commercial RDBMS and
//! each participant maintains a local relational instance. This crate is the
//! from-scratch substitute for both roles:
//!
//! * [`Table`] — a relation whose rows are hashed by primary key.
//! * [`Database`] — a set of tables conforming to a
//!   [`orchestra_model::Schema`], with update application, constraint
//!   enforcement and in-memory snapshots. Implements
//!   [`orchestra_model::InstanceView`], so integrity constraints and the
//!   reconciliation algorithm's `CheckState` can evaluate against it.
//! * [`TransactionLog`] — the append-only log of published transactions, one
//!   vector in position (and so epoch) order with id and written-tuple
//!   indexes (the `updates` table of the paper's central store design).
//! * [`EpochRegistry`] — the epoch sequence with started/finished publication
//!   records and the "largest stable epoch" computation of Section 5.2.1.
//! * [`ParticipantRecord`] — one participant's record of accepted and
//!   rejected transactions, which the paper moves into the update store so
//!   that client state stays soft.
//! * [`wal`] / [`segment`] / [`snapshot`] — the durability layer: one
//!   append-only file of CRC-checked [`WalRecord`] frames per generation,
//!   written through [`FileWalBackend`] under one lock, plus a compacting
//!   [`StoreSnapshot`], from which `orchestra_store::StoreCatalog::recover`
//!   rebuilds the exact durable store state after a crash by replaying the
//!   file in the order it was written. [`codec`] is the one encoding both
//!   use — nothing else in the workspace is ever serialised.
//! * [`retention`] — convergence-horizon retention: the [`RetentionPolicy`]
//!   knob and [`PruneReport`] accounting behind the bounded-memory store
//!   (`orchestra_store::StoreCatalog::prune_to_horizon`), plus the
//!   pinned-ancestor machinery in [`TransactionLog`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod codec;
pub mod database;
pub mod decisions;
pub mod epoch;
pub mod error;
pub mod log;
pub mod retention;
pub mod segment;
pub mod snapshot;
pub mod table;
pub mod wal;

pub use database::Database;
pub use decisions::{Decision, ParticipantRecord};
pub use epoch::{CausalNode, CausalRegistry, EpochRegistry, PublicationStatus};
pub use error::{Result, StorageError};
pub use log::{LogEntry, TransactionLog};
pub use retention::{PruneReport, RetentionPolicy};
pub use segment::{FileWalBackend, FrameStamp};
pub use snapshot::{InstanceCheckpoint, ParticipantSnapshot, StoreSnapshot};
pub use table::Table;
pub use wal::{FlushPolicy, FrameLog, WalRecord};
