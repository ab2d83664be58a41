//! Update store implementations for the Orchestra CDSS.
//!
//! The update store's fundamental role (Section 5.2) is to publish and
//! retrieve updates, associate each published transaction with a client
//! reconciliation, and hold the per-participant accepted/rejected record so
//! that clients carry only soft state. This crate provides:
//!
//! * [`UpdateStore`] — the store interface: object-safe, `&self` throughout
//!   (implementations shard state internally so many participants publish
//!   and reconcile in parallel against one shared reference), with per-call
//!   [`StoreTiming`] returned in [`Timed`] values and session-based paged
//!   retrieval ([`SessionInfo`]).
//! * [`CentralStore`] — the centralised implementation backed by the
//!   `orchestra-storage` engine (the paper's RDBMS-based store,
//!   Section 5.2.1), with decoupled publish/reconcile epochs and store-side
//!   trust-predicate and update-extension evaluation.
//! * [`DhtStore`] — the distributed implementation over the simulated
//!   Pastry-style overlay (the paper's FreePastry-based store,
//!   Section 5.2.2), with an epoch allocator, per-epoch epoch controllers and
//!   per-transaction transaction controllers, charging one simulated message
//!   per protocol step of the paper's Figures 6 and 7.
//! * [`StoreService`] — the store served as a confederation service:
//!   the paged session protocol and publishes become framed
//!   request/response messages over a simulated network, handled by a
//!   bounded worker pool on the hand-rolled `orchestra-rt` runtime, with
//!   per-participant FIFO routing, admission control and request batching.
//! * [`SessionClient`] — the one seam a participant publishes and reconciles
//!   through, implemented by [`InProcessClient`] (direct calls on a `&S`),
//!   [`ServiceClient`] (framed) and [`FabricClient`] (N shards as one).
//! * [`Durability`] — the pluggable persistence backend of the shared
//!   [`StoreCatalog`]: [`Durability::Ephemeral`] (default) keeps the store
//!   in-memory, [`Durability::FileWal`] appends every publish, decision
//!   commit and policy registration to a CRC-checked write-ahead log with
//!   compacting snapshots, and [`StoreCatalog::recover`] (or
//!   [`CentralStore::recover`]) rebuilds byte-identical durable state after a
//!   crash.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod api;
pub mod catalog;
pub mod central;
pub mod client;
pub mod dht;
pub mod durability;
pub mod fabric;
pub mod network_centric;
pub mod protocol;
pub mod service;

pub use api::{SessionId, SessionInfo, StoreTiming, Timed, UpdateStore};
pub use catalog::{OpenedSession, SessionBatch, StoreCatalog};
pub use central::CentralStore;
pub use client::{poll_ready, InProcessClient, SessionClient, ShardClient};
pub use dht::DhtStore;
pub use durability::{Durability, FileWalBackend};
pub use fabric::{FabricClient, FabricConfig, ShardRouter, StoreFabric};
pub use network_centric::NetworkCentricPlan;
pub use protocol::{StoreRequest, StoreResponse};
pub use service::{ServiceClient, ServiceConfig, ServiceStats, StoreService};
// The retention knobs and the flush policy, re-exported so drivers need not
// depend on `orchestra-storage` directly.
pub use orchestra_storage::{FlushPolicy, PruneReport, RetentionPolicy};
