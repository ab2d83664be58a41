//! Deterministic simulated network and Pastry-style DHT overlay.
//!
//! The paper's distributed update store is built on FreePastry; its
//! experiments run all nodes on one machine with a delay of at least 500 µs
//! added to every message and reply. This crate is the substitute substrate:
//!
//! * [`NodeId`] — 128-bit identifiers in the DHT key space, plus key hashing.
//! * [`Ring`] — overlay membership with successor lookup and Pastry-style
//!   prefix routing (hex digits, routing table + leaf-set fallback), so the
//!   number of overlay hops grows logarithmically with the number of nodes.
//! * [`SimNetwork`] — a virtual-time network that charges a configurable
//!   latency per message hop and counts messages, so a store built on it can
//!   report the communication component of reconciliation time exactly the
//!   way the paper's Figures 10 and 12 do.
//! * [`Transport`] — the seam under the framed service protocol: one method
//!   to charge a framed message between two endpoints, implemented by
//!   [`SimNetwork`] today and by real sockets later.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod node;
pub mod ring;
pub mod simnet;
pub mod transport;

pub use node::NodeId;
pub use ring::{Ring, RoutePath};
pub use simnet::{NetworkStats, SimNetwork};
pub use transport::Transport;
