//! Virtual-time network simulation: per-message latency charging and
//! message/byte accounting.
//!
//! Accounting is interior-mutable: every charge method takes `&self` and
//! bumps four atomic counters, so many concurrent service sessions can charge
//! traffic through one shared network without a lock.

use crate::node::NodeId;
use crate::ring::Ring;
use orchestra_obs::{Counter, MetricsRegistry};
use std::time::Duration;

/// Cumulative statistics of a simulated network.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetworkStats {
    /// Number of application-level messages sent (requests and replies).
    pub messages: u64,
    /// Number of overlay hops traversed by those messages.
    pub hops: u64,
    /// Approximate bytes transferred (as reported by callers).
    pub bytes: u64,
    /// Total virtual latency accumulated, in microseconds.
    pub latency_us: u64,
}

/// Atomic counterpart of [`NetworkStats`], backed by `orchestra-obs`
/// counters — either detached (the default) or, via
/// [`SimNetwork::with_observability`], the shared cells a
/// [`MetricsRegistry`] snapshots under `net.*` keys. A per-instance
/// baseline, read when the network is made, keeps [`SimNetwork::stats`]
/// scoped to this network while the registry keeps cumulative totals.
#[derive(Debug, Default)]
struct AtomicStats {
    messages: Counter,
    hops: Counter,
    bytes: Counter,
    latency_us: Counter,
    base: NetworkStats,
}

impl AtomicStats {
    fn resolved(registry: &MetricsRegistry) -> AtomicStats {
        let mut stats = AtomicStats {
            messages: registry.counter("net.messages"),
            hops: registry.counter("net.hops"),
            bytes: registry.counter("net.bytes"),
            latency_us: registry.counter("net.latency_us"),
            base: NetworkStats::default(),
        };
        // The registry cells may already carry traffic from earlier
        // networks; start this instance's view at zero.
        stats.base = stats.raw();
        stats
    }

    fn raw(&self) -> NetworkStats {
        NetworkStats {
            messages: self.messages.get(),
            hops: self.hops.get(),
            bytes: self.bytes.get(),
            latency_us: self.latency_us.get(),
        }
    }

    fn snapshot(&self) -> NetworkStats {
        let (raw, base) = (self.raw(), self.base);
        NetworkStats {
            messages: raw.messages.saturating_sub(base.messages),
            hops: raw.hops.saturating_sub(base.hops),
            bytes: raw.bytes.saturating_sub(base.bytes),
            latency_us: raw.latency_us.saturating_sub(base.latency_us),
        }
    }
}

/// A deterministic virtual-time network over a DHT overlay.
///
/// Every message charged through the network adds the per-message latency per
/// overlay hop to the virtual clock, mirroring the paper's setup where every
/// message (and reply) transmission is delayed by at least 500 µs. Replies are
/// modelled as direct (single-hop) messages, as in Pastry, where the reply is
/// sent straight back to the requester.
#[derive(Debug)]
pub struct SimNetwork {
    ring: Ring,
    latency_per_message_us: u64,
    stats: AtomicStats,
}

impl SimNetwork {
    /// The latency used by the paper's experimental setup (500 µs).
    pub const PAPER_LATENCY_US: u64 = 500;

    /// Creates a simulated network over the given overlay members with the
    /// paper's 500 µs per-message latency.
    pub fn new(members: Vec<NodeId>) -> SimNetwork {
        SimNetwork::with_latency(members, Duration::from_micros(Self::PAPER_LATENCY_US))
    }

    /// Creates a simulated network with a custom per-message latency.
    pub fn with_latency(members: Vec<NodeId>, latency: Duration) -> SimNetwork {
        SimNetwork {
            ring: Ring::new(members),
            latency_per_message_us: latency.as_micros() as u64,
            stats: AtomicStats::default(),
        }
    }

    /// Like [`SimNetwork::with_latency`], but aggregate traffic counters are
    /// the registry's `net.messages` / `net.hops` / `net.bytes` /
    /// `net.latency_us` cells, so the network reports into the shared
    /// metrics sink. [`SimNetwork::stats`] still reads only this instance's
    /// traffic (the registry keeps cumulative totals across networks).
    pub fn with_observability(
        members: Vec<NodeId>,
        latency: Duration,
        registry: &MetricsRegistry,
    ) -> SimNetwork {
        SimNetwork {
            ring: Ring::new(members),
            latency_per_message_us: latency.as_micros() as u64,
            stats: AtomicStats::resolved(registry),
        }
    }

    /// The overlay.
    pub fn ring(&self) -> &Ring {
        &self.ring
    }

    /// Adds a node to the overlay.
    pub fn join(&mut self, node: NodeId) {
        self.ring.join(node);
    }

    /// Cumulative statistics so far.
    pub fn stats(&self) -> NetworkStats {
        self.stats.snapshot()
    }

    fn charge(&self, hops: u64, bytes: u64) {
        self.stats.messages.inc();
        self.stats.hops.add(hops);
        self.stats.bytes.add(bytes);
        self.stats.latency_us.add(hops * self.latency_per_message_us);
    }

    /// Charges a request routed from `from` to the owner of `key`, returning
    /// the owner. Each overlay hop counts as one message transmission.
    pub fn send_to_key(&self, from: NodeId, key: NodeId, bytes: u64) -> Option<NodeId> {
        let path = self.ring.route(from, key)?;
        let hops = path.hop_count() as u64;
        let destination = path.destination()?;
        self.charge(hops, bytes);
        Some(destination)
    }

    /// Charges a direct (single-hop) message from one node to another, e.g. a
    /// reply to a request or a framed service request.
    pub fn send_direct(&self, _from: NodeId, _to: NodeId, bytes: u64) {
        self.charge(1, bytes);
    }

    /// Charges a request/reply round trip: a routed request to the owner of
    /// `key` followed by a direct reply. Returns the owner.
    pub fn round_trip(
        &self,
        from: NodeId,
        key: NodeId,
        request_bytes: u64,
        reply_bytes: u64,
    ) -> Option<NodeId> {
        let owner = self.send_to_key(from, key, request_bytes)?;
        self.send_direct(owner, from, reply_bytes);
        Some(owner)
    }
}

impl Clone for SimNetwork {
    fn clone(&self) -> SimNetwork {
        // The clone gets detached counters seeded with this instance's
        // visible values: it keeps the numbers but stops reporting into any
        // registry the original was bound to (no double counting).
        let snap = self.stats.snapshot();
        let stats = AtomicStats::default();
        stats.messages.set(snap.messages);
        stats.hops.set(snap.hops);
        stats.bytes.set(snap.bytes);
        stats.latency_us.set(snap.latency_us);
        SimNetwork {
            ring: self.ring.clone(),
            latency_per_message_us: self.latency_per_message_us,
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn network(n: usize) -> SimNetwork {
        SimNetwork::new((0..n).map(|i| NodeId::hash_str(&format!("node-{i}"))).collect())
    }

    #[test]
    fn default_latency_matches_the_paper() {
        let net = network(4);
        net.send_direct(net.ring().members()[0], net.ring().members()[1], 1);
        assert_eq!(net.stats().latency_us, 500);
    }

    #[test]
    fn sending_accumulates_stats() {
        let net = network(8);
        let from = net.ring().members()[0];
        let owner = net.send_to_key(from, NodeId::hash_u64(7), 100).unwrap();
        assert_eq!(Some(owner), net.ring().owner_of(NodeId::hash_u64(7)));
        let stats = net.stats();
        assert_eq!(stats.messages, 1);
        assert!(stats.hops >= 1);
        assert_eq!(stats.bytes, 100);
        assert_eq!(stats.latency_us, stats.hops * 500);
    }

    #[test]
    fn round_trip_counts_request_and_reply() {
        let net = network(8);
        let from = net.ring().members()[0];
        net.round_trip(from, NodeId::hash_u64(9), 64, 256).unwrap();
        let stats = net.stats();
        assert_eq!(stats.messages, 2);
        assert!(stats.hops >= 2);
        assert_eq!(stats.bytes, 320);
    }

    #[test]
    fn custom_latency_is_charged() {
        let net = SimNetwork::with_latency(
            (0..4).map(NodeId::hash_u64).collect(),
            Duration::from_millis(2),
        );
        let from = net.ring().members()[0];
        net.send_direct(from, net.ring().members()[1], 10);
        assert_eq!(net.stats().latency_us, 2_000);
    }

    #[test]
    fn join_extends_the_overlay() {
        let mut net = network(2);
        assert_eq!(net.ring().len(), 2);
        net.join(NodeId::hash_str("late-joiner"));
        assert_eq!(net.ring().len(), 3);
    }

    #[test]
    fn a_clone_keeps_the_counts_and_counts_on_its_own() {
        let net = network(4);
        let a = net.ring().members()[0];
        let b = net.ring().members()[1];
        net.send_direct(a, b, 32);
        let copy = net.clone();
        net.send_direct(a, b, 32);
        assert_eq!(copy.stats().messages, 1);
        assert_eq!(net.stats().messages, 2);
    }

    #[test]
    fn registry_backed_networks_report_into_the_shared_sink() {
        let registry = MetricsRegistry::new();
        let members: Vec<NodeId> = (0..4).map(NodeId::hash_u64).collect();
        let net1 =
            SimNetwork::with_observability(members.clone(), Duration::from_micros(500), &registry);
        let a = net1.ring().members()[0];
        let b = net1.ring().members()[1];
        net1.send_direct(a, b, 10);
        net1.send_direct(a, b, 10);
        // A second network on the same registry starts its *view* at zero
        // while the registry keeps the cumulative total.
        let net2 = SimNetwork::with_observability(members, Duration::from_micros(500), &registry);
        assert_eq!(net2.stats(), NetworkStats::default());
        net2.send_direct(a, b, 5);
        assert_eq!(net1.stats().messages, 3, "net1 sees its cells move");
        assert_eq!(net2.stats().messages, 1);
        let snap = registry.snapshot();
        assert_eq!(snap.counters["net.messages"], 3);
        assert_eq!(snap.counters["net.bytes"], 25);
    }

    #[test]
    fn concurrent_sessions_charge_through_a_shared_reference() {
        let net = network(4);
        let a = net.ring().members()[0];
        let b = net.ring().members()[1];
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..100 {
                        net.send_direct(a, b, 10);
                    }
                });
            }
        });
        let stats = net.stats();
        assert_eq!(stats.messages, 800);
        assert_eq!(stats.bytes, 8_000);
        assert_eq!(stats.latency_us, 800 * 500);
    }
}
