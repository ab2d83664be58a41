//! The transport seam under the framed service protocol.
//!
//! [`Transport`] is the narrow interface a store service (or a client stub)
//! uses to move one framed message between two endpoints and to observe the
//! cumulative traffic it generated. The simulated network implements it by
//! charging virtual latency and byte counters; a real deployment would
//! implement it over sockets. Keeping the seam this small means the service
//! and its wire protocol ([`orchestra-store`'s `protocol` module]) never
//! depend on how frames physically travel — only on the fact that sending a
//! frame has a cost.
//!
//! Frames themselves are delivered out of band — the request and response
//! enums travel through in-process channels, and nothing encodes them to
//! bytes: `send_frame` accounts for the transmission at the frame's modelled
//! size, it does not carry a payload.

use crate::node::NodeId;
use crate::simnet::{NetworkStats, SimNetwork};

/// Moves framed messages between endpoints and meters the traffic.
///
/// Implementations must be cheap to call from many concurrent sessions
/// (interior-mutable accounting), mirroring [`SimNetwork`].
pub trait Transport {
    /// Charges one framed message of `bytes` bytes travelling directly from
    /// `from` to `to`.
    fn send_frame(&self, from: NodeId, to: NodeId, bytes: u64);

    /// Cumulative traffic statistics accumulated so far.
    fn stats(&self) -> NetworkStats;
}

impl Transport for SimNetwork {
    fn send_frame(&self, from: NodeId, to: NodeId, bytes: u64) {
        self.send_direct(from, to, bytes);
    }

    fn stats(&self) -> NetworkStats {
        SimNetwork::stats(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simnet_implements_the_transport_seam() {
        let nodes: Vec<NodeId> = (0..2).map(NodeId::hash_u64).collect();
        let net = SimNetwork::new(nodes.clone());
        let transport: &dyn Transport = &net;
        transport.send_frame(nodes[0], nodes[1], 128);
        let stats = transport.stats();
        assert_eq!(stats.messages, 1);
        assert_eq!(stats.bytes, 128);
        // A frame is a direct message: exactly one hop of latency.
        assert_eq!(stats.latency_us, SimNetwork::PAPER_LATENCY_US);
    }

    #[test]
    fn transport_objects_can_be_shared() {
        use std::rc::Rc;
        let nodes: Vec<NodeId> = (0..2).map(NodeId::hash_u64).collect();
        let net = Rc::new(SimNetwork::new(nodes.clone()));
        let transport: Rc<dyn Transport> = net.clone();
        transport.send_frame(nodes[1], nodes[0], 7);
        // The concrete handle observes traffic charged through the trait
        // object — it is the same network.
        assert_eq!(net.stats().bytes, 7);
    }
}
