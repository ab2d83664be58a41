//! DHT overlay membership, key ownership and Pastry-style prefix routing.

use crate::node::NodeId;
use rustc_hash::FxHashMap;

/// The route a message takes through the overlay: the sequence of nodes
/// visited after the source, ending at the node that owns the key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutePath {
    /// Nodes visited, in order (the final element owns the key).
    pub hops: Vec<NodeId>,
}

impl RoutePath {
    /// Number of message transmissions required.
    pub fn hop_count(&self) -> usize {
        self.hops.len()
    }

    /// The destination node (owner of the routed key).
    pub fn destination(&self) -> Option<NodeId> {
        self.hops.last().copied()
    }
}

/// Per-node Pastry-style routing state: a routing table indexed by
/// (shared-prefix length, next digit) plus a leaf set of ring neighbours.
#[derive(Debug, Clone, Default)]
struct RoutingState {
    /// `table[row]` maps a hexadecimal digit to a node sharing `row` prefix
    /// digits with the owner and having that digit at position `row`.
    table: Vec<FxHashMap<u8, NodeId>>,
    /// Nearest ring neighbours (both directions).
    leaf_set: Vec<NodeId>,
}

/// The DHT overlay: the full membership, key ownership, and per-node routing
/// state built from that membership.
///
/// In a real deployment routing tables are maintained by join/maintenance
/// protocols; in this simulation they are derived from global knowledge,
/// which yields the same routing behaviour (O(log₁₆ N) hops) without
/// modelling churn, faithful to the paper's assumption of successful message
/// delivery and no failures.
#[derive(Debug, Clone, Default)]
pub struct Ring {
    members: Vec<NodeId>,
    routing: FxHashMap<NodeId, RoutingState>,
    leaf_set_size: usize,
}

impl Ring {
    /// Builds an overlay over the given members with the default leaf-set
    /// size of 8.
    pub fn new(members: Vec<NodeId>) -> Ring {
        Ring::with_leaf_set(members, 8)
    }

    /// Builds an overlay with a specific leaf-set size.
    fn with_leaf_set(mut members: Vec<NodeId>, leaf_set_size: usize) -> Ring {
        members.sort_unstable();
        members.dedup();
        let mut ring = Ring { members, routing: FxHashMap::default(), leaf_set_size };
        ring.rebuild_routing();
        ring
    }

    fn rebuild_routing(&mut self) {
        self.routing.clear();
        for &node in &self.members {
            let mut state = RoutingState {
                table: vec![FxHashMap::default(); NodeId::DIGITS],
                leaf_set: Vec::new(),
            };
            for &other in &self.members {
                if other == node {
                    continue;
                }
                let row = node.shared_prefix_len(&other);
                if row < NodeId::DIGITS {
                    let digit = other.digit(row);
                    state.table[row].entry(digit).or_insert(other);
                }
            }
            // Leaf set: nearest neighbours on either side in ring order.
            if self.members.len() > 1 {
                let idx = self.members.binary_search(&node).expect("member present");
                let n = self.members.len();
                let half = (self.leaf_set_size / 2).max(1);
                for off in 1..=half.min(n - 1) {
                    state.leaf_set.push(self.members[(idx + off) % n]);
                    state.leaf_set.push(self.members[(idx + n - off) % n]);
                }
                state.leaf_set.dedup();
            }
            self.routing.insert(node, state);
        }
    }

    /// The overlay members, in identifier order.
    pub fn members(&self) -> &[NodeId] {
        &self.members
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Returns true if the overlay has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Adds a member and rebuilds routing state.
    pub fn join(&mut self, node: NodeId) {
        if let Err(pos) = self.members.binary_search(&node) {
            self.members.insert(pos, node);
            self.rebuild_routing();
        }
    }

    /// The node that owns a key: the key's clockwise successor on the ring.
    pub fn owner_of(&self, key: NodeId) -> Option<NodeId> {
        if self.members.is_empty() {
            return None;
        }
        match self.members.binary_search(&key) {
            Ok(i) => Some(self.members[i]),
            Err(i) => Some(self.members[i % self.members.len()]),
        }
    }

    /// Routes from `from` towards the owner of `key`, Pastry-style: at each
    /// step prefer a routing-table entry sharing a strictly longer prefix
    /// with the key; otherwise move to the leaf-set/ring node numerically
    /// closest to the key. Returns the path of nodes visited after `from`.
    pub fn route(&self, from: NodeId, key: NodeId) -> Option<RoutePath> {
        let destination = self.owner_of(key)?;
        let mut hops = Vec::new();
        let mut current = from;
        // Bounded by the identifier length; in practice O(log16 N).
        for _ in 0..=NodeId::DIGITS {
            if current == destination {
                break;
            }
            let next = self.next_hop(current, key, destination);
            if next == current {
                break;
            }
            hops.push(next);
            current = next;
        }
        if current != destination {
            // Fall back to delivering directly (global knowledge); counts as
            // one more hop.
            hops.push(destination);
        }
        if hops.is_empty() {
            // Source already owns the key; still a local "delivery".
            hops.push(destination);
        }
        Some(RoutePath { hops })
    }

    fn next_hop(&self, current: NodeId, key: NodeId, destination: NodeId) -> NodeId {
        let Some(state) = self.routing.get(&current) else { return destination };
        let shared = current.shared_prefix_len(&key);
        if shared < NodeId::DIGITS {
            let wanted_digit = key.digit(shared);
            if let Some(&next) = state.table[shared].get(&wanted_digit) {
                return next;
            }
        }
        // Leaf-set fallback: the known node numerically closest to the key
        // that is strictly closer than the current node.
        let mut best = current;
        let mut best_dist = current.distance_to(&key).min(key.distance_to(&current));
        for &cand in state.leaf_set.iter().chain(std::iter::once(&destination)) {
            let dist = cand.distance_to(&key).min(key.distance_to(&cand));
            if dist < best_dist {
                best = cand;
                best_dist = dist;
            }
        }
        best
    }

    /// Number of hops a request from `from` to the owner of `key` takes.
    pub fn hop_count(&self, from: NodeId, key: NodeId) -> usize {
        self.route(from, key).map(|p| p.hop_count()).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring_of(n: usize) -> Ring {
        Ring::new((0..n).map(|i| NodeId::hash_str(&format!("node-{i}"))).collect())
    }

    #[test]
    fn ownership_is_successor_based() {
        let members = vec![NodeId(10), NodeId(20), NodeId(30)];
        let ring = Ring::new(members);
        assert_eq!(ring.owner_of(NodeId(5)), Some(NodeId(10)));
        assert_eq!(ring.owner_of(NodeId(10)), Some(NodeId(10)));
        assert_eq!(ring.owner_of(NodeId(11)), Some(NodeId(20)));
        assert_eq!(ring.owner_of(NodeId(25)), Some(NodeId(30)));
        // Wraps around past the largest member.
        assert_eq!(ring.owner_of(NodeId(31)), Some(NodeId(10)));
    }

    #[test]
    fn empty_ring_owns_nothing() {
        let ring = Ring::new(vec![]);
        assert!(ring.is_empty());
        assert_eq!(ring.owner_of(NodeId(1)), None);
        assert!(ring.route(NodeId(1), NodeId(2)).is_none());
    }

    #[test]
    fn join_keeps_members_sorted_and_deduplicated() {
        let mut ring = Ring::new(vec![NodeId(30), NodeId(10)]);
        ring.join(NodeId(20));
        ring.join(NodeId(20));
        assert_eq!(ring.members(), &[NodeId(10), NodeId(20), NodeId(30)]);
        assert_eq!(ring.len(), 3);
    }

    #[test]
    fn routing_terminates_at_the_owner() {
        let ring = ring_of(50);
        for i in 0..100u64 {
            let key = NodeId::hash_u64(i);
            let from = ring.members()[i as usize % ring.len()];
            let path = ring.route(from, key).unwrap();
            assert_eq!(path.destination(), ring.owner_of(key));
            assert!(path.hop_count() >= 1);
            assert!(path.hop_count() <= NodeId::DIGITS + 1);
        }
    }

    #[test]
    fn routing_hops_grow_slowly_with_membership() {
        // Average hop count over many keys should stay small (prefix routing
        // gives O(log16 N)); with 64 nodes it should comfortably stay below 5.
        let ring = ring_of(64);
        let total: usize = (0..200u64)
            .map(|i| ring.hop_count(ring.members()[i as usize % ring.len()], NodeId::hash_u64(i)))
            .sum();
        let avg = total as f64 / 200.0;
        assert!(avg < 5.0, "average hop count {avg} too high");
    }

    #[test]
    fn routing_from_owner_is_a_single_local_hop() {
        let ring = ring_of(10);
        let key = NodeId::hash_u64(42);
        let owner = ring.owner_of(key).unwrap();
        let path = ring.route(owner, key).unwrap();
        assert_eq!(path.hop_count(), 1);
        assert_eq!(path.destination(), Some(owner));
    }

    #[test]
    fn single_node_ring_owns_everything() {
        let ring = ring_of(1);
        let only = ring.members()[0];
        assert_eq!(ring.owner_of(NodeId::hash_u64(7)), Some(only));
        assert_eq!(ring.hop_count(only, NodeId::hash_u64(7)), 1);
    }
}
