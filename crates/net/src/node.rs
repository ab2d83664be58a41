//! Node identifiers and key hashing for the DHT key space.

use std::fmt;

/// A 128-bit identifier in the DHT key space.
///
/// Both overlay nodes and stored keys (epoch numbers, transaction
/// identifiers) are mapped into the same space; a key is owned by the node
/// whose identifier is its clockwise successor on the ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u128);

impl NodeId {
    /// Number of hexadecimal digits in an identifier (used by prefix
    /// routing).
    pub const DIGITS: usize = 32;

    /// Derives a node identifier from an arbitrary byte string, using a
    /// SplitMix64-based hash expanded to 128 bits. The construction is
    /// deterministic so simulations are reproducible.
    fn hash_bytes(bytes: &[u8]) -> NodeId {
        let mut h1: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut h2: u64 = 0xD1B5_4A32_D192_ED03;
        for &b in bytes {
            h1 = splitmix64(h1 ^ u64::from(b));
            h2 = splitmix64(h2.rotate_left(7) ^ u64::from(b).wrapping_mul(0xFF51_AFD7_ED55_8CCD));
        }
        NodeId(((h1 as u128) << 64) | (h2 as u128))
    }

    /// Derives a node identifier from a string key.
    pub fn hash_str(key: &str) -> NodeId {
        NodeId::hash_bytes(key.as_bytes())
    }

    /// Derives a node identifier from a 64-bit value (e.g. an epoch number).
    pub fn hash_u64(value: u64) -> NodeId {
        NodeId::hash_bytes(&value.to_le_bytes())
    }

    /// The hexadecimal digit at position `i` (0 is the most significant).
    pub fn digit(&self, i: usize) -> u8 {
        debug_assert!(i < Self::DIGITS);
        ((self.0 >> ((Self::DIGITS - 1 - i) * 4)) & 0xF) as u8
    }

    /// Length of the shared hexadecimal prefix between two identifiers.
    pub fn shared_prefix_len(&self, other: &NodeId) -> usize {
        for i in 0..Self::DIGITS {
            if self.digit(i) != other.digit(i) {
                return i;
            }
        }
        Self::DIGITS
    }

    /// Ring distance from `self` clockwise to `other`.
    pub fn distance_to(&self, other: &NodeId) -> u128 {
        other.0.wrapping_sub(self.0)
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn hashing_is_deterministic_and_spread_out() {
        assert_eq!(NodeId::hash_str("peer-1"), NodeId::hash_str("peer-1"));
        assert_ne!(NodeId::hash_str("peer-1"), NodeId::hash_str("peer-2"));
        assert_ne!(NodeId::hash_u64(1), NodeId::hash_u64(2));

        // No collisions over a reasonable key population.
        let mut seen = HashSet::new();
        for i in 0..10_000u64 {
            assert!(seen.insert(NodeId::hash_u64(i)));
        }
    }

    #[test]
    fn digits_and_prefixes() {
        let id = NodeId(0xABCD_0000_0000_0000_0000_0000_0000_0000);
        assert_eq!(id.digit(0), 0xA);
        assert_eq!(id.digit(1), 0xB);
        assert_eq!(id.digit(2), 0xC);
        assert_eq!(id.digit(3), 0xD);
        assert_eq!(id.digit(4), 0x0);

        let other = NodeId(0xABCE_0000_0000_0000_0000_0000_0000_0000);
        assert_eq!(id.shared_prefix_len(&other), 3);
        assert_eq!(id.shared_prefix_len(&id), NodeId::DIGITS);
        let far = NodeId(0x1000_0000_0000_0000_0000_0000_0000_0000);
        assert_eq!(id.shared_prefix_len(&far), 0);
    }

    #[test]
    fn ring_distance_wraps() {
        let a = NodeId(10);
        let b = NodeId(3);
        assert_eq!(a.distance_to(&NodeId(15)), 5);
        // Wrapping distance goes the long way around.
        assert_eq!(a.distance_to(&b), u128::MAX - 6);
        assert_eq!(a.distance_to(&a), 0);
    }

    #[test]
    fn display_is_32_hex_digits() {
        let s = NodeId::hash_str("x").to_string();
        assert_eq!(s.len(), 32);
    }
}
