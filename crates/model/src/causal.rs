//! Causal version stamps and antichain clocks.
//!
//! The paper's update store orders publications with a single scalar epoch
//! counter (an SQL sequence): every publish serialises through one allocator,
//! and a partitioned participant cannot publish at all. This module replaces
//! that counter — behind a mode switch — with a *causal DAG* in the style of
//! causal version graphs: each publisher allocates its own totally-ordered
//! sequence of [`StampId`]s, and every published batch carries a
//! [`crate::ids::CausalStamp`] naming the frontier it causally descends from.
//!
//! # Nomenclature
//!
//! * A **stamp id** `p3:7` is one event: publisher 3's seventh publication.
//!   Stamps of one publisher form a chain (`p3:7` descends from `p3:6`).
//! * An [`AntichainClock`] is a set of stamp ids none of which is an ancestor
//!   of another — the *frontier* of a causal history. Because each
//!   publisher's stamps are totally ordered, an antichain holds at most one
//!   stamp per publisher.
//!
//! Reconciliation never compares two histories: its decisions depend only on
//! the published log, priorities and the participant's own state. A
//! publication precedes another when the later one's parent frontier covers
//! its stamp ([`AntichainClock::covers`]).

use crate::ids::ParticipantId;
use std::fmt;

/// One event in the causal DAG: a publisher plus its per-publisher sequence
/// number (1-based; sequence 0 never exists, the empty clock is the root).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StampId {
    /// The publishing participant.
    pub publisher: ParticipantId,
    /// Its per-publisher sequence number, allocated 1, 2, 3, … by the
    /// publisher itself (not by a shared counter).
    pub seq: u64,
}

impl StampId {
    /// Creates a stamp id.
    pub fn new(publisher: ParticipantId, seq: u64) -> Self {
        StampId { publisher, seq }
    }
}

impl fmt::Display for StampId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.publisher, self.seq)
    }
}

/// A frontier of a causal history: a set of [`StampId`]s none of which is an
/// ancestor of another. Because each publisher's stamps form a chain, the
/// clock keeps at most one stamp per publisher — inserting `p3:7` absorbs
/// `p3:5`. Members are held sorted by publisher, so equal clocks compare,
/// hash, render and serialise identically regardless of insertion order.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct AntichainClock {
    members: Vec<StampId>,
}

impl AntichainClock {
    /// The empty clock — the root every history descends from.
    pub fn new() -> Self {
        AntichainClock { members: Vec::new() }
    }

    /// Builds a clock from arbitrary stamps, keeping the deepest per
    /// publisher.
    pub fn from_stamps(stamps: impl IntoIterator<Item = StampId>) -> Self {
        let mut clock = AntichainClock::new();
        for stamp in stamps {
            clock.insert(stamp);
        }
        clock
    }

    /// True if no event has happened yet.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Number of distinct publishers on the frontier.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// The frontier members, sorted by publisher.
    pub fn members(&self) -> &[StampId] {
        &self.members
    }

    /// The frontier's sequence number for a publisher, if that publisher has
    /// published.
    pub fn seq_of(&self, publisher: ParticipantId) -> Option<u64> {
        self.members
            .binary_search_by_key(&publisher, |s| s.publisher)
            .ok()
            .map(|idx| self.members[idx].seq)
    }

    /// True if the clock's per-publisher entry is at or past the stamp —
    /// i.e. the stamp is on or behind the frontier *along its own
    /// publisher's chain*.
    pub fn covers(&self, stamp: StampId) -> bool {
        self.seq_of(stamp.publisher).is_some_and(|seq| seq >= stamp.seq)
    }

    /// Inserts a stamp, absorbing any shallower stamp of the same publisher.
    /// Returns true if the frontier advanced.
    pub fn insert(&mut self, stamp: StampId) -> bool {
        match self.members.binary_search_by_key(&stamp.publisher, |s| s.publisher) {
            Ok(idx) => {
                if self.members[idx].seq < stamp.seq {
                    self.members[idx].seq = stamp.seq;
                    true
                } else {
                    false
                }
            }
            Err(idx) => {
                self.members.insert(idx, stamp);
                true
            }
        }
    }

    /// Merges another clock in, keeping the deepest stamp per publisher.
    /// Returns true if the frontier advanced.
    pub fn merge(&mut self, other: &AntichainClock) -> bool {
        let mut advanced = false;
        for &stamp in &other.members {
            advanced |= self.insert(stamp);
        }
        advanced
    }
}

impl fmt::Display for AntichainClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, stamp) in self.members.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{stamp}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<StampId> for AntichainClock {
    fn from_iter<I: IntoIterator<Item = StampId>>(iter: I) -> Self {
        AntichainClock::from_stamps(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::CausalStamp;

    fn p(i: u32) -> ParticipantId {
        ParticipantId(i)
    }

    fn s(i: u32, seq: u64) -> StampId {
        StampId::new(p(i), seq)
    }

    #[test]
    fn clock_keeps_one_stamp_per_publisher() {
        let mut clock = AntichainClock::new();
        assert!(clock.insert(s(2, 1)));
        assert!(clock.insert(s(1, 4)));
        assert!(!clock.insert(s(1, 3)), "shallower stamp is absorbed");
        assert!(clock.insert(s(1, 5)));
        assert_eq!(clock.members(), &[s(1, 5), s(2, 1)]);
        assert_eq!(clock.seq_of(p(1)), Some(5));
        assert_eq!(clock.seq_of(p(9)), None);
        assert!(clock.covers(s(1, 5)));
        assert!(clock.covers(s(1, 2)));
        assert!(!clock.covers(s(1, 6)));
        assert!(!clock.covers(s(9, 1)));
        assert_eq!(clock.to_string(), "{p1:5,p2:1}");
    }

    #[test]
    fn clock_equality_ignores_insertion_order() {
        let a = AntichainClock::from_stamps([s(1, 1), s(2, 2), s(3, 3)]);
        let b = AntichainClock::from_stamps([s(3, 3), s(1, 1), s(2, 2)]);
        assert_eq!(a, b);
        let mut merged = AntichainClock::from_stamps([s(1, 1)]);
        assert!(merged.merge(&a));
        assert!(!merged.merge(&a), "idempotent");
        assert_eq!(merged, a);
    }

    #[test]
    fn causal_stamp_display_and_id() {
        let stamp = CausalStamp::new(p(2), 5, AntichainClock::from_stamps([s(1, 3), s(3, 7)]));
        assert_eq!(stamp.id(), s(2, 5));
        assert_eq!(stamp.to_string(), "p2#5<-{p1:3,p3:7}");
    }
}
