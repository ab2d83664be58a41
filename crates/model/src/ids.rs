//! Identifiers used throughout the CDSS: participants, transactions, epochs,
//! reconciliations, causal stamps, and trust priorities.

use crate::causal::{AntichainClock, StampId};
use std::fmt;

/// Identifies a participant (peer) in the CDSS confederation.
///
/// Participants are the unit of autonomy in the paper: each one owns a local
/// database instance, publishes transactions annotated with its identity, and
/// reconciles against the update store according to its own trust policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ParticipantId(pub u32);

impl ParticipantId {
    /// Returns the raw numeric identifier.
    pub fn as_u32(self) -> u32 {
        self.0
    }
}

impl fmt::Display for ParticipantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl From<u32> for ParticipantId {
    fn from(v: u32) -> Self {
        ParticipantId(v)
    }
}

/// Globally unique transaction identifier `X_{i:j}`: the originating
/// participant `i` plus a per-participant local sequence number `j`.
///
/// The paper assumes local identifiers are assigned in increasing order, so
/// ordering first by participant then by local id gives a total order that is
/// consistent with each participant's publication order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TransactionId {
    /// Originating participant (the `i` in `X_{i:j}`).
    pub participant: ParticipantId,
    /// Local, monotonically increasing sequence number (the `j`).
    pub local: u64,
}

impl TransactionId {
    /// Creates a transaction identifier.
    pub fn new(participant: ParticipantId, local: u64) -> Self {
        TransactionId { participant, local }
    }
}

impl fmt::Display for TransactionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "X{}:{}", self.participant.0, self.local)
    }
}

/// A reconciliation/publication epoch.
///
/// The update store owns a single monotonically increasing epoch counter; it
/// is incremented each time a participant publishes. Epoch 0 is the initial,
/// empty state; the first publication defines the beginning of epoch 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Epoch(pub u64);

impl Epoch {
    /// The epoch before any publication has happened.
    pub const ZERO: Epoch = Epoch(0);

    /// Returns the next epoch.
    pub fn next(self) -> Epoch {
        Epoch(self.0 + 1)
    }

    /// Returns the raw counter value.
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Epoch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// A causal publication stamp: the multi-writer replacement for a scalar
/// [`Epoch`].
///
/// In causal mode every published batch is stamped by its *publisher* with
/// its own per-publisher sequence number (no shared counter) plus the
/// [`AntichainClock`] frontier the batch causally descends from — the
/// events the publisher had observed when it published. Stamps of one
/// publisher form a chain (`seq` is 1-based and gapless), so the store can
/// ingest them in any interleaving, and a partitioned publisher can keep
/// stamping offline. A stamp that `parents` covers
/// ([`AntichainClock::covers`]) precedes this one.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CausalStamp {
    /// The publishing participant.
    pub publisher: ParticipantId,
    /// Its per-publisher sequence number (1-based, allocated by the
    /// publisher itself).
    pub seq: u64,
    /// The frontier of events this publication causally descends from.
    pub parents: AntichainClock,
}

impl CausalStamp {
    /// Creates a stamp.
    pub fn new(publisher: ParticipantId, seq: u64, parents: AntichainClock) -> Self {
        CausalStamp { publisher, seq, parents }
    }

    /// The stamp's identity in the causal DAG.
    pub fn id(&self) -> StampId {
        StampId::new(self.publisher, self.seq)
    }
}

impl fmt::Display for CausalStamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}<-{}", self.publisher, self.seq, self.parents)
    }
}

/// Identifies one reconciliation operation performed by a participant
/// (the `recno` of the paper's Figure 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ReconciliationId(pub u64);

impl ReconciliationId {
    /// Returns the next reconciliation number.
    pub fn next(self) -> ReconciliationId {
        ReconciliationId(self.0 + 1)
    }
}

impl fmt::Display for ReconciliationId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "recno{}", self.0)
    }
}

/// A trust priority assigned by an acceptance rule.
///
/// The paper uses non-negative integers where `0` means *untrusted*; larger
/// values mean more authoritative. [`Priority::UNTRUSTED`] is the bottom
/// element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Priority(pub u32);

impl Priority {
    /// The priority of an untrusted transaction.
    pub const UNTRUSTED: Priority = Priority(0);

    /// Priority used for a participant's own updates, which it always trusts
    /// above anything imported from others.
    pub const OWN: Priority = Priority(u32::MAX);

    /// Returns true if the priority denotes an untrusted transaction.
    pub fn is_untrusted(self) -> bool {
        self.0 == 0
    }

    /// Returns true if the priority denotes a trusted transaction.
    pub fn is_trusted(self) -> bool {
        self.0 > 0
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 == u32::MAX {
            write!(f, "own")
        } else {
            write!(f, "{}", self.0)
        }
    }
}

impl From<u32> for Priority {
    fn from(v: u32) -> Self {
        Priority(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transaction_ids_order_by_participant_then_local() {
        let a = TransactionId::new(ParticipantId(1), 5);
        let b = TransactionId::new(ParticipantId(2), 0);
        let c = TransactionId::new(ParticipantId(1), 6);
        assert!(a < b);
        assert!(a < c);
        assert!(c < b);
    }

    #[test]
    fn epoch_next_increments() {
        assert_eq!(Epoch::ZERO.next(), Epoch(1));
        assert_eq!(Epoch(41).next(), Epoch(42));
    }

    #[test]
    fn priority_trust_predicates() {
        assert!(Priority::UNTRUSTED.is_untrusted());
        assert!(!Priority::UNTRUSTED.is_trusted());
        assert!(Priority(1).is_trusted());
        assert!(Priority::OWN.is_trusted());
        assert!(Priority::OWN > Priority(1_000_000));
    }

    #[test]
    fn display_formats() {
        assert_eq!(ParticipantId(3).to_string(), "p3");
        assert_eq!(TransactionId::new(ParticipantId(3), 1).to_string(), "X3:1");
        assert_eq!(Epoch(4).to_string(), "e4");
        assert_eq!(Priority(7).to_string(), "7");
        assert_eq!(Priority::OWN.to_string(), "own");
    }

    #[test]
    fn priority_ordering_matches_numeric_ordering() {
        assert!(Priority(2) > Priority(1));
        assert!(Priority(1) > Priority::UNTRUSTED);
    }
}
