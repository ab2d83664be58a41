//! Per-participant accept/reject decision records.
//!
//! The paper moves the sets of applied and rejected transactions from the
//! participant into the update store, so that each client holds only soft
//! state and can be reconstructed from the store. This module is that record:
//! for every participant it keeps each fact once — the order in which it
//! accepted transactions, the set it rejected, and its last reconciliation
//! `(recno, epoch)`, which is also its epoch cursor. The accepted set is the
//! acceptance order's members, and the two sets are disjoint; nothing else
//! restates a decision, and earlier reconciliations are not kept because
//! nothing reads them.
//!
//! [`ParticipantRecord`] is the single-participant building block. The update
//! store keeps one per participant *shard*, so that decisions from different
//! participants never contend on a shared structure.

use crate::error::{Result, StorageError};
use orchestra_model::{Epoch, ReconciliationId, TransactionId};
use rustc_hash::FxHashSet;
use std::sync::Arc;

/// The durable decision a participant has recorded about a transaction.
///
/// Deferral is deliberately *not* represented here: deferred transactions are
/// soft state at the client (they may be accepted or rejected later), exactly
/// as in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Decision {
    /// The transaction was accepted and applied to the participant's
    /// instance.
    Accepted,
    /// The transaction was rejected (it conflicted with a higher-priority
    /// transaction, was incompatible with the instance, or depends on a
    /// rejected transaction).
    Rejected,
}

/// One participant's durable reconciliation record.
///
/// The accepted and rejected sets sit behind [`Arc`]s, so that a
/// reconciliation can consult them in O(1) and callers can take a snapshot
/// with a reference-count bump instead of cloning a fresh set per call —
/// the key to making per-reconciliation work scale with new epochs rather
/// than with total history.
#[derive(Clone, Default)]
pub struct ParticipantRecord {
    /// Transaction ids in the order the participant first *accepted* them.
    /// This is the order the participant's instance applied their effects
    /// (own transactions at execute/publish time, remote ones as their
    /// sessions decided them), which is **not** publication order — a
    /// participant executes against its own lagging view, so its own write
    /// to a key can land locally before a remotely published one it only
    /// accepts later. Replaying accepted transactions in this order is what
    /// makes the instance reconstructible from the store (the paper's
    /// soft-state property); replaying in publication order diverges on
    /// exactly those interleavings.
    accepted_order: Vec<TransactionId>,
    /// The members of `accepted_order`, for O(1) lookups.
    accepted: Arc<FxHashSet<TransactionId>>,
    /// Rejected transactions; never an accepted one.
    rejected: Arc<FxHashSet<TransactionId>>,
    /// The most recent committed reconciliation and the epoch it covered.
    last: Option<(ReconciliationId, Epoch)>,
}

impl std::fmt::Debug for ParticipantRecord {
    /// Canonical rendering: the hash-backed rejected set is printed in sorted
    /// order, so two records holding the same durable state render
    /// identically regardless of insertion history. Crash recovery relies on
    /// this — a recovered store is verified byte-for-byte against the live
    /// one through its `Debug` output.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParticipantRecord")
            .field("accepted_order", &self.accepted_order)
            .field("rejected", &self.rejected_sorted())
            .field("last", &self.last)
            .finish()
    }
}

impl ParticipantRecord {
    /// Creates an empty record.
    pub fn new() -> Self {
        ParticipantRecord::default()
    }

    /// Rebuilds a record from its durable parts (a decoded snapshot),
    /// refusing an id accepted twice or both accepted and rejected.
    pub(crate) fn restore(
        accepted_order: Vec<TransactionId>,
        rejected: Vec<TransactionId>,
        last: Option<(ReconciliationId, Epoch)>,
    ) -> Result<Self> {
        let mut accepted = FxHashSet::default();
        for &id in &accepted_order {
            if !accepted.insert(id) {
                return Err(StorageError::Persistence(format!("{id} is accepted twice")));
            }
        }
        let mut rejected_set = FxHashSet::default();
        for id in rejected {
            if accepted.contains(&id) {
                return Err(StorageError::Persistence(format!(
                    "{id} is both accepted and rejected"
                )));
            }
            if !rejected_set.insert(id) {
                return Err(StorageError::Persistence(format!("{id} is rejected twice")));
            }
        }
        Ok(ParticipantRecord {
            accepted_order,
            accepted: Arc::new(accepted),
            rejected: Arc::new(rejected_set),
            last,
        })
    }

    /// Records a decision about a transaction. An accepted transaction stays
    /// accepted (accepted transactions are never rolled back); a rejected one
    /// moves to the accepted set if a later decision accepts it.
    ///
    /// `Arc::make_mut` keeps the update copy-free in the steady state: the
    /// sets are only deep-copied when an outstanding snapshot still shares
    /// them.
    pub fn record(&mut self, txn: TransactionId, decision: Decision) {
        if self.accepted.contains(&txn) {
            return;
        }
        match decision {
            Decision::Accepted => {
                if self.rejected.contains(&txn) {
                    Arc::make_mut(&mut self.rejected).remove(&txn);
                }
                Arc::make_mut(&mut self.accepted).insert(txn);
                self.accepted_order.push(txn);
            }
            Decision::Rejected => {
                Arc::make_mut(&mut self.rejected).insert(txn);
            }
        }
    }

    /// Whether the participant has accepted or rejected the transaction.
    pub fn is_decided(&self, txn: TransactionId) -> bool {
        self.accepted.contains(&txn) || self.rejected.contains(&txn)
    }

    /// The accepted transactions in the order they were first accepted — the
    /// order the participant's instance applied them, and therefore the
    /// replay order that reconstructs it (see the field docs).
    pub fn accepted_in_order(&self) -> &[TransactionId] {
        &self.accepted_order
    }

    /// The rejected transactions, sorted by id.
    pub fn rejected_sorted(&self) -> Vec<TransactionId> {
        let mut out: Vec<TransactionId> = self.rejected.iter().copied().collect();
        out.sort_unstable();
        out
    }

    /// A shared snapshot of the accepted set: a reference-count bump, not a
    /// copy. The snapshot is immutable; later decisions copy-on-write inside
    /// the record without disturbing it.
    pub fn accepted_snapshot(&self) -> Arc<FxHashSet<TransactionId>> {
        Arc::clone(&self.accepted)
    }

    /// A shared snapshot of the rejected set (see
    /// [`ParticipantRecord::accepted_snapshot`]).
    pub fn rejected_snapshot(&self) -> Arc<FxHashSet<TransactionId>> {
        Arc::clone(&self.rejected)
    }

    /// Records that the participant performed reconciliation `recno` against
    /// the given epoch.
    pub fn record_reconciliation(&mut self, recno: ReconciliationId, epoch: Epoch) {
        self.last = Some((recno, epoch));
    }

    /// The most recent reconciliation, if any.
    pub fn last_reconciliation(&self) -> Option<(ReconciliationId, Epoch)> {
        self.last
    }

    /// The next reconciliation number.
    pub fn next_reconciliation_id(&self) -> ReconciliationId {
        self.last.map(|(r, _)| r.next()).unwrap_or(ReconciliationId(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orchestra_model::ParticipantId;

    fn x(i: u32, j: u64) -> TransactionId {
        TransactionId::new(ParticipantId(i), j)
    }

    #[test]
    fn decisions_are_recorded_per_participant() {
        let mut p1 = ParticipantRecord::new();
        let mut p2 = ParticipantRecord::new();
        p1.record(x(2, 0), Decision::Accepted);
        p1.record(x(3, 0), Decision::Rejected);
        p2.record(x(2, 0), Decision::Rejected);

        assert_eq!(p1.accepted_in_order(), &[x(2, 0)]);
        assert_eq!(p1.rejected_sorted(), vec![x(3, 0)]);
        assert_eq!(p2.accepted_in_order(), &[]);
        assert_eq!(p2.rejected_sorted(), vec![x(2, 0)]);
        assert!(p1.is_decided(x(3, 0)) && !p2.is_decided(x(3, 0)));
    }

    #[test]
    fn incremental_sets_track_decisions_and_rebuild() {
        let mut rec = ParticipantRecord::new();
        rec.record(x(2, 0), Decision::Rejected);
        rec.record(x(3, 0), Decision::Accepted);
        // Rejection superseded by acceptance moves between the sets.
        rec.record(x(2, 0), Decision::Accepted);
        rec.record(x(4, 0), Decision::Rejected);
        rec.record_reconciliation(ReconciliationId(2), Epoch(5));
        assert_eq!(rec.accepted_snapshot().len(), 2);
        assert_eq!(rec.rejected_sorted(), vec![x(4, 0)]);

        let back = ParticipantRecord::restore(
            rec.accepted_in_order().to_vec(),
            rec.rejected_sorted(),
            rec.last_reconciliation(),
        )
        .unwrap();
        assert_eq!(back.accepted_snapshot(), rec.accepted_snapshot());
        assert_eq!(format!("{back:?}"), format!("{rec:?}"));

        // The parts of a record that could not have been recorded are refused.
        let refused = |accepted: &[TransactionId], rejected: &[TransactionId]| {
            matches!(
                ParticipantRecord::restore(accepted.to_vec(), rejected.to_vec(), None),
                Err(StorageError::Persistence(_))
            )
        };
        assert!(refused(&[x(2, 0), x(2, 0)], &[]));
        assert!(refused(&[x(2, 0)], &[x(2, 0)]));
        assert!(refused(&[], &[x(4, 0), x(4, 0)]));
    }

    #[test]
    fn acceptance_is_monotone() {
        let mut rec = ParticipantRecord::new();
        rec.record(x(2, 0), Decision::Accepted);
        rec.record(x(2, 0), Decision::Rejected);
        assert!(rec.rejected_sorted().is_empty());
        // A rejection can later be superseded by acceptance (conflict
        // resolution can accept a previously deferred option).
        rec.record(x(3, 0), Decision::Rejected);
        rec.record(x(3, 0), Decision::Accepted);
        assert!(rec.rejected_sorted().is_empty());
        assert_eq!(rec.accepted_in_order(), &[x(2, 0), x(3, 0)]);
    }

    #[test]
    fn snapshots_are_immutable_views() {
        let mut rec = ParticipantRecord::new();
        rec.record(x(2, 0), Decision::Accepted);
        let snap = rec.accepted_snapshot();
        assert!(snap.contains(&x(2, 0)));
        // New decisions copy-on-write inside the record; the snapshot is
        // unaffected.
        rec.record(x(2, 1), Decision::Accepted);
        assert!(!snap.contains(&x(2, 1)));
        // A fresh snapshot sees the new decision.
        assert!(rec.accepted_snapshot().contains(&x(2, 1)));
    }

    #[test]
    fn reconciliation_history() {
        let mut rec = ParticipantRecord::new();
        assert_eq!(rec.last_reconciliation(), None);
        assert_eq!(rec.next_reconciliation_id(), ReconciliationId(1));

        rec.record_reconciliation(ReconciliationId(1), Epoch(3));
        rec.record_reconciliation(ReconciliationId(2), Epoch(7));
        assert_eq!(rec.last_reconciliation(), Some((ReconciliationId(2), Epoch(7))));
        assert_eq!(rec.next_reconciliation_id(), ReconciliationId(3));
    }
}
