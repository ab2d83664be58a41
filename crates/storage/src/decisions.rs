//! Per-participant accept/reject decision records and reconciliation history.
//!
//! The paper moves the sets of applied and rejected transactions from the
//! participant into the update store, so that each client holds only soft
//! state and can be reconstructed from the store. This module is that record:
//! for every participant it keeps the decision made about each transaction and
//! the epoch associated with each of its reconciliations.
//!
//! [`ParticipantRecord`] is the single-participant building block. The update
//! store keeps one per participant *shard*, so that decisions from different
//! participants never contend on a shared structure.

use orchestra_model::{Epoch, ReconciliationId, TransactionId};
use rustc_hash::{FxHashMap, FxHashSet};
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
/// Besides the authoritative decision map, the record maintains the accepted
/// and rejected sets *incrementally* behind [`Arc`]s, so that a
/// reconciliation can consult them in O(1) and callers can take a snapshot
/// with a reference-count bump instead of cloning a fresh set per call —
/// the key to making per-reconciliation work scale with new epochs rather
/// than with total history.
#[derive(Clone, Default)]
pub struct ParticipantRecord {
    /// Authoritative decision map. `pub(crate)` (like the other durable
    /// fields) so the snapshot codec ([`crate::codec`]) can write and rebuild
    /// the record; the derived sets are never written, only rebuilt.
    pub(crate) decisions: FxHashMap<TransactionId, Decision>,
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
    pub(crate) accepted_order: Vec<TransactionId>,
    pub(crate) reconciliations: Vec<(ReconciliationId, Epoch)>,
    accepted: Arc<FxHashSet<TransactionId>>,
    rejected: Arc<FxHashSet<TransactionId>>,
}

impl std::fmt::Debug for ParticipantRecord {
    /// Canonical rendering: the hash-backed decision map and derived sets are
    /// printed in sorted order, so two records holding the same durable state
    /// render identically regardless of insertion history. Crash recovery
    /// relies on this — a recovered store is verified byte-for-byte against
    /// the live one through its `Debug` output.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let decisions: std::collections::BTreeMap<_, _> = self.decisions.iter().collect();
        let mut accepted: Vec<_> = self.accepted.iter().collect();
        accepted.sort();
        let mut rejected: Vec<_> = self.rejected.iter().collect();
        rejected.sort();
        f.debug_struct("ParticipantRecord")
            .field("decisions", &decisions)
            .field("accepted_order", &self.accepted_order)
            .field("reconciliations", &self.reconciliations)
            .field("accepted", &accepted)
            .field("rejected", &rejected)
            .finish()
    }
}

impl ParticipantRecord {
    /// Creates an empty record.
    pub fn new() -> Self {
        ParticipantRecord::default()
    }

    /// Records a decision about a transaction. A later decision overwrites an
    /// earlier one only if the earlier one was not `Accepted` (acceptance is
    /// monotone: accepted transactions are never rolled back).
    ///
    /// `Arc::make_mut` keeps the update copy-free in the steady state: the
    /// sets are only deep-copied when an outstanding snapshot still shares
    /// them.
    pub fn record(&mut self, txn: TransactionId, decision: Decision) {
        match self.decisions.get(&txn) {
            Some(Decision::Accepted) => {}
            _ => {
                self.decisions.insert(txn, decision);
                match decision {
                    Decision::Accepted => {
                        Arc::make_mut(&mut self.rejected).remove(&txn);
                        Arc::make_mut(&mut self.accepted).insert(txn);
                        self.accepted_order.push(txn);
                    }
                    Decision::Rejected => {
                        Arc::make_mut(&mut self.rejected).insert(txn);
                    }
                }
            }
        }
    }

    /// The accepted transactions in the order they were first accepted — the
    /// order the participant's instance applied them, and therefore the
    /// replay order that reconstructs it (see the field docs).
    pub fn accepted_in_order(&self) -> &[TransactionId] {
        &self.accepted_order
    }

    /// Rebuilds the derived accepted/rejected sets (used after decoding a
    /// snapshot, mirroring `TransactionLog::rebuild_indexes`).
    pub fn rebuild_sets(&mut self) {
        let accepted = Arc::make_mut(&mut self.accepted);
        let rejected = Arc::make_mut(&mut self.rejected);
        accepted.clear();
        rejected.clear();
        for (&id, &d) in &self.decisions {
            match d {
                Decision::Accepted => accepted.insert(id),
                Decision::Rejected => rejected.insert(id),
            };
        }
    }

    /// The decision recorded about a transaction, if any.
    pub fn decision(&self, txn: TransactionId) -> Option<Decision> {
        self.decisions.get(&txn).copied()
    }

    /// The incrementally maintained accepted set.
    pub fn accepted_set(&self) -> &FxHashSet<TransactionId> {
        &self.accepted
    }

    /// The incrementally maintained rejected set.
    pub fn rejected_set(&self) -> &FxHashSet<TransactionId> {
        &self.rejected
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

    /// All decided transactions with the decision `wanted`, sorted by id.
    pub fn with_decision(&self, wanted: Decision) -> Vec<TransactionId> {
        let mut out: Vec<TransactionId> =
            self.decisions.iter().filter(|(_, &d)| d == wanted).map(|(&id, _)| id).collect();
        out.sort();
        out
    }

    /// Records that the participant performed reconciliation `recno` against
    /// the given epoch.
    pub fn record_reconciliation(&mut self, recno: ReconciliationId, epoch: Epoch) {
        self.reconciliations.push((recno, epoch));
    }

    /// The most recent reconciliation, if any.
    pub fn last_reconciliation(&self) -> Option<(ReconciliationId, Epoch)> {
        self.reconciliations.last().copied()
    }

    /// The next reconciliation number.
    pub fn next_reconciliation_id(&self) -> ReconciliationId {
        self.last_reconciliation().map(|(r, _)| r.next()).unwrap_or(ReconciliationId(1))
    }

    /// The full reconciliation history.
    pub fn reconciliations(&self) -> &[(ReconciliationId, Epoch)] {
        &self.reconciliations
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

        assert_eq!(p1.decision(x(2, 0)), Some(Decision::Accepted));
        assert_eq!(p1.decision(x(3, 0)), Some(Decision::Rejected));
        assert_eq!(p2.decision(x(2, 0)), Some(Decision::Rejected));
        assert_eq!(p2.decision(x(3, 0)), None);
        assert_eq!(p1.with_decision(Decision::Accepted), vec![x(2, 0)]);
        assert_eq!(p1.with_decision(Decision::Rejected), vec![x(3, 0)]);
    }

    #[test]
    fn incremental_sets_track_decisions_and_rebuild() {
        let mut rec = ParticipantRecord::new();
        rec.record(x(2, 0), Decision::Rejected);
        rec.record(x(3, 0), Decision::Accepted);
        // Rejection superseded by acceptance moves between the sets.
        rec.record(x(2, 0), Decision::Accepted);
        assert!(rec.accepted_set().contains(&x(2, 0)) && rec.accepted_set().contains(&x(3, 0)));
        assert!(rec.rejected_set().is_empty());

        // A decoded record carries the durable fields only; the sets come
        // back through rebuild_sets.
        let mut back = ParticipantRecord {
            decisions: rec.decisions.clone(),
            accepted_order: rec.accepted_order.clone(),
            reconciliations: rec.reconciliations.clone(),
            ..ParticipantRecord::new()
        };
        assert!(back.accepted_set().is_empty());
        back.rebuild_sets();
        assert_eq!(back.accepted_set(), rec.accepted_set());
        assert_eq!(format!("{back:?}"), format!("{rec:?}"));
    }

    #[test]
    fn acceptance_is_monotone() {
        let mut rec = ParticipantRecord::new();
        rec.record(x(2, 0), Decision::Accepted);
        rec.record(x(2, 0), Decision::Rejected);
        assert_eq!(rec.decision(x(2, 0)), Some(Decision::Accepted));
        // A rejection can later be superseded by acceptance (conflict
        // resolution can accept a previously deferred option).
        rec.record(x(3, 0), Decision::Rejected);
        rec.record(x(3, 0), Decision::Accepted);
        assert_eq!(rec.decision(x(3, 0)), Some(Decision::Accepted));
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
        assert!(rec.accepted_set().contains(&x(2, 1)));
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
        assert_eq!(rec.reconciliations().len(), 2);
    }
}
