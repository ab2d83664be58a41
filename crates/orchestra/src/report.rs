//! Reports returned by participant operations: reconciliation outcomes,
//! conflict-resolution outcomes and timing breakdowns.

use orchestra_model::{Epoch, ReconciliationId, TransactionId};
use std::time::Duration;

/// Time spent during one operation, split the way the paper's Figures 10 and
/// 12 report it: time attributable to the update store (including, for the
/// distributed store, simulated network latency) versus time spent running
/// the local reconciliation algorithm.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimingBreakdown {
    /// Store-side time (catalogue computation plus simulated network
    /// latency).
    pub store: Duration,
    /// Local time (the client-centric reconciliation algorithm and local
    /// instance updates).
    pub local: Duration,
}

impl TimingBreakdown {
    /// Total elapsed time.
    pub fn total(&self) -> Duration {
        self.store + self.local
    }

    /// Adds another breakdown into this one.
    pub fn accumulate(&mut self, other: TimingBreakdown) {
        self.store += other.store;
        self.local += other.local;
    }
}

/// The report of one `publish` + `reconcile` cycle of a participant.
#[derive(Debug, Clone, Default)]
pub struct ReconcileReport {
    /// The reconciliation number assigned by the update store.
    pub recno: ReconciliationId,
    /// The epoch the reconciliation was pinned to.
    pub epoch: Epoch,
    /// Root transactions accepted and applied.
    pub accepted: Vec<TransactionId>,
    /// Root transactions rejected.
    pub rejected: Vec<TransactionId>,
    /// Root transactions deferred pending user resolution.
    pub deferred: Vec<TransactionId>,
    /// Timing breakdown of the operation.
    pub timing: TimingBreakdown,
}

impl ReconcileReport {
    /// Number of candidate transactions that were decided or deferred.
    pub fn considered(&self) -> usize {
        self.accepted.len() + self.rejected.len() + self.deferred.len()
    }
}

/// The report of a conflict-resolution operation.
#[derive(Debug, Clone, Default)]
pub struct ResolutionReport {
    /// Transactions rejected because the user did not choose their option.
    pub newly_rejected: Vec<TransactionId>,
    /// Transactions accepted after their conflicts were resolved.
    pub newly_accepted: Vec<TransactionId>,
    /// Transactions that remain deferred (still conflicting).
    pub still_deferred: Vec<TransactionId>,
    /// Timing breakdown of the operation.
    pub timing: TimingBreakdown,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_breakdown_totals_and_accumulates() {
        let mut t =
            TimingBreakdown { store: Duration::from_millis(10), local: Duration::from_millis(5) };
        assert_eq!(t.total(), Duration::from_millis(15));
        t.accumulate(TimingBreakdown {
            store: Duration::from_millis(1),
            local: Duration::from_millis(2),
        });
        assert_eq!(t.store, Duration::from_millis(11));
        assert_eq!(t.local, Duration::from_millis(7));
    }

    #[test]
    fn considered_counts_every_decision() {
        let report = ReconcileReport {
            accepted: vec![TransactionId::new(orchestra_model::ParticipantId(1), 0)],
            rejected: vec![TransactionId::new(orchestra_model::ParticipantId(2), 0)],
            deferred: vec![
                TransactionId::new(orchestra_model::ParticipantId(3), 0),
                TransactionId::new(orchestra_model::ParticipantId(3), 1),
            ],
            ..Default::default()
        };
        assert_eq!(report.considered(), 4);
    }
}
