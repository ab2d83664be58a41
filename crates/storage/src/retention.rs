//! Convergence-horizon retention: the policy and report types of the
//! bounded-memory store.
//!
//! The paper's update store accumulates every published transaction forever —
//! fine for a figure-scale experiment, fatal for a long-running
//! confederation. The retention subsystem prunes history that can no longer
//! influence any future decision:
//!
//! * The **convergence horizon** is the largest epoch `H` such that every
//!   registered, unretired participant's epoch cursor has passed `H` *and*
//!   every trusted relevant transaction at or below `H` is decided
//!   (accepted or rejected) by every participant whose policy finds it
//!   relevant. Below the horizon, nothing will ever be offered as a
//!   candidate again: decisions are durable and final.
//! * The horizon is additionally capped by the **membership frontier** — the
//!   store's explicit declaration of how much history a participant
//!   registering *later* may still need. Until the frontier is advanced (or
//!   membership is closed), nothing is prunable, so the default is always
//!   safe for open-ended confederations.
//! * Pruning keeps the **pinned-ancestor set**
//!   ([`crate::TransactionLog::pinned_ancestors`]): the sub-horizon entries a
//!   future antecedent chase can still reach. This makes pruning
//!   **decision-invariant** — a pruned and an unpruned store produce
//!   identical candidate extensions and therefore identical decisions for
//!   every future reconciliation.
//!
//! What pruning keeps versus drops:
//!
//! | state | kept? |
//! |-------|-------|
//! | decision sets / acceptance order | always (tiny, and decisions are final) |
//! | post-horizon log entries | always |
//! | pinned ancestors at or below the horizon | yes (live-value lineage) |
//! | other sub-horizon log entries | dropped |
//! | sub-horizon relevance-index slices | dropped (every trusted entry is decided) |
//! | sub-horizon causal DAG nodes | dropped (the frontier stays) |
//!
//! The trade-off is the paper's soft-state rebuild: a participant
//! reconstructing its *instance* from the store replays its accepted
//! transactions, and a prune may drop part of that stream (a superseded
//! insert's delete, say). Replaying the rest would build a wrong instance,
//! so a rebuild whose replay holds fewer transactions than the participant
//! accepted refuses with [`crate::StorageError::Retention`]. Confederations
//! that rebuild participants from the store should keep
//! [`RetentionPolicy::KeepAll`] (the default); decisions, deferred conflicts
//! and everything the reconciliation protocol itself needs survive pruning
//! in full.

use orchestra_model::Epoch;

/// How aggressively the store prunes converged history.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RetentionPolicy {
    /// Never prune (the paper's behaviour, and the default): the log,
    /// relevance index and durable state grow with history.
    #[default]
    KeepAll,
    /// Prune everything at or below the convergence horizon except the
    /// pinned-ancestor set: memory is bounded by the live data set plus the
    /// undecided suffix, not by history length.
    ConvergedOnly,
    /// Like `ConvergedOnly`, but always retain the most recent `n` epochs
    /// even if they have converged — a hedge for operators who want a
    /// recent-history window for inspection or debugging. Never prunes
    /// *beyond* the convergence horizon.
    KeepLastN(u64),
}

impl RetentionPolicy {
    /// Caps a computed convergence horizon by this policy: `KeepAll` forbids
    /// pruning, `KeepLastN` holds back the trailing window below the stable
    /// frontier.
    pub fn cap(&self, horizon: Epoch, stable: Epoch) -> Epoch {
        match self {
            RetentionPolicy::KeepAll => Epoch::ZERO,
            RetentionPolicy::ConvergedOnly => horizon,
            RetentionPolicy::KeepLastN(n) => {
                Epoch(horizon.as_u64().min(stable.as_u64().saturating_sub(*n)))
            }
        }
    }
}

/// What one [`prune`](RetentionPolicy) pass did — returned by
/// `StoreCatalog::prune_to_horizon` and recorded by the retention workload.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PruneReport {
    /// The epoch pruned through (the policy-capped convergence horizon at the
    /// time of the call; `Epoch::ZERO` means the pass was a no-op).
    pub horizon: Epoch,
    /// Log entries removed by this pass.
    pub pruned_log_entries: u64,
    /// Relevance-index entries removed by this pass (summed over shards).
    pub pruned_relevance_entries: u64,
    /// Epochs newly pruned by this pass: the horizon less the previous
    /// pruned-through mark.
    pub pruned_epoch_records: u64,
    /// Sub-horizon entries retained as pinned ancestors.
    pub pinned: u64,
    /// Live log entries remaining after the pass.
    pub live_log_entries: u64,
}

impl PruneReport {
    /// True when the pass removed nothing (horizon unchanged or zero).
    pub fn is_noop(&self) -> bool {
        self.pruned_log_entries == 0
            && self.pruned_relevance_entries == 0
            && self.pruned_epoch_records == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policies_cap_the_horizon() {
        let h = Epoch(10);
        let stable = Epoch(14);
        assert_eq!(RetentionPolicy::KeepAll.cap(h, stable), Epoch::ZERO);
        assert_eq!(RetentionPolicy::ConvergedOnly.cap(h, stable), Epoch(10));
        // KeepLastN holds back the window below the stable frontier...
        assert_eq!(RetentionPolicy::KeepLastN(6).cap(h, stable), Epoch(8));
        // ...but never extends beyond the convergence horizon.
        assert_eq!(RetentionPolicy::KeepLastN(1).cap(h, stable), Epoch(10));
        assert_eq!(RetentionPolicy::KeepLastN(20).cap(h, stable), Epoch::ZERO);
        assert_eq!(RetentionPolicy::default(), RetentionPolicy::KeepAll);
    }

    #[test]
    fn reports_know_when_nothing_happened() {
        assert!(PruneReport::default().is_noop());
        let real = PruneReport { pruned_log_entries: 3, ..PruneReport::default() };
        assert!(!real.is_noop());
    }
}
