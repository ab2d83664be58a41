//! `TimedStore`: an [`UpdateStore`] decorator that records one span per trait
//! call, so the traced run can split a participant operation's time into the
//! store's share and the caller's own.
//!
//! It forwards **every** trait method, including the ones with default
//! bodies: a default would silently replace the inner store's behaviour
//! (`causal_mode` would report `false`, `publish_replica` would error, an
//! instance checkpoint would vanish). `selftest` checks that decisions with
//! the decorator equal decisions without it.

use crate::trace::{count, span};
use orchestra_model::{
    AntichainClock, CausalStamp, Epoch, ParticipantId, ReconciliationId, Transaction,
    TransactionId, TrustPolicy,
};
use orchestra_recon::CandidateTransaction;
use orchestra_storage::{InstanceCheckpoint, Result};
use orchestra_store::{SessionId, SessionInfo, StoreTiming, Timed, UpdateStore};
use rustc_hash::FxHashSet;
use std::sync::Arc;

/// An [`UpdateStore`] that times every call into the store it wraps.
#[derive(Debug)]
pub struct TimedStore<S> {
    inner: S,
}

impl<S> TimedStore<S> {
    /// Wraps `inner`.
    pub fn new(inner: S) -> Self {
        TimedStore { inner }
    }

    /// The wrapped store, for calls outside the trait (snapshots, WAL sync).
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

/// Adds the store's own per-call cost (`Timed::timing`) to the recording, so
/// it can be compared with the span the harness measured around the call.
fn charge(timing: StoreTiming) {
    count("store.timed_ns", timing.total().as_nanos() as u64);
}

fn charged<T>(result: Result<Timed<T>>) -> Result<Timed<T>> {
    if let Ok(timed) = &result {
        charge(timed.timing);
    }
    result
}

impl<S: UpdateStore> UpdateStore for TimedStore<S> {
    fn register_participant(&self, policy: TrustPolicy) {
        let _span = span("store.register");
        self.inner.register_participant(policy);
    }

    fn publish(
        &self,
        participant: ParticipantId,
        transactions: Vec<Transaction>,
    ) -> Result<Timed<Epoch>> {
        let _span = span("store.publish");
        charged(self.inner.publish(participant, transactions))
    }

    fn begin_reconciliation(&self, participant: ParticipantId) -> Result<Timed<SessionInfo>> {
        let _span = span("store.begin");
        charged(self.inner.begin_reconciliation(participant))
    }

    fn next_batch(
        &self,
        session: SessionId,
        max_candidates: usize,
    ) -> Result<Timed<Vec<CandidateTransaction>>> {
        let _span = span("store.next_batch");
        let batch = charged(self.inner.next_batch(session, max_candidates));
        if let Ok(batch) = &batch {
            count("store.candidates_returned", batch.value.len() as u64);
        }
        batch
    }

    fn commit_reconciliation(
        &self,
        session: SessionId,
        accepted: &[TransactionId],
        rejected: &[TransactionId],
    ) -> Result<StoreTiming> {
        let _span = span("store.commit");
        let timing = self.inner.commit_reconciliation(session, accepted, rejected);
        if let Ok(timing) = &timing {
            charge(*timing);
        }
        timing
    }

    fn abort_reconciliation(&self, session: SessionId) -> Result<()> {
        let _span = span("store.abort");
        self.inner.abort_reconciliation(session)
    }

    fn retire_participant(&self, participant: ParticipantId) -> Result<()> {
        let _span = span("store.register");
        self.inner.retire_participant(participant)
    }

    fn record_decisions(
        &self,
        participant: ParticipantId,
        accepted: &[TransactionId],
        rejected: &[TransactionId],
    ) -> Result<StoreTiming> {
        let _span = span("store.record_decisions");
        let timing = self.inner.record_decisions(participant, accepted, rejected);
        if let Ok(timing) = &timing {
            charge(*timing);
        }
        timing
    }

    fn current_reconciliation(&self, participant: ParticipantId) -> ReconciliationId {
        let _span = span("store.lookup");
        self.inner.current_reconciliation(participant)
    }

    fn rejected_set(&self, participant: ParticipantId) -> Arc<FxHashSet<TransactionId>> {
        let _span = span("store.lookup");
        self.inner.rejected_set(participant)
    }

    fn accepted_set(&self, participant: ParticipantId) -> Arc<FxHashSet<TransactionId>> {
        let _span = span("store.lookup");
        self.inner.accepted_set(participant)
    }

    fn transaction(&self, id: TransactionId) -> Option<Arc<Transaction>> {
        let _span = span("store.lookup");
        self.inner.transaction(id)
    }

    fn accepted_transactions(&self, participant: ParticipantId) -> Vec<Arc<Transaction>> {
        let _span = span("store.replay_read");
        self.inner.accepted_transactions(participant)
    }

    fn epoch_of(&self, id: TransactionId) -> Option<Epoch> {
        let _span = span("store.replay_read");
        self.inner.epoch_of(id)
    }

    fn accepted_replay_units(&self, participant: ParticipantId) -> Vec<Vec<Arc<Transaction>>> {
        let _span = span("store.replay_read");
        self.inner.accepted_replay_units(participant)
    }

    fn epoch_cursor(&self, participant: ParticipantId) -> Epoch {
        let _span = span("store.lookup");
        self.inner.epoch_cursor(participant)
    }

    fn undecided_candidates(&self, participant: ParticipantId) -> Vec<CandidateTransaction> {
        let _span = span("store.replay_read");
        self.inner.undecided_candidates(participant)
    }

    fn causal_mode(&self) -> bool {
        let _span = span("store.lookup");
        self.inner.causal_mode()
    }

    fn enable_causal_mode(&self) -> Result<()> {
        let _span = span("store.register");
        self.inner.enable_causal_mode()
    }

    fn causal_frontier(&self) -> AntichainClock {
        let _span = span("store.lookup");
        self.inner.causal_frontier()
    }

    fn next_publisher_seq(&self, participant: ParticipantId) -> u64 {
        let _span = span("store.lookup");
        self.inner.next_publisher_seq(participant)
    }

    fn publish_stamped(
        &self,
        stamp: CausalStamp,
        transactions: Vec<Transaction>,
    ) -> Result<Timed<Epoch>> {
        let _span = span("store.publish");
        charged(self.inner.publish_stamped(stamp, transactions))
    }

    fn publish_replica(
        &self,
        participant: ParticipantId,
        epoch: Epoch,
        transactions: Vec<Transaction>,
    ) -> Result<Timed<Epoch>> {
        let _span = span("store.publish");
        charged(self.inner.publish_replica(participant, epoch, transactions))
    }

    fn publish_replica_stamped(
        &self,
        stamp: CausalStamp,
        epoch: Epoch,
        transactions: Vec<Transaction>,
    ) -> Result<Timed<Epoch>> {
        let _span = span("store.publish");
        charged(self.inner.publish_replica_stamped(stamp, epoch, transactions))
    }

    fn record_instance_checkpoint(
        &self,
        participant: ParticipantId,
        checkpoint: InstanceCheckpoint,
    ) -> Result<()> {
        let _span = span("store.register");
        self.inner.record_instance_checkpoint(participant, checkpoint)
    }

    fn instance_checkpoint(&self, participant: ParticipantId) -> Option<InstanceCheckpoint> {
        let _span = span("store.replay_read");
        self.inner.instance_checkpoint(participant)
    }

    fn accepted_replay_units_after(
        &self,
        participant: ParticipantId,
        skip: u64,
    ) -> Vec<Vec<Arc<Transaction>>> {
        let _span = span("store.replay_read");
        self.inner.accepted_replay_units_after(participant, skip)
    }
}
