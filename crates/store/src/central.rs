//! The centralised update store (Section 5.2.1).
//!
//! The paper's central store is a commercial RDBMS reached over a LAN with a
//! constant number of round trips per reconciliation; trust-predicate
//! evaluation and update-extension computation happen inside the DBMS so that
//! only relevant transactions travel to the reconciling peer. This
//! implementation keeps the same interface and division of labour on top of
//! the `orchestra-storage` engine, behind the shared-reference
//! [`UpdateStore`] trait: the sharded [`StoreCatalog`] serves publishes and
//! reconciliation sessions from many participants in parallel against one
//! `&CentralStore`.
//!
//! Its cost model charges only store-side compute time (the constant
//! number of LAN round trips is negligible at the paper's scale).

use crate::api::{SessionId, SessionInfo, StoreTiming, Timed, UpdateStore};
use crate::catalog::StoreCatalog;
use orchestra_model::{
    CausalStamp, Epoch, ParticipantId, ReconciliationId, Schema, Transaction, TransactionId,
    TrustPolicy,
};
use orchestra_recon::CandidateTransaction;
use orchestra_storage::Result;
use rustc_hash::FxHashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Centralised update store backed by the embedded relational engine.
#[derive(Debug, Clone)]
pub struct CentralStore {
    catalog: StoreCatalog,
}

impl CentralStore {
    /// Creates an empty central store for the given schema.
    pub fn new(schema: Schema) -> Self {
        CentralStore { catalog: StoreCatalog::new(schema) }
    }

    /// Creates an empty central store over an explicit durability backend
    /// (see [`crate::Durability`]).
    pub fn with_durability(schema: Schema, durability: crate::Durability) -> Self {
        CentralStore { catalog: StoreCatalog::with_durability(schema, durability) }
    }

    /// Creates an empty central store whose state is made durable in `dir`
    /// through a file-backed write-ahead log. Refuses to clobber an existing
    /// durable store — use [`CentralStore::recover`] for that.
    pub fn durable(schema: Schema, dir: &std::path::Path) -> Result<Self> {
        let backend = crate::FileWalBackend::create(dir, &schema)?;
        Ok(CentralStore::with_durability(schema, crate::Durability::FileWal(backend)))
    }

    /// Reopens a durable central store from its durability directory:
    /// snapshot load plus WAL replay rebuild byte-identical durable state,
    /// and the store keeps appending to the same log (see
    /// [`StoreCatalog::recover`]).
    pub fn recover(dir: &std::path::Path) -> Result<Self> {
        Ok(CentralStore { catalog: StoreCatalog::recover(dir)? })
    }

    /// Sets the retention policy (see
    /// [`orchestra_storage::RetentionPolicy`]); builder form for
    /// construction chains.
    pub fn with_retention(self, policy: orchestra_storage::RetentionPolicy) -> Self {
        self.catalog.set_retention(policy);
        self
    }

    /// Sets the retention policy. Takes effect at the next
    /// [`UpdateStore::prune_to_horizon`].
    pub fn set_retention(&self, policy: orchestra_storage::RetentionPolicy) {
        self.catalog.set_retention(policy);
    }

    /// The retention policy in force.
    pub fn retention(&self) -> orchestra_storage::RetentionPolicy {
        self.catalog.retention()
    }

    /// The underlying catalogue (for inspection in tests and tools).
    pub fn catalog(&self) -> &StoreCatalog {
        &self.catalog
    }

    /// Runs a catalogue operation, measuring its compute time.
    fn timed<T>(&self, f: impl FnOnce(&StoreCatalog) -> T) -> Timed<T> {
        let start = Instant::now();
        let value = f(&self.catalog);
        Timed::new(value, StoreTiming { compute: start.elapsed(), network: Duration::ZERO })
    }

    /// The one catalogue publish behind the trait's four publish methods
    /// (see [`StoreCatalog::publish`]), timed.
    fn published(
        &self,
        participant: ParticipantId,
        stamp: Option<&CausalStamp>,
        pinned: Option<Epoch>,
        transactions: Vec<Transaction>,
    ) -> Result<Timed<Epoch>> {
        let timed = self.timed(|cat| cat.publish(participant, stamp, pinned, transactions));
        let timing = timed.timing;
        timed.value.map(|epoch| Timed::new(epoch, timing))
    }
}

impl UpdateStore for CentralStore {
    fn register_participant(&self, policy: TrustPolicy) {
        self.catalog.register_policy(policy);
    }

    fn publish(
        &self,
        participant: ParticipantId,
        transactions: Vec<Transaction>,
    ) -> Result<Timed<Epoch>> {
        self.published(participant, None, None, transactions)
    }

    fn begin_reconciliation(&self, participant: ParticipantId) -> Result<Timed<SessionInfo>> {
        let timed = self.timed(|cat| cat.open_session(participant));
        let timing = timed.timing;
        timed.value.map(|opened| Timed::new(opened.info(), timing))
    }

    fn next_batch(
        &self,
        session: SessionId,
        max_candidates: usize,
    ) -> Result<Timed<Vec<CandidateTransaction>>> {
        let timed = self.timed(|cat| cat.batch(session, max_candidates));
        let timing = timed.timing;
        timed
            .value
            .map(|batch| Timed::new(batch.candidates.into_iter().map(|(c, _)| c).collect(), timing))
    }

    fn commit_reconciliation(
        &self,
        session: SessionId,
        accepted: &[TransactionId],
        rejected: &[TransactionId],
    ) -> Result<StoreTiming> {
        let timed = self.timed(|cat| cat.commit_session(session, accepted, rejected));
        timed.value.map(|_| timed.timing)
    }

    fn abort_reconciliation(&self, session: SessionId) -> Result<()> {
        self.catalog.abort_session(session);
        Ok(())
    }

    fn retire_participant(&self, participant: ParticipantId) -> Result<()> {
        self.catalog.retire_participant(participant)
    }

    fn record_decisions(
        &self,
        participant: ParticipantId,
        accepted: &[TransactionId],
        rejected: &[TransactionId],
    ) -> Result<StoreTiming> {
        let timed = self.timed(|cat| cat.record_decisions(participant, accepted, rejected));
        timed.value.map(|()| timed.timing)
    }

    fn current_reconciliation(&self, participant: ParticipantId) -> ReconciliationId {
        self.catalog.current_reconciliation(participant)
    }

    fn rejected_set(&self, participant: ParticipantId) -> Arc<FxHashSet<TransactionId>> {
        self.catalog.rejected_set(participant)
    }

    fn accepted_set(&self, participant: ParticipantId) -> Arc<FxHashSet<TransactionId>> {
        self.catalog.accepted_set(participant)
    }

    fn transaction(&self, id: TransactionId) -> Option<Arc<Transaction>> {
        self.catalog.transaction(id)
    }

    fn accepted_transactions(&self, participant: ParticipantId) -> Vec<Arc<Transaction>> {
        self.catalog.accepted_in_acceptance_order(participant)
    }

    fn epoch_of(&self, id: TransactionId) -> Option<Epoch> {
        self.catalog.epoch_of(id)
    }

    fn accepted_replay_units(&self, participant: ParticipantId) -> Vec<Vec<Arc<Transaction>>> {
        self.catalog.accepted_replay_units(participant)
    }

    fn epoch_cursor(&self, participant: ParticipantId) -> Epoch {
        self.catalog.epoch_cursor(participant)
    }

    fn undecided_candidates(&self, participant: ParticipantId) -> Vec<CandidateTransaction> {
        self.catalog.undecided_candidates(participant)
    }

    fn causal_mode(&self) -> bool {
        self.catalog.causal_mode()
    }

    fn enable_causal_mode(&self) -> Result<()> {
        self.catalog.enable_causal_mode()
    }

    fn causal_frontier(&self) -> orchestra_model::AntichainClock {
        self.catalog.causal_frontier()
    }

    fn next_publisher_seq(&self, participant: ParticipantId) -> u64 {
        self.catalog.next_publisher_seq(participant)
    }

    fn publish_stamped(
        &self,
        stamp: CausalStamp,
        transactions: Vec<Transaction>,
    ) -> Result<Timed<Epoch>> {
        self.published(stamp.publisher, Some(&stamp), None, transactions)
    }

    fn publish_replica(
        &self,
        participant: ParticipantId,
        epoch: Epoch,
        transactions: Vec<Transaction>,
    ) -> Result<Timed<Epoch>> {
        self.published(participant, None, Some(epoch), transactions)
    }

    fn publish_replica_stamped(
        &self,
        stamp: CausalStamp,
        epoch: Epoch,
        transactions: Vec<Transaction>,
    ) -> Result<Timed<Epoch>> {
        self.published(stamp.publisher, Some(&stamp), Some(epoch), transactions)
    }

    fn record_instance_checkpoint(
        &self,
        participant: ParticipantId,
        checkpoint: orchestra_storage::InstanceCheckpoint,
    ) -> Result<()> {
        self.catalog.record_instance_checkpoint(participant, checkpoint)
    }

    fn instance_checkpoint(
        &self,
        participant: ParticipantId,
    ) -> Option<orchestra_storage::InstanceCheckpoint> {
        self.catalog.instance_checkpoint(participant)
    }

    fn accepted_replay_units_after(
        &self,
        participant: ParticipantId,
        skip: u64,
    ) -> Vec<Vec<Arc<Transaction>>> {
        self.catalog.accepted_replay_units_after(participant, skip)
    }

    fn snapshot(&self) -> Result<u64> {
        self.catalog.snapshot()
    }

    fn prune_to_horizon(&self) -> Result<orchestra_storage::PruneReport> {
        self.catalog.prune_to_horizon()
    }

    fn restart(&self) -> Result<Self> {
        Ok(CentralStore { catalog: self.catalog.restart()? })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::drained;
    use orchestra_model::schema::bioinformatics_schema;
    use orchestra_model::{Priority, Tuple, Update};

    fn p(i: u32) -> ParticipantId {
        ParticipantId(i)
    }

    fn func(org: &str, prot: &str, f: &str) -> Tuple {
        Tuple::of_text(&[org, prot, f])
    }

    fn txn(i: u32, j: u64, updates: Vec<Update>) -> Transaction {
        Transaction::from_parts(p(i), j, updates).unwrap()
    }

    fn store() -> CentralStore {
        let s = CentralStore::new(bioinformatics_schema());
        s.register_participant(TrustPolicy::new(p(1)).trusting(p(2), 1u32).trusting(p(3), 1u32));
        s.register_participant(TrustPolicy::new(p(2)).trusting(p(1), 2u32).trusting(p(3), 1u32));
        s.register_participant(TrustPolicy::new(p(3)).trusting(p(2), 1u32));
        s
    }

    #[test]
    fn publish_then_reconcile_returns_trusted_candidates() {
        let s = store();
        let x3 = txn(3, 0, vec![Update::insert("Function", func("rat", "prot1", "a"), p(3))]);
        let x1 = txn(1, 0, vec![Update::insert("Function", func("dog", "prot9", "z"), p(1))]);
        s.publish(p(3), vec![x3.clone()]).unwrap();
        s.publish(p(1), vec![x1.clone()]).unwrap();

        // p3 trusts only p2, so x1 is filtered out store-side and nothing is
        // relevant.
        let (info, candidates) = drained(&s, p(3), 16).value;
        assert_eq!(info.recno, ReconciliationId(1));
        assert_eq!(info.epoch, Epoch(2));
        assert!(candidates.is_empty());
        s.commit_reconciliation(info.session, &[], &[]).unwrap();

        // p2 trusts both p1 and p3.
        let (info, candidates) = drained(&s, p(2), 16).value;
        assert_eq!(candidates.len(), 2);
        let prios: Vec<Priority> = candidates.iter().map(|c| c.priority).collect();
        assert!(prios.contains(&Priority(1)));
        assert!(prios.contains(&Priority(2)));
        s.abort_reconciliation(info.session).unwrap();
    }

    #[test]
    fn repeated_reconciliations_do_not_replay_transactions() {
        let s = store();
        let x3 = txn(3, 0, vec![Update::insert("Function", func("rat", "prot1", "a"), p(3))]);
        s.publish(p(3), vec![x3.clone()]).unwrap();
        let (info, candidates) = drained(&s, p(2), 16).value;
        assert_eq!(candidates.len(), 1);
        s.commit_reconciliation(info.session, &[x3.id()], &[]).unwrap();

        // Nothing new published: the second reconciliation sees nothing.
        let (info, candidates) = drained(&s, p(2), 16).value;
        assert_eq!(info.recno, ReconciliationId(2));
        assert!(candidates.is_empty());
        s.commit_reconciliation(info.session, &[], &[]).unwrap();
        assert_eq!(s.current_reconciliation(p(2)), ReconciliationId(2));
    }

    #[test]
    fn decisions_are_durable_in_the_store() {
        let s = store();
        let x3 = txn(3, 0, vec![Update::insert("Function", func("rat", "prot1", "a"), p(3))]);
        s.publish(p(3), vec![x3.clone()]).unwrap();
        let session = s.begin_reconciliation(p(1)).unwrap().value.session;
        s.commit_reconciliation(session, &[], &[x3.id()]).unwrap();
        assert!(s.rejected_set(p(1)).contains(&x3.id()));
        assert!(s.accepted_set(p(3)).contains(&x3.id()));
        assert_eq!(s.transaction(x3.id()).unwrap().as_ref(), &x3);
        assert!(s.transaction(TransactionId::new(p(9), 9)).is_none());
    }

    #[test]
    fn per_call_timing_is_returned_not_accumulated() {
        let s = store();
        let x3 = txn(3, 0, vec![Update::insert("Function", func("rat", "prot1", "a"), p(3))]);
        let published = s.publish(p(3), vec![x3]).unwrap();
        assert!(published.timing.network.is_zero());
        let opened = s.begin_reconciliation(p(2)).unwrap();
        assert!(opened.timing.network.is_zero());
        // Each call reports only its own cost; there is no store-side
        // accumulator left to reset.
        let batch = s.next_batch(opened.value.session, 8).unwrap();
        assert_eq!(batch.value.len(), 1);
        s.abort_reconciliation(opened.value.session).unwrap();
    }

    #[test]
    fn antecedent_chain_is_delivered_with_the_candidate() {
        let s = store();
        let x0 = txn(3, 0, vec![Update::insert("Function", func("rat", "prot1", "v1"), p(3))]);
        let x1 = txn(
            2,
            0,
            vec![Update::modify(
                "Function",
                func("rat", "prot1", "v1"),
                func("rat", "prot1", "v2"),
                p(2),
            )],
        );
        s.publish(p(3), vec![x0.clone()]).unwrap();
        s.publish(p(2), vec![x1.clone()]).unwrap();
        let (info, candidates) = drained(&s, p(1), 16).value;
        s.abort_reconciliation(info.session).unwrap();
        let cand_x1 = candidates.iter().find(|c| c.id == x1.id()).unwrap();
        assert_eq!(cand_x1.members.len(), 2);
    }
}
