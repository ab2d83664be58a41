//! The distributed, DHT-based update store (Section 5.2.2).
//!
//! State and computation are spread over the network of peers: one node (the
//! owner of a predesignated key) is the *epoch allocator*; the owner of the
//! hash of an epoch number is that epoch's *epoch controller*; the owner of
//! the hash of a transaction id is its *transaction controller*. Publication
//! follows the message sequence of the paper's Figure 6, and retrieval of the
//! transactions needed by a reconciliation follows Figure 7, with antecedent
//! chains requested one transaction at a time.
//!
//! The store's logical contents are identical to the centralised store (the
//! shared, sharded [`StoreCatalog`]); what differs is the cost model: every
//! protocol message is charged through the simulated network, which adds the
//! configured per-message latency (500 µs by default, as in the paper's
//! setup) and counts messages. Under the session API the Figure 7 message
//! pattern is charged as the session streams: the allocator, epoch-controller
//! and coordinator round trips at [`UpdateStore::begin_reconciliation`] —
//! together with one request/notification round trip per published
//! transaction the participant's policy does not trust, which is where the
//! peer learns that nothing will travel for it — and the per-candidate and
//! per-antecedent requests with each [`UpdateStore::next_batch`] page. The
//! totals are identical to the old single-shot retrieval.
//!
//! The simulated network is a virtual-time model behind one `Mutex`: message
//! charging is serialised (and each call's latency is attributed exactly to
//! that call), while the logical catalogue work still proceeds in parallel
//! across participant shards.

use crate::api::{SessionId, SessionInfo, StoreTiming, Timed, UpdateStore};
use crate::catalog::StoreCatalog;
use orchestra_model::{
    CausalStamp, Epoch, ParticipantId, ReconciliationId, Schema, Transaction, TransactionId,
    TrustPolicy,
};
use orchestra_net::{NetworkStats, NodeId, SimNetwork};
use orchestra_recon::CandidateTransaction;
use orchestra_storage::Result;
use rustc_hash::FxHashSet;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Approximate request size in bytes (ids and headers).
pub(crate) const REQUEST_BYTES: u64 = 64;
/// Approximate per-update payload size in bytes.
pub(crate) const UPDATE_BYTES: u64 = 128;

/// Distributed update store over the simulated Pastry-style overlay.
#[derive(Debug)]
pub struct DhtStore {
    catalog: StoreCatalog,
    network: Mutex<SimNetwork>,
    allocator_key: NodeId,
}

impl DhtStore {
    /// Creates an empty DHT store with the paper's 500 µs per-message
    /// latency.
    pub fn new(schema: Schema) -> Self {
        DhtStore::with_latency(schema, Duration::from_micros(SimNetwork::PAPER_LATENCY_US))
    }

    /// Creates an empty DHT store with a custom per-message latency.
    pub fn with_latency(schema: Schema, latency: Duration) -> Self {
        DhtStore {
            catalog: StoreCatalog::new(schema),
            network: Mutex::new(SimNetwork::with_latency(Vec::new(), latency)),
            allocator_key: NodeId::hash_str("orchestra/epoch-allocator"),
        }
    }

    /// Creates an empty DHT store over an explicit durability backend (see
    /// [`crate::Durability`]), with the paper's default latency. In a real
    /// deployment each controller would persist its own slice; the simulated
    /// store persists the shared catalogue, which holds the same logical
    /// contents.
    pub fn with_durability(schema: Schema, durability: crate::Durability) -> Self {
        DhtStore {
            catalog: StoreCatalog::with_durability(schema, durability),
            network: Mutex::new(SimNetwork::with_latency(
                Vec::new(),
                Duration::from_micros(SimNetwork::PAPER_LATENCY_US),
            )),
            allocator_key: NodeId::hash_str("orchestra/epoch-allocator"),
        }
    }

    /// Creates an empty DHT store whose state is made durable in `dir`
    /// through the file-backed write-ahead log. Refuses to clobber an
    /// existing durable store; a crash reopens it ([`UpdateStore::restart`]).
    pub fn durable(schema: Schema, dir: &std::path::Path) -> Result<Self> {
        let backend = crate::FileWalBackend::create(dir, &schema)?;
        Ok(DhtStore::with_durability(schema, crate::Durability::FileWal(backend)))
    }

    /// The underlying catalogue (for inspection in tests and tools).
    pub fn catalog(&self) -> &StoreCatalog {
        &self.catalog
    }

    /// Sets the retention policy. The DHT store shares the catalogue's
    /// retention machinery: epoch controllers drop their pruned epochs'
    /// state, transaction controllers their pruned transactions'.
    pub fn set_retention(&self, policy: orchestra_storage::RetentionPolicy) {
        self.catalog.set_retention(policy);
    }

    /// The retention policy in force.
    pub fn retention(&self) -> orchestra_storage::RetentionPolicy {
        self.catalog.retention()
    }

    /// Cumulative network statistics (messages, hops, bytes, latency).
    pub fn network_stats(&self) -> NetworkStats {
        self.network.lock().expect("network lock").stats()
    }

    /// The overlay node of a participant (public for the network-centric
    /// driver and for tests).
    pub fn peer_node(&self, participant: ParticipantId) -> NodeId {
        NodeId::hash_str(&format!("participant-{}", participant.as_u32()))
    }

    pub(crate) fn epoch_key(epoch: Epoch) -> NodeId {
        NodeId::hash_str(&format!("epoch/{}", epoch.as_u64()))
    }

    pub(crate) fn txn_key(id: TransactionId) -> NodeId {
        NodeId::hash_str(&format!("txn/{}/{}", id.participant.as_u32(), id.local))
    }

    fn peer_coordinator_key(participant: ParticipantId) -> NodeId {
        NodeId::hash_str(&format!("coordinator/{}", participant.as_u32()))
    }

    fn txn_bytes(txn: &Transaction) -> u64 {
        REQUEST_BYTES + UPDATE_BYTES * txn.len() as u64
    }

    /// The one publish behind [`UpdateStore::publish`] and
    /// [`UpdateStore::publish_stamped`]: the logical publication (epoch
    /// allocation + log append) happens first so that every Figure 6 message
    /// is charged against the *actually allocated* epoch.
    fn publish_charged(
        &self,
        participant: ParticipantId,
        stamp: Option<&CausalStamp>,
        transactions: Vec<Transaction>,
    ) -> Result<Timed<Epoch>> {
        let peer = self.peer_node(participant);
        let start = Instant::now();
        let txn_refs: Vec<(TransactionId, u64)> =
            transactions.iter().map(|t| (t.id(), DhtStore::txn_bytes(t))).collect();
        let epoch = self.catalog.publish(participant, stamp, None, transactions)?;
        let compute = start.elapsed();

        let ((), network) = self.charged(|net| {
            // Figure 6, messages 1-4: epoch allocation round trip, with the
            // allocator informing the epoch controller of the allocated
            // epoch. A causal publish skips it: its stamp was allocated
            // client-side.
            if stamp.is_none() {
                let allocator =
                    net.send_to_key(peer, self.allocator_key, REQUEST_BYTES).unwrap_or(peer);
                let epoch_controller = net
                    .send_to_key(allocator, DhtStore::epoch_key(epoch), REQUEST_BYTES)
                    .unwrap_or(allocator);
                net.send_direct(epoch_controller, allocator, REQUEST_BYTES);
                net.send_direct(allocator, peer, REQUEST_BYTES);
            }

            // Figure 6, message 5: publish the transaction IDs at the epoch
            // controller; message 6: confirmation.
            let id_bytes = REQUEST_BYTES + 16 * txn_refs.len() as u64;
            let controller =
                net.send_to_key(peer, DhtStore::epoch_key(epoch), id_bytes).unwrap_or(peer);
            net.send_direct(controller, peer, REQUEST_BYTES);

            // The peer then sends each transaction to its transaction
            // controller.
            for (id, bytes) in &txn_refs {
                net.send_to_key(peer, DhtStore::txn_key(*id), *bytes);
            }
        });
        Ok(Timed::new(epoch, StoreTiming { compute, network }))
    }

    /// Runs a message-charging block under the network lock, returning the
    /// closure's value and the virtual latency charged by *this* block alone
    /// (exact even under concurrent callers, because the lock is held for
    /// the whole block).
    pub(crate) fn charged<T>(&self, f: impl FnOnce(&mut SimNetwork) -> T) -> (T, Duration) {
        let mut net: MutexGuard<'_, SimNetwork> = self.network.lock().expect("network lock");
        let before = net.stats().latency_us;
        let out = f(&mut net);
        let after = net.stats().latency_us;
        (out, Duration::from_micros(after - before))
    }
}

impl Clone for DhtStore {
    /// Deep-copies the durable store state; open sessions are not cloned.
    fn clone(&self) -> Self {
        DhtStore {
            catalog: self.catalog.clone(),
            network: Mutex::new(self.network.lock().expect("network lock").clone()),
            allocator_key: self.allocator_key,
        }
    }
}

impl UpdateStore for DhtStore {
    fn register_participant(&self, policy: TrustPolicy) {
        let participant = policy.owner();
        let node = self.peer_node(participant);
        self.network.lock().expect("network lock").join(node);
        // Trust conditions are distributed to the transaction controllers;
        // registering them is an out-of-band setup step and is not charged to
        // reconciliation time.
        self.catalog.register_policy(policy);
    }

    fn publish(
        &self,
        participant: ParticipantId,
        transactions: Vec<Transaction>,
    ) -> Result<Timed<Epoch>> {
        self.publish_charged(participant, None, transactions)
    }

    fn begin_reconciliation(&self, participant: ParticipantId) -> Result<Timed<SessionInfo>> {
        let peer = self.peer_node(participant);
        let start = Instant::now();
        let opened = self.catalog.open_session(participant)?;
        // Figure 7 asks every transaction controller of the new epochs; the
        // catalogue's relevance index holds only what the participant
        // trusts, so the ones that answer "not for you" are derived here.
        let untrusted =
            self.catalog.untrusted_undecided(participant, opened.previous, opened.epoch);
        let compute = start.elapsed();

        let ((), network) = self.charged(|net| {
            // Ask the epoch allocator for the most recent epoch.
            net.round_trip(peer, self.allocator_key, REQUEST_BYTES, REQUEST_BYTES);
            // Request the contents of every epoch since the previous
            // reconciliation from its epoch controller.
            for e in (opened.previous.as_u64() + 1)..=opened.epoch.as_u64() {
                net.round_trip(peer, DhtStore::epoch_key(Epoch(e)), REQUEST_BYTES, REQUEST_BYTES);
            }
            // A request/notification round trip for every untrusted
            // transaction: no payload travels, but the controller is asked.
            for id in &untrusted {
                net.round_trip(peer, DhtStore::txn_key(*id), REQUEST_BYTES, REQUEST_BYTES);
            }
            // Record the reconciliation epoch at the peer coordinator.
            net.round_trip(
                peer,
                DhtStore::peer_coordinator_key(participant),
                REQUEST_BYTES,
                REQUEST_BYTES,
            );
        });
        Ok(Timed::new(opened.info(), StoreTiming { compute, network }))
    }

    fn next_batch(
        &self,
        session: SessionId,
        max_candidates: usize,
    ) -> Result<Timed<Vec<CandidateTransaction>>> {
        let start = Instant::now();
        let batch = self.catalog.batch(session, max_candidates)?;
        let compute = start.elapsed();
        let peer = self.peer_node(batch.participant);

        // Charge the Figure 7 per-transaction traffic for this page: a
        // request/payload round trip for every candidate and one round trip
        // per fetched antecedent.
        let ((), network) = self.charged(|net| {
            for (cand, fetched) in &batch.candidates {
                let root_bytes = cand
                    .members
                    .last()
                    .map(|(_, updates)| REQUEST_BYTES + UPDATE_BYTES * updates.len() as u64)
                    .unwrap_or(REQUEST_BYTES);
                net.round_trip(peer, DhtStore::txn_key(cand.id), REQUEST_BYTES, root_bytes);
                for (member_id, member_updates) in cand.members.iter().take(*fetched) {
                    let bytes = REQUEST_BYTES + UPDATE_BYTES * member_updates.len() as u64;
                    net.round_trip(peer, DhtStore::txn_key(*member_id), REQUEST_BYTES, bytes);
                }
            }
        });
        let candidates = batch.candidates.into_iter().map(|(c, _)| c).collect();
        Ok(Timed::new(candidates, StoreTiming { compute, network }))
    }

    fn commit_reconciliation(
        &self,
        session: SessionId,
        accepted: &[TransactionId],
        rejected: &[TransactionId],
    ) -> Result<StoreTiming> {
        let start = Instant::now();
        let (participant, _recno, _epoch) =
            self.catalog.commit_session(session, accepted, rejected)?;
        let compute = start.elapsed();
        let peer = self.peer_node(participant);
        let ((), network) = self.charged(|net| {
            // Notify each transaction controller of the decision.
            for id in accepted.iter().chain(rejected.iter()) {
                net.send_to_key(peer, DhtStore::txn_key(*id), REQUEST_BYTES);
            }
        });
        Ok(StoreTiming { compute, network })
    }

    fn abort_reconciliation(&self, session: SessionId) -> Result<()> {
        self.catalog.abort_session(session);
        Ok(())
    }

    fn retire_participant(&self, participant: ParticipantId) -> Result<()> {
        // Like registration, retirement is an out-of-band membership step and
        // is not charged to the reconciliation cost model.
        self.catalog.retire_participant(participant)
    }

    fn record_decisions(
        &self,
        participant: ParticipantId,
        accepted: &[TransactionId],
        rejected: &[TransactionId],
    ) -> Result<StoreTiming> {
        let peer = self.peer_node(participant);
        let start = Instant::now();
        self.catalog.record_decisions(participant, accepted, rejected)?;
        let compute = start.elapsed();
        let ((), network) = self.charged(|net| {
            for id in accepted.iter().chain(rejected.iter()) {
                net.send_to_key(peer, DhtStore::txn_key(*id), REQUEST_BYTES);
            }
        });
        Ok(StoreTiming { compute, network })
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
        self.publish_charged(stamp.publisher, Some(&stamp), transactions)
    }

    fn snapshot(&self) -> Result<u64> {
        self.catalog.snapshot()
    }

    /// Not charged to the cost model: in a real deployment each controller
    /// prunes its own slice locally.
    fn prune_to_horizon(&self) -> Result<orchestra_storage::PruneReport> {
        self.catalog.prune_to_horizon()
    }

    /// The overlay is the peers, not the store's state: it carries over with
    /// its message statistics.
    fn restart(&self) -> Result<Self> {
        Ok(DhtStore {
            catalog: self.catalog.restart()?,
            network: Mutex::new(self.network.lock().expect("network lock").clone()),
            allocator_key: self.allocator_key,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::drained;
    use orchestra_model::schema::bioinformatics_schema;
    use orchestra_model::{Tuple, Update};

    fn p(i: u32) -> ParticipantId {
        ParticipantId(i)
    }

    fn func(org: &str, prot: &str, f: &str) -> Tuple {
        Tuple::of_text(&[org, prot, f])
    }

    fn txn(i: u32, j: u64, updates: Vec<Update>) -> Transaction {
        Transaction::from_parts(p(i), j, updates).unwrap()
    }

    fn store(n: u32) -> DhtStore {
        let s = DhtStore::new(bioinformatics_schema());
        for i in 1..=n {
            let mut policy = TrustPolicy::new(p(i));
            for j in 1..=n {
                if i != j {
                    policy = policy.trusting(p(j), 1u32);
                }
            }
            s.register_participant(policy);
        }
        s
    }

    #[test]
    fn registration_joins_peers_to_the_overlay() {
        let s = store(5);
        assert_eq!(s.catalog().participants().len(), 5);
    }

    #[test]
    fn publish_charges_protocol_messages() {
        let s = store(5);
        let x = txn(3, 0, vec![Update::insert("Function", func("rat", "prot1", "a"), p(3))]);
        let before = s.network_stats().messages;
        let published = s.publish(p(3), vec![x]).unwrap();
        assert_eq!(published.value, Epoch(1));
        let after = s.network_stats().messages;
        // At least the six messages of Figure 6 plus one per transaction.
        assert!(after - before >= 7, "only {} messages charged", after - before);
        assert!(published.timing.network > Duration::ZERO);
    }

    #[test]
    fn publish_charges_the_allocated_epoch_with_a_stable_pattern() {
        // Regression guard for the epoch-preview bug: the Figure 6 controller
        // messages are charged only after the catalogue has allocated the
        // epoch, so they are always keyed by the epoch actually assigned.
        let s = store(4);
        let mut per_publish = Vec::new();
        for i in 0..3u64 {
            let x = txn(
                2,
                i,
                vec![Update::insert("Function", func("rat", &format!("p{i}"), "v"), p(2))],
            );
            let before = s.network_stats().messages;
            let published = s.publish(p(2), vec![x]).unwrap();
            assert_eq!(published.value, Epoch(i + 1), "epochs must be allocated sequentially");
            per_publish.push(s.network_stats().messages - before);
        }
        for &m in &per_publish {
            assert!(m >= 7, "a publish charged only {m} messages");
        }
    }

    #[test]
    fn reconciliation_charges_per_transaction_and_antecedent_requests() {
        let s = store(5);
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
        let stats_before = s.network_stats().messages;

        let Timed { value: (info, candidates), timing } = drained(&s, p(1), 16);
        assert_eq!(candidates.len(), 2);
        let cand_x1 = candidates.iter().find(|c| c.id == x1.id()).unwrap();
        assert_eq!(cand_x1.members.len(), 2);

        let stats_after = s.network_stats().messages;
        // Allocator round trip (2) + 2 epoch controllers (4) + coordinator
        // (2) + 2 transaction requests (4) + 1 antecedent request (2) = 14
        // minimum.
        assert!(
            stats_after - stats_before >= 14,
            "only {} messages charged",
            stats_after - stats_before
        );
        assert!(timing.network >= Duration::from_micros(14 * 500));
        s.abort_reconciliation(info.session).unwrap();
    }

    #[test]
    fn paging_splits_but_preserves_the_message_pattern() {
        // The same published state drained in one page versus many: the
        // candidate stream and the total message count are identical.
        let build = || {
            let s = store(5);
            for i in 2..=5u32 {
                let t = txn(
                    i,
                    0,
                    vec![Update::insert("Function", func("rat", &format!("prot{i}"), "v"), p(i))],
                );
                s.publish(p(i), vec![t]).unwrap();
            }
            s
        };

        let one_page = build();
        let before = one_page.network_stats().messages;
        let (info, all) = drained(&one_page, p(1), 100).value;
        one_page.abort_reconciliation(info.session).unwrap();
        let one_page_messages = one_page.network_stats().messages - before;

        let paged = build();
        let before = paged.network_stats().messages;
        let (info, pages) = drained(&paged, p(1), 1).value;
        paged.abort_reconciliation(info.session).unwrap();
        let paged_messages = paged.network_stats().messages - before;

        assert_eq!(
            all.iter().map(|c| c.id).collect::<Vec<_>>(),
            pages.iter().map(|c| c.id).collect::<Vec<_>>()
        );
        assert_eq!(one_page_messages, paged_messages);
    }

    #[test]
    fn untrusted_transactions_still_cost_a_notification() {
        let s = DhtStore::new(bioinformatics_schema());
        // p1 trusts nobody; p2 publishes something.
        s.register_participant(TrustPolicy::new(p(1)));
        s.register_participant(TrustPolicy::new(p(2)).trusting(p(1), 1u32));
        let x = txn(2, 0, vec![Update::insert("Function", func("rat", "prot1", "a"), p(2))]);
        s.publish(p(2), vec![x]).unwrap();
        let before = s.network_stats().messages;
        let (info, candidates) = drained(&s, p(1), 16).value;
        assert!(candidates.is_empty());
        s.abort_reconciliation(info.session).unwrap();
        assert!(s.network_stats().messages > before);
    }

    /// One small session of p1 over four published epochs: one transaction
    /// it trusts, two it does not, one it has already decided. Returns the
    /// messages the session charged, drained `page` candidates at a time.
    fn mixed_session_messages(page: usize) -> u64 {
        let s = DhtStore::new(bioinformatics_schema());
        s.register_participant(TrustPolicy::new(p(1)).trusting(p(2), 1u32).trusting(p(5), 1u32));
        for i in 2..=5 {
            s.register_participant(TrustPolicy::new(p(i)).trusting(p(1), 1u32));
        }
        let mut ids = Vec::new();
        for i in 2..=5u32 {
            let t = txn(
                i,
                0,
                vec![Update::insert("Function", func("rat", &format!("prot{i}"), "v"), p(i))],
            );
            ids.push(t.id());
            s.publish(p(i), vec![t]).unwrap();
        }
        // p5's transaction is trusted but already decided.
        s.record_decisions(p(1), &[], &[ids[3]]).unwrap();
        let before = s.network_stats().messages;
        let (info, candidates) = drained(&s, p(1), page).value;
        assert_eq!(candidates.iter().map(|c| c.id).collect::<Vec<_>>(), vec![ids[0]]);
        s.abort_reconciliation(info.session).unwrap();
        s.network_stats().messages - before
    }

    #[test]
    fn untrusted_notifications_are_charged_exactly() {
        // Allocator round trip (2) + 4 epoch controllers (8) + coordinator
        // (2) + 1 trusted request/payload (2) + 2 untrusted
        // request/notification round trips (4); the decided entry costs
        // nothing. Charging the untrusted ones at begin or page by page (as
        // the catalogue's stored untrusted entries once did) totals the same.
        assert_eq!(mixed_session_messages(16), 18);
        assert_eq!(mixed_session_messages(1), 18);
    }

    #[test]
    fn decisions_are_recorded_and_charged() {
        let s = store(3);
        let x = txn(3, 0, vec![Update::insert("Function", func("rat", "prot1", "a"), p(3))]);
        s.publish(p(3), vec![x.clone()]).unwrap();
        let session = s.begin_reconciliation(p(1)).unwrap().value.session;
        let before = s.network_stats().messages;
        s.commit_reconciliation(session, &[x.id()], &[]).unwrap();
        assert!(s.network_stats().messages > before);
        assert!(s.accepted_set(p(1)).contains(&x.id()));
        assert_eq!(s.current_reconciliation(p(1)), ReconciliationId(1));
        assert_eq!(s.transaction(x.id()).unwrap().as_ref(), &x);
    }

    #[test]
    fn custom_latency_scales_network_time() {
        let run = |latency| {
            let s = DhtStore::with_latency(bioinformatics_schema(), latency);
            s.register_participant(TrustPolicy::new(p(1)).trusting(p(2), 1u32));
            s.register_participant(TrustPolicy::new(p(2)).trusting(p(1), 1u32));
            let x = txn(2, 0, vec![Update::insert("Function", func("rat", "prot1", "a"), p(2))]);
            let mut timing = s.publish(p(2), vec![x]).unwrap().timing;
            let session = drained(&s, p(1), 16);
            timing.accumulate(session.timing);
            s.abort_reconciliation(session.value.0.session).unwrap();
            timing.network
        };
        assert!(run(Duration::from_millis(5)) > run(Duration::from_micros(10)));
    }
}
