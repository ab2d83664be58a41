//! The sharded store fabric: one confederation served by N store shards.
//!
//! A single [`StoreService`](crate::StoreService) bounds a confederation by
//! one store's worker pool. The fabric splits the load across `N`
//! [`CentralStore`] shards while keeping the paper's *decision semantics*
//! exactly those of one store:
//!
//! * **The publication log is replicated; the relevance index is
//!   partitioned.** Every publish lands on every shard in the same order
//!   (primary publish at the publisher's home shard, pinned *replica*
//!   publishes everywhere else via
//!   [`UpdateStore::publish_replica`]), so all shards agree on the global
//!   epoch numbering. Only the home shard extends its relevance index for
//!   the new epoch, so each epoch's candidates are served by exactly one
//!   shard.
//! * **A fabric session is N shard sessions merged into one virtual
//!   timeline.** [`FabricClient`] opens a session at every shard (in shard
//!   order, so concurrent sessions cannot deadlock on admission slots),
//!   drains each shard's stream and k-way merges by `(epoch, shard)` —
//!   epochs are globally unique, so the merge reproduces the exact
//!   candidate order a single store would have streamed.
//! * **Commits fan the full decision lists to every shard.** Each shard
//!   records the complete accepted/rejected sets, keeping every shard's
//!   decision record, epoch cursors and reconciliation numbers identical —
//!   required, because a shard's antecedent exclusion must see accepts that
//!   happened on candidates homed elsewhere.
//!
//! The fabric therefore decides *byte-identically* to a single store (the
//! `fabric_driver` integration tests prove it property-based), while
//! publishes and candidate streaming spread across N worker pools.
//!
//! The fan-out logic — ordered begin with rollback, the `(epoch, shard)`
//! merge, commit and abort fan-out, primary-then-replica publish — lives in
//! [`FabricClient`] only, generic over its per-shard [`ShardClient`]: the
//! framed fabric driver runs it over one
//! [`ServiceClient`](crate::ServiceClient) per shard, and [`StoreFabric`]'s
//! own [`UpdateStore`] session and publish methods run it over one
//! [`InProcessClient`] per shard store.
//!
//! Routing is pluggable through [`ShardRouter`]; [`FabricConfig`] bundles
//! the shard count with the per-shard [`ServiceConfig`].

use crate::api::{SessionId, SessionInfo, StoreTiming, Timed, UpdateStore};
use crate::central::CentralStore;
use crate::client::{poll_ready, InProcessClient, SessionClient, ShardClient};
use crate::service::ServiceConfig;
use orchestra_model::schema::Schema;
use orchestra_model::{
    AntichainClock, CausalStamp, Epoch, ParticipantId, ReconciliationId, Transaction,
    TransactionId, TrustPolicy,
};
use orchestra_obs::Tracer;
use orchestra_recon::CandidateTransaction;
use orchestra_storage::{InstanceCheckpoint, Result, StorageError};
use rustc_hash::{FxHashMap, FxHashSet};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Maps participants to their home shard.
///
/// The home shard is where a participant's publishes are *primary* (relevance
/// extension happens there) and where its per-participant reads resolve. The
/// routing must be deterministic and agreed by every client — it is pure
/// arithmetic over the participant id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRouter {
    shards: usize,
}

impl ShardRouter {
    /// A router over `shards` shards. Panics if `shards` is zero.
    pub fn new(shards: usize) -> ShardRouter {
        assert!(shards >= 1, "a store fabric needs at least one shard");
        ShardRouter { shards }
    }

    /// The number of shards routed over.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The home shard of `participant`.
    pub fn home_of(&self, participant: ParticipantId) -> usize {
        participant.as_u32() as usize % self.shards
    }
}

/// Configuration of a store fabric: how many shards, and how each shard's
/// service is tuned.
#[derive(Debug, Clone)]
pub struct FabricConfig {
    /// Number of store shards.
    pub shards: usize,
    /// The per-shard service configuration (every shard uses the same).
    pub service: ServiceConfig,
}

impl Default for FabricConfig {
    fn default() -> FabricConfig {
        FabricConfig { shards: 4, service: ServiceConfig::default() }
    }
}

impl FabricConfig {
    /// The router induced by this config's shard count.
    pub fn router(&self) -> ShardRouter {
        ShardRouter::new(self.shards)
    }
}

/// N [`CentralStore`] shards owned as one confederation store.
///
/// The fabric keeps the shards' logs identical (replicated log) and their
/// relevance indexes disjoint (partitioned by home shard) — see the
/// [module docs](crate::fabric). Shard stores are exposed through
/// [`StoreFabric::shard_stores`] so a driver can front each with its own
/// [`StoreService`](crate::StoreService).
///
/// # Registration order
///
/// Every participant must be registered **before the first publish**. A late
/// registration would rebuild the participant's relevance from each shard's
/// *full replicated log*, duplicating candidates that are supposed to be
/// homed at exactly one shard. [`StoreFabric::register_participant`] panics
/// if a publish has already happened.
pub struct StoreFabric {
    router: ShardRouter,
    shards: Vec<CentralStore>,
    /// Held across the primary + replica fan-out of one publish so every
    /// shard's log receives all publishes in the same global order.
    publish_lock: Mutex<()>,
    published: AtomicBool,
    /// Open fabric-level sessions: synthetic handle → per-shard state.
    /// Synthetic because two shards can hand out the same raw session
    /// number; shard handles are only unique per shard.
    sessions: Mutex<FxHashMap<SessionId, FabricSession>>,
    next_session: AtomicU64,
}

/// Per-shard state of one in-process fabric session.
struct FabricSession {
    participant: ParticipantId,
    /// The shard session handles, in shard order.
    shards: Vec<SessionId>,
    /// The merged candidate stream, buffered on the first `next_batch` (each
    /// shard streams only the epochs homed there; the merge restores global
    /// publication order).
    merged: Option<VecDeque<CandidateTransaction>>,
}

impl StoreFabric {
    /// A fabric of `shards` empty stores over `schema`.
    pub fn new(schema: Schema, shards: usize) -> StoreFabric {
        let router = ShardRouter::new(shards);
        let shards = (0..shards).map(|_| CentralStore::new(schema.clone())).collect();
        StoreFabric {
            router,
            shards,
            publish_lock: Mutex::new(()),
            published: AtomicBool::new(false),
            sessions: Mutex::new(FxHashMap::default()),
            next_session: AtomicU64::new(0),
        }
    }

    /// The fabric's router.
    pub fn router(&self) -> ShardRouter {
        self.router
    }

    /// The shard stores, in shard order.
    pub fn shard_stores(&self) -> &[CentralStore] {
        &self.shards
    }

    /// Shard `index`'s store.
    pub fn shard(&self, index: usize) -> &CentralStore {
        &self.shards[index]
    }

    /// The home shard store of `participant`.
    pub fn home_store(&self, participant: ParticipantId) -> &CentralStore {
        &self.shards[self.router.home_of(participant)]
    }

    /// Closes membership at every shard (see `StoreCatalog::close_membership`).
    pub fn close_membership(&self) -> Result<()> {
        for store in &self.shards {
            store.catalog().close_membership()?;
        }
        Ok(())
    }

    /// `participant`'s fabric client over the shard stores themselves, built
    /// per call: every [`UpdateStore`] session and publish method below is
    /// [`poll_ready`] over the same [`FabricClient`] code the framed driver
    /// awaits. The session table stays on the fabric (behind a `Mutex`, so
    /// the fabric remains `Sync` for the threads driver); a call on an open
    /// session seeds the client's own table with that session's handles.
    fn client(
        &self,
        participant: ParticipantId,
        open: Option<(SessionId, &FabricSession)>,
    ) -> FabricClient<InProcessClient<'_, CentralStore>> {
        let clients =
            self.shards.iter().map(|store| InProcessClient::new(store, participant)).collect();
        let client = FabricClient::new(self.router, clients, Tracer::disabled());
        if let Some((session, state)) = open {
            client.sessions.borrow_mut().insert(session, state.shards.clone());
        }
        client
    }

    fn sessions(&self) -> std::sync::MutexGuard<'_, FxHashMap<SessionId, FabricSession>> {
        self.sessions.lock().expect("fabric session table poisoned")
    }

    /// A publish (stamped in causal mode) under the fabric's publish lock,
    /// so shards log publishes in one global order.
    fn publish_ordered(
        &self,
        publisher: ParticipantId,
        stamp: Option<CausalStamp>,
        transactions: Vec<Transaction>,
    ) -> Result<Timed<Epoch>> {
        let _order = self.publish_lock.lock().expect("fabric publish lock poisoned");
        self.published.store(true, Ordering::SeqCst);
        poll_ready(self.client(publisher, None).publish(stamp, transactions))
    }
}

fn unknown_session(session: SessionId) -> StorageError {
    StorageError::Session(format!("fabric session {}: unknown or already closed", session.as_u64()))
}

/// Restores global publication order over per-shard candidate streams.
/// Epochs are globally unique across the fabric, so ordering by
/// `(epoch, shard)` is exactly the order a single store would stream.
fn merge_by_epoch(
    mut entries: Vec<(Epoch, usize, CandidateTransaction)>,
) -> Vec<CandidateTransaction> {
    entries.sort_by_key(|entry| (entry.0, entry.1));
    entries.into_iter().map(|(_, _, candidate)| candidate).collect()
}

impl UpdateStore for StoreFabric {
    /// Registers the participant's trust policy at **every** shard (all
    /// shards hold the full log, so all need the policy to evaluate trust
    /// and record decisions).
    ///
    /// Panics if a publish has already gone through the fabric — a late
    /// registration would rebuild relevance from each shard's *replicated*
    /// log and home the same candidates at every shard.
    fn register_participant(&self, policy: TrustPolicy) {
        assert!(
            !self.published.load(Ordering::SeqCst),
            "fabric registration must happen before the first publish \
             (a late registration would home the same candidates at every shard)"
        );
        for store in &self.shards {
            store.register_participant(policy.clone());
        }
    }

    /// Primary publish at the publisher's home shard, then pinned replicas
    /// at every other shard, all under the fabric's publish lock. The
    /// returned cost covers the whole fan-out — what the caller waited for.
    fn publish(
        &self,
        participant: ParticipantId,
        transactions: Vec<Transaction>,
    ) -> Result<Timed<Epoch>> {
        self.publish_ordered(participant, None, transactions)
    }

    /// Opens one session per shard and merges them behind a single synthetic
    /// handle: the home shard's reconciliation number (they advance in
    /// lockstep), the largest pinned epoch, and the summed candidate bound.
    fn begin_reconciliation(&self, participant: ParticipantId) -> Result<Timed<SessionInfo>> {
        let client = self.client(participant, None);
        let mut began = poll_ready(client.begin_session())?;
        let shards = client.sessions.take().remove(&began.value.session);
        let shards = shards.expect("begin_session records the shard handles");
        began.value.session = SessionId(self.next_session.fetch_add(1, Ordering::SeqCst) + 1);
        let state = FabricSession { participant, shards, merged: None };
        self.sessions().insert(began.value.session, state);
        Ok(began)
    }

    /// Pages the merged stream: the first call drains every shard session
    /// into publication order — exactly what a single store would stream —
    /// then batches are served from the merged buffer.
    fn next_batch(
        &self,
        session: SessionId,
        max_candidates: usize,
    ) -> Result<Timed<Vec<CandidateTransaction>>> {
        let mut sessions = self.sessions();
        let state = sessions.get_mut(&session).ok_or_else(|| unknown_session(session))?;
        let mut timing = StoreTiming::default();
        if state.merged.is_none() {
            let client = self.client(state.participant, Some((session, state)));
            let drained = poll_ready(client.drain_candidates(session, max_candidates))?;
            timing = drained.timing;
            state.merged = Some(drained.value.into());
        }
        let buffer = state.merged.as_mut().expect("merged stream just filled");
        let take = max_candidates.min(buffer.len());
        Ok(Timed::new(buffer.drain(..take).collect(), timing))
    }

    /// Commits every shard session with the **full** decision lists. A
    /// failed shard commit leaves the fabric session open, as the
    /// single-store contract requires (the client aborts it).
    fn commit_reconciliation(
        &self,
        session: SessionId,
        accepted: &[TransactionId],
        rejected: &[TransactionId],
    ) -> Result<StoreTiming> {
        let client = {
            let sessions = self.sessions();
            let state = sessions.get(&session).ok_or_else(|| unknown_session(session))?;
            self.client(state.participant, Some((session, state)))
        };
        let timing = poll_ready(client.commit(session, accepted, rejected))?;
        self.sessions().remove(&session);
        Ok(timing)
    }

    /// Aborts every shard session and releases the handle. Aborting an
    /// unknown or already-closed fabric session is a no-op, matching the
    /// single-store contract.
    fn abort_reconciliation(&self, session: SessionId) -> Result<()> {
        let Some(state) = self.sessions().remove(&session) else {
            return Ok(());
        };
        poll_ready(self.client(state.participant, Some((session, &state))).abort(session))
    }

    fn retire_participant(&self, participant: ParticipantId) -> Result<()> {
        for store in &self.shards {
            store.retire_participant(participant)?;
        }
        Ok(())
    }

    fn record_decisions(
        &self,
        participant: ParticipantId,
        accepted: &[TransactionId],
        rejected: &[TransactionId],
    ) -> Result<StoreTiming> {
        let mut timing = StoreTiming::default();
        for store in &self.shards {
            timing.accumulate(store.record_decisions(participant, accepted, rejected)?);
        }
        Ok(timing)
    }

    fn current_reconciliation(&self, participant: ParticipantId) -> ReconciliationId {
        self.home_store(participant).current_reconciliation(participant)
    }

    fn rejected_set(&self, participant: ParticipantId) -> Arc<FxHashSet<TransactionId>> {
        self.home_store(participant).rejected_set(participant)
    }

    fn accepted_set(&self, participant: ParticipantId) -> Arc<FxHashSet<TransactionId>> {
        self.home_store(participant).accepted_set(participant)
    }

    fn transaction(&self, id: TransactionId) -> Option<Arc<Transaction>> {
        // The log is replicated; any shard can answer.
        self.shards[0].transaction(id)
    }

    fn accepted_transactions(&self, participant: ParticipantId) -> Vec<Arc<Transaction>> {
        self.home_store(participant).accepted_transactions(participant)
    }

    fn epoch_of(&self, id: TransactionId) -> Option<Epoch> {
        self.shards[0].epoch_of(id)
    }

    fn accepted_replay_units(&self, participant: ParticipantId) -> Vec<Vec<Arc<Transaction>>> {
        self.home_store(participant).accepted_replay_units(participant)
    }

    fn epoch_cursor(&self, participant: ParticipantId) -> Epoch {
        self.home_store(participant).epoch_cursor(participant)
    }

    /// A participant's deferred candidates live on every shard (an epoch's
    /// relevance is homed at its *publisher's* shard), so the recovery read
    /// merges across shards into publication order.
    fn undecided_candidates(&self, participant: ParticipantId) -> Vec<CandidateTransaction> {
        let mut entries = Vec::new();
        for (shard, store) in self.shards.iter().enumerate() {
            for candidate in store.undecided_candidates(participant) {
                let epoch = store.epoch_of(candidate.id).unwrap_or(Epoch::ZERO);
                entries.push((epoch, shard, candidate));
            }
        }
        merge_by_epoch(entries)
    }

    fn causal_mode(&self) -> bool {
        self.shards[0].causal_mode()
    }

    fn enable_causal_mode(&self) -> Result<()> {
        for store in &self.shards {
            store.enable_causal_mode()?;
        }
        Ok(())
    }

    fn causal_frontier(&self) -> AntichainClock {
        // Every shard ingests every stamp, so the frontiers are identical.
        self.shards[0].causal_frontier()
    }

    fn next_publisher_seq(&self, participant: ParticipantId) -> u64 {
        self.home_store(participant).next_publisher_seq(participant)
    }

    /// Causal-mode counterpart of [`UpdateStore::publish`] on the fabric:
    /// primary stamped publish at the publisher's home shard, pinned stamped
    /// replicas everywhere else, under the publish lock.
    fn publish_stamped(
        &self,
        stamp: CausalStamp,
        transactions: Vec<Transaction>,
    ) -> Result<Timed<Epoch>> {
        self.publish_ordered(stamp.publisher, Some(stamp), transactions)
    }

    fn record_instance_checkpoint(
        &self,
        participant: ParticipantId,
        checkpoint: InstanceCheckpoint,
    ) -> Result<()> {
        for store in &self.shards {
            store.record_instance_checkpoint(participant, checkpoint.clone())?;
        }
        Ok(())
    }

    fn instance_checkpoint(&self, participant: ParticipantId) -> Option<InstanceCheckpoint> {
        self.home_store(participant).instance_checkpoint(participant)
    }

    fn accepted_replay_units_after(
        &self,
        participant: ParticipantId,
        skip: u64,
    ) -> Vec<Vec<Arc<Transaction>>> {
        self.home_store(participant).accepted_replay_units_after(participant, skip)
    }
}

/// One participant's client onto a whole fabric: one [`ShardClient`] per
/// shard, presenting the N shard sessions as a single virtual session.
///
/// Sessions are opened in shard order (all concurrent fabric sessions
/// acquire admission slots in the same order, so a starved shard delays but
/// never deadlocks them), candidate streams are merged by `(epoch, shard)`,
/// and commits fan the full decision lists to every shard. A call's cost is
/// the sum over its shard calls.
pub struct FabricClient<C: ShardClient> {
    router: ShardRouter,
    clients: Vec<C>,
    /// Where the `fabric.publish` span of each publish fan-out is recorded.
    tracer: Tracer,
    /// Open fabric sessions: home-shard session handle → per-shard handles.
    sessions: RefCell<FxHashMap<SessionId, Vec<SessionId>>>,
}

impl<C: ShardClient> FabricClient<C> {
    /// A fabric client over one shard client per shard (in shard order), all
    /// bound to the same participant, tracing publish fan-outs to `tracer`.
    ///
    /// Panics if the client count does not match the router's shard count or
    /// the clients disagree on the participant.
    pub fn new(router: ShardRouter, clients: Vec<C>, tracer: Tracer) -> FabricClient<C> {
        assert_eq!(
            clients.len(),
            router.shards(),
            "a fabric client needs exactly one shard client per shard"
        );
        let participant = clients[0].participant();
        assert!(
            clients.iter().all(|c| c.participant() == participant),
            "every shard client must act for the same participant"
        );
        FabricClient { router, clients, tracer, sessions: RefCell::new(FxHashMap::default()) }
    }

    /// The home shard of this client's participant.
    pub fn home_shard(&self) -> usize {
        self.router.home_of(self.participant())
    }

    fn shard_sessions(&self, session: SessionId) -> Result<Vec<SessionId>> {
        self.sessions.borrow().get(&session).cloned().ok_or_else(|| unknown_session(session))
    }

    /// Aborts the given shard sessions (a prefix of the shards, in shard
    /// order). Every shard is attempted even if an earlier abort fails; the
    /// first error is returned afterwards.
    async fn abort_shards(&self, shard_sessions: &[SessionId]) -> Result<()> {
        let mut outcome = Ok(());
        for (client, session) in self.clients.iter().zip(shard_sessions) {
            let aborted = client.abort(*session).await;
            if outcome.is_ok() {
                outcome = aborted;
            }
        }
        outcome
    }
}

impl<C: ShardClient> SessionClient for FabricClient<C> {
    fn participant(&self) -> ParticipantId {
        self.clients[0].participant()
    }

    /// Opens one session per shard, in shard order. The returned info uses
    /// the **home shard's** handle and reconciliation number (they advance in
    /// lockstep across shards), the largest pinned epoch, and the summed
    /// candidate bound.
    async fn begin_session(&self) -> Result<Timed<SessionInfo>> {
        let mut timing = StoreTiming::default();
        let mut infos: Vec<SessionInfo> = Vec::with_capacity(self.clients.len());
        for client in &self.clients {
            match client.begin_session().await {
                Ok(began) => {
                    timing.accumulate(began.timing);
                    infos.push(began.value);
                }
                Err(error) => {
                    // Release the shard sessions already opened so a failed
                    // open does not leak admission slots.
                    let opened: Vec<SessionId> = infos.iter().map(|info| info.session).collect();
                    let _ = self.abort_shards(&opened).await;
                    return Err(error);
                }
            }
        }
        let home = self.home_shard();
        let merged = SessionInfo {
            session: infos[home].session,
            recno: infos[home].recno,
            epoch: infos.iter().map(|info| info.epoch).max().unwrap_or(Epoch::ZERO),
            pending: infos.iter().map(|info| info.pending).sum(),
        };
        let shard_sessions = infos.iter().map(|info| info.session).collect();
        self.sessions.borrow_mut().insert(merged.session, shard_sessions);
        Ok(Timed::new(merged, timing))
    }

    /// Drains every shard's stream (each shard serves only the epochs homed
    /// there) and k-way merges by `(epoch, shard)`.
    async fn drain_candidates(
        &self,
        session: SessionId,
        batch_size: usize,
    ) -> Result<Timed<Vec<CandidateTransaction>>> {
        let shard_sessions = self.shard_sessions(session)?;
        let mut timing = StoreTiming::default();
        let mut entries = Vec::new();
        for (shard, (client, session)) in self.clients.iter().zip(&shard_sessions).enumerate() {
            let drained = client.drain_with_epochs(*session, batch_size).await?;
            timing.accumulate(drained.timing);
            let (candidates, epochs) = drained.value;
            entries.extend(epochs.into_iter().zip(candidates).map(|(e, c)| (e, shard, c)));
        }
        Ok(Timed::new(merge_by_epoch(entries), timing))
    }

    /// Commits every shard session with the **full** accepted/rejected
    /// lists. Every shard needs the complete record: antecedent exclusion on
    /// a shard's own candidates must see accepts homed at other shards.
    async fn commit(
        &self,
        session: SessionId,
        accepted: &[TransactionId],
        rejected: &[TransactionId],
    ) -> Result<StoreTiming> {
        let shard_sessions = self.shard_sessions(session)?;
        let mut timing = StoreTiming::default();
        for (client, shard_session) in self.clients.iter().zip(&shard_sessions) {
            timing.accumulate(client.commit(*shard_session, accepted, rejected).await?);
        }
        self.sessions.borrow_mut().remove(&session);
        Ok(timing)
    }

    /// Releases the handle, then aborts every shard session.
    async fn abort(&self, session: SessionId) -> Result<()> {
        let released = self.sessions.borrow_mut().remove(&session);
        match released {
            Some(shard_sessions) => self.abort_shards(&shard_sessions).await,
            None => Ok(()),
        }
    }

    /// Primary publish at the publisher's home shard, then pinned replicas
    /// everywhere else. The caller must serialise fabric publishes (one
    /// publisher task, or the in-process fabric's publish lock) so every
    /// shard logs them in the same global order; a divergent order fails
    /// loudly with a pinned-epoch mismatch.
    ///
    /// The whole fan-out is one `fabric.publish` trace span, so a trace
    /// shows the primary publish and its replicas as a unit.
    async fn publish(
        &self,
        stamp: Option<CausalStamp>,
        transactions: Vec<Transaction>,
    ) -> Result<Timed<Epoch>> {
        let publisher = stamp.as_ref().map_or(self.participant(), |stamp| stamp.publisher);
        let home = self.router.home_of(publisher);
        let _span = self.tracer.span(
            "fabric.publish",
            &[
                ("participant", u64::from(publisher.as_u32())),
                ("home", home as u64),
                ("txns", transactions.len() as u64),
            ],
        );
        let mut published = self.clients[home].publish(stamp.clone(), transactions.clone()).await?;
        for (shard, client) in self.clients.iter().enumerate() {
            if shard != home {
                let replica =
                    client.replicate(stamp.clone(), published.value, transactions.clone()).await?;
                published.timing.accumulate(replica.timing);
            }
        }
        Ok(published)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::StoreService;
    use crate::ReconciliationSession;
    use orchestra_model::schema::bioinformatics_schema;
    use orchestra_model::{Tuple, Update};
    use orchestra_net::SimNetwork;
    use orchestra_rt::{LocalExecutor, VirtualClock};
    use std::rc::Rc;

    fn p(i: u32) -> ParticipantId {
        ParticipantId(i)
    }

    fn txn(i: u32, j: u64, key: &str) -> Transaction {
        let tuple = Tuple::of_text(&["org", key, "f"]);
        Transaction::from_parts(p(i), j, vec![Update::insert("Function", tuple, p(i))]).unwrap()
    }

    fn mutual_fabric(n: u32, shards: usize) -> StoreFabric {
        let fabric = StoreFabric::new(bioinformatics_schema(), shards);
        for i in 1..=n {
            let mut policy = TrustPolicy::new(p(i));
            for j in 1..=n {
                if i != j {
                    policy = policy.trusting(p(j), 1u32);
                }
            }
            fabric.register_participant(policy);
        }
        fabric
    }

    fn mutual_store(n: u32) -> CentralStore {
        let s = CentralStore::new(bioinformatics_schema());
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

    fn all_member_ids(candidates: &[CandidateTransaction]) -> Vec<TransactionId> {
        let mut seen = rustc_hash::FxHashSet::default();
        let mut ids = Vec::new();
        for candidate in candidates {
            for (id, _) in &candidate.members {
                if seen.insert(*id) {
                    ids.push(*id);
                }
            }
        }
        ids
    }

    #[test]
    fn router_is_deterministic_and_total() {
        let router = ShardRouter::new(4);
        assert_eq!(router.shards(), 4);
        for i in 0..64 {
            let home = router.home_of(p(i));
            assert!(home < 4);
            assert_eq!(home, router.home_of(p(i)), "routing must be stable");
        }
        assert_ne!(router.home_of(p(1)), router.home_of(p(2)));
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shard_router_is_rejected() {
        let _ = ShardRouter::new(0);
    }

    #[test]
    fn replicated_log_agrees_on_epochs_across_shards() {
        let fabric = mutual_fabric(4, 3);
        let e1 = fabric.publish(p(1), vec![txn(1, 0, "a")]).unwrap().value;
        let e2 = fabric.publish(p(2), vec![txn(2, 0, "b")]).unwrap().value;
        let e3 = fabric.publish(p(3), vec![txn(3, 0, "c")]).unwrap().value;
        assert_eq!((e1, e2, e3), (Epoch(1), Epoch(2), Epoch(3)));
        // Every shard holds the full log under the same epochs.
        for store in fabric.shard_stores() {
            for (i, epoch) in [(1u32, e1), (2, e2), (3, e3)] {
                let id = txn(i, 0, "x").id();
                assert_eq!(store.epoch_of(id), Some(epoch), "shard log diverged");
            }
        }
    }

    #[test]
    #[should_panic(expected = "before the first publish")]
    fn late_registration_panics() {
        let fabric = mutual_fabric(2, 2);
        fabric.publish(p(1), vec![txn(1, 0, "a")]).unwrap();
        fabric.register_participant(TrustPolicy::new(p(9)));
    }

    /// One service per shard of `fabric`, all on one simulated network.
    fn start_shard_services<'a>(
        fabric: &'a StoreFabric,
        config: &ServiceConfig,
        ex: &mut LocalExecutor<'a>,
    ) -> Vec<StoreService> {
        let shards = fabric.router().shards();
        let nodes: Vec<_> = (0..shards).map(StoreService::shard_server_node).collect();
        let net: Rc<dyn orchestra_net::Transport> = Rc::new(SimNetwork::new(nodes));
        (0..shards)
            .map(|shard| {
                let node = StoreService::shard_server_node(shard);
                StoreService::start_at(fabric.shard(shard), config, ex, Rc::clone(&net), node)
            })
            .collect()
    }

    /// Drives a full framed round over a fabric of `shards` services and
    /// checks the decisions against a single in-process store fed the same
    /// schedule.
    fn fabric_round_matches_single_store(shards: usize) {
        let n = 5u32;
        let fabric = mutual_fabric(n, shards);
        // Publish in-process (the driver's framed path is exercised in the
        // fabric_driver integration tests; here we isolate session merging).
        for i in 1..=n {
            fabric.publish(p(i), vec![txn(i, 0, &format!("k{i}"))]).unwrap();
        }

        let mut ex = LocalExecutor::new(VirtualClock::new());
        let config = ServiceConfig { workers: 2, ..ServiceConfig::default() };
        let services = start_shard_services(&fabric, &config, &mut ex);

        for i in 1..=n {
            let client = FabricClient::new(
                fabric.router(),
                services.iter().map(|s| s.client_for(p(i))).collect(),
                Tracer::disabled(),
            );
            let fabric = &fabric;
            ex.spawn(async move {
                let info = client.begin_session().await.unwrap().value;
                let candidates = client.drain_candidates(info.session, 2).await.unwrap().value;
                // The merged stream must be in global publication order.
                let epochs: Vec<_> =
                    candidates.iter().map(|c| fabric.shard(0).epoch_of(c.id).unwrap()).collect();
                let mut sorted = epochs.clone();
                sorted.sort();
                assert_eq!(epochs, sorted, "merge must restore publication order");
                let accepted = all_member_ids(&candidates);
                client.commit(info.session, &accepted, &[]).await.unwrap();
            });
        }
        assert_eq!(ex.run(), shards * config.workers);
        for service in &services {
            service.shutdown();
        }
        assert_eq!(ex.run(), 0);

        // The same schedule through one in-process store.
        let single = mutual_store(n);
        for i in 1..=n {
            single.publish(p(i), vec![txn(i, 0, &format!("k{i}"))]).unwrap();
        }
        for i in 1..=n {
            let mut session = ReconciliationSession::open(&single, p(i)).unwrap();
            let candidates = session.drain(2).unwrap();
            let accepted = all_member_ids(&candidates);
            session.commit(&accepted, &[]).unwrap();
        }
        for i in 1..=n {
            for store in fabric.shard_stores() {
                assert_eq!(store.accepted_set(p(i)), single.accepted_set(p(i)));
                assert_eq!(store.rejected_set(p(i)), single.rejected_set(p(i)));
                assert_eq!(store.epoch_cursor(p(i)), single.epoch_cursor(p(i)));
                assert_eq!(store.current_reconciliation(p(i)), single.current_reconciliation(p(i)));
            }
        }
    }

    #[test]
    fn fabric_sessions_decide_like_a_single_store() {
        fabric_round_matches_single_store(3);
    }

    #[test]
    fn one_shard_fabric_degenerates_to_a_single_service() {
        fabric_round_matches_single_store(1);
    }

    /// The in-process `UpdateStore` impl: paged sessions over the fabric
    /// must stream the same candidates in the same order as a single store,
    /// page boundaries included, and decide identically.
    #[test]
    fn in_process_fabric_sessions_page_like_a_single_store() {
        let n = 6u32;
        let fabric = mutual_fabric(n, 4);
        let single = mutual_store(n);
        for round in 0..3u64 {
            for i in 1..=n {
                let batch = vec![txn(i, round, &format!("k{i}-{round}"))];
                fabric.publish(p(i), batch.clone()).unwrap();
                single.publish(p(i), batch).unwrap();
            }
        }
        for i in 1..=n {
            let mut fabric_session = ReconciliationSession::open(&fabric, p(i)).unwrap();
            let mut single_session = ReconciliationSession::open(&single, p(i)).unwrap();
            // Page with a size that straddles shard boundaries.
            loop {
                let fabric_page = fabric_session.next_batch(4).unwrap();
                let single_page = single_session.next_batch(4).unwrap();
                assert_eq!(
                    fabric_page.iter().map(|c| c.id).collect::<Vec<_>>(),
                    single_page.iter().map(|c| c.id).collect::<Vec<_>>(),
                    "page diverged for participant {i}"
                );
                if fabric_page.len() < 4 {
                    break;
                }
            }
            fabric_session.commit(&[], &[]).unwrap();
            single_session.commit(&[], &[]).unwrap();
            assert_eq!(fabric.epoch_cursor(p(i)), single.epoch_cursor(p(i)));
        }
    }

    /// An aborted fabric session leaves every shard byte-identical, and the
    /// handle is consumed (a second abort is a no-op).
    #[test]
    fn aborting_a_fabric_session_is_a_no_op_everywhere() {
        let fabric = mutual_fabric(3, 2);
        fabric.publish(p(1), vec![txn(1, 0, "a")]).unwrap();
        let before: Vec<_> = (1..=3)
            .map(|i| (fabric.epoch_cursor(p(i)), fabric.current_reconciliation(p(i))))
            .collect();
        let info = fabric.begin_reconciliation(p(2)).unwrap().value;
        let _ = fabric.next_batch(info.session, 2).unwrap();
        fabric.abort_reconciliation(info.session).unwrap();
        fabric.abort_reconciliation(info.session).unwrap();
        let after: Vec<_> = (1..=3)
            .map(|i| (fabric.epoch_cursor(p(i)), fabric.current_reconciliation(p(i))))
            .collect();
        assert_eq!(before, after);
        assert!(fabric.next_batch(info.session, 2).is_err(), "the handle is consumed");
    }

    /// The framed fabric client honours the single-store abort contract over
    /// real shard services: aborting an unknown or already-closed session is
    /// `Ok(())`, and an aborted session leaves no shard session open. (That
    /// every shard is attempted when one abort fails is checked against a
    /// failing shard client in `tests/fabric_driver.rs`.)
    #[test]
    fn framed_fabric_abort_of_an_unknown_or_closed_session_is_a_no_op() {
        let shards = 2;
        let fabric = mutual_fabric(2, shards);
        let mut ex = LocalExecutor::new(VirtualClock::new());
        let services = start_shard_services(&fabric, &ServiceConfig::default(), &mut ex);
        let client = FabricClient::new(
            fabric.router(),
            services.iter().map(|s| s.client_for(p(1))).collect(),
            Tracer::disabled(),
        );
        ex.spawn(async move {
            client.abort(SessionId(424_242)).await.unwrap();
            let info = client.begin_session().await.unwrap().value;
            client.abort(info.session).await.unwrap();
            client.abort(info.session).await.unwrap();
        });
        ex.run();
        for service in &services {
            assert_eq!(service.stats().open_sessions, 0, "an abort must release every shard");
        }
    }

    /// The blocking wrapper refuses a future that has to wait — here a
    /// framed client's `Begin` — with a typed error, not a hang or a panic.
    #[test]
    fn poll_ready_refuses_a_pending_future_with_a_typed_error() {
        let store = mutual_store(1);
        let mut ex = LocalExecutor::new(VirtualClock::new());
        let net = Rc::new(SimNetwork::new(vec![StoreService::server_node()]));
        let service = StoreService::start(&store, &ServiceConfig::default(), &mut ex, net);
        let framed = service.client_for(p(1));
        let error = poll_ready(framed.begin_session()).unwrap_err();
        assert!(matches!(error, StorageError::Session(_)), "got {error:?}");
        assert!(error.to_string().contains("would have to wait"), "got {error}");
        // The same call over the in-process client is ready at once.
        poll_ready(InProcessClient::new(&store, p(1)).begin_session()).unwrap();
    }
}
