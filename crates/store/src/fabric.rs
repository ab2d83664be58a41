//! The sharded store fabric: one confederation served by N store shards.
//!
//! A single [`StoreService`](crate::StoreService) bounds a confederation by
//! one store's worker pool. The fabric spreads the confederation's
//! *participants* over `N` [`CentralStore`] shards — a read-scaling replica
//! set with one home per participant — while keeping the paper's *decision
//! semantics* exactly those of one store:
//!
//! * **The publication log is replicated.** Every publish lands on every
//!   shard in the same order (primary publish at the publisher's home shard,
//!   *pinned* publishes everywhere else via
//!   [`UpdateStore::publish_replica`]), so all shards agree on the log and
//!   on the global epoch numbering.
//! * **Everything per participant lives at its home shard only.** A
//!   participant's trust policy is registered at
//!   [`ShardRouter::home_of`]`(participant)` and nowhere else, so that shard
//!   alone keeps its relevance index (every publish, primary or pinned,
//!   extends the slices of the policies registered where it lands), its
//!   decision record, epoch cursor and reconciliation number. The paper's
//!   contract — a participant's decisions are a function of the published
//!   log and *its own* policy and record — makes the reader the natural
//!   shard key.
//! * **A fabric session is one ordinary shard session** at the home shard:
//!   begin, page, commit and abort are forwarded there unchanged, and the
//!   home shard streams exactly what a single store would, because it holds
//!   the whole log and the whole of the participant's state.
//!
//! The fabric therefore decides *byte-identically* to a single store (the
//! `fabric_driver` integration tests prove it property-based), while
//! candidate streaming and decision recording spread across N worker pools.
//! Its remaining price is the publish: N frames, one per shard.
//!
//! **Admission** happens once per session, at the home shard, so
//! [`ServiceConfig::max_open_sessions`] bounds the open sessions of the
//! participants *homed at one shard* (N × the cap fabric-wide). A session
//! holds one slot at one shard; nothing is acquired in order, so nothing can
//! deadlock.
//!
//! The publish fan-out lives in [`FabricClient`] only, generic over its
//! per-shard [`ShardClient`]: the framed fabric driver runs it over one
//! [`ServiceClient`](crate::ServiceClient) per shard, and [`StoreFabric`]'s
//! own [`UpdateStore::publish`] runs it over one [`InProcessClient`] per
//! shard store.
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
use orchestra_storage::Result;
use rustc_hash::FxHashSet;
use std::sync::{Arc, Mutex};

/// Maps participants to their home shard.
///
/// The home shard is where a participant's publishes are *primary* (the
/// epoch is assigned there) and where everything that is the participant's
/// own lives: its registered policy, relevance index, decision record and
/// sessions. The routing must be deterministic and agreed by every client —
/// it is pure arithmetic over the participant id.
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
    /// The per-shard service configuration (every shard uses the same). Its
    /// `max_open_sessions` caps the open sessions of the participants homed
    /// at one shard, so the fabric admits `shards` times as many.
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
/// The fabric keeps the shards' logs identical (replicated log) and each
/// participant's policy, relevance, decisions and sessions at its home shard
/// only — see the [module docs](crate::fabric). A driver fronts each shard
/// store, reached through [`StoreFabric::shard`], with its own
/// [`StoreService`](crate::StoreService).
///
/// # Registration order
///
/// There is none to observe. A registration — before the first publish or
/// after the thousandth — builds the participant's relevance from its home
/// shard's log, which is the full log, exactly as a late registration on a
/// single [`CentralStore`] does.
pub struct StoreFabric {
    router: ShardRouter,
    shards: Vec<CentralStore>,
    /// Held across the primary + replica fan-out of one publish so every
    /// shard's log receives all publishes in the same global order.
    publish_lock: Mutex<()>,
}

impl StoreFabric {
    /// A fabric of `shards` empty stores over `schema`.
    pub fn new(schema: Schema, shards: usize) -> StoreFabric {
        let router = ShardRouter::new(shards);
        let shards = (0..shards).map(|_| CentralStore::new(schema.clone())).collect();
        StoreFabric { router, shards, publish_lock: Mutex::new(()) }
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
    fn home_store(&self, participant: ParticipantId) -> &CentralStore {
        &self.shards[self.router.home_of(participant)]
    }

    /// Closes membership at every shard (see `StoreCatalog::close_membership`).
    pub fn close_membership(&self) -> Result<()> {
        for store in &self.shards {
            store.catalog().close_membership()?;
        }
        Ok(())
    }

    /// The shard store a fabric session handle names, and that store's own
    /// handle for the session. Shard handles are only unique per shard, so
    /// the handle [`UpdateStore::begin_reconciliation`] returns is the home
    /// shard's handle tagged with the shard (`raw * shards + shard`): the
    /// later calls of the session, which carry nothing but the handle, find
    /// their way home by arithmetic, and the fabric keeps no session table.
    fn session_home(&self, session: SessionId) -> (&CentralStore, SessionId) {
        let shards = self.shards.len() as u64;
        let store = &self.shards[(session.as_u64() % shards) as usize];
        (store, SessionId(session.as_u64() / shards))
    }

    /// A publish (stamped in causal mode) under the fabric's publish lock,
    /// so shards log publishes in one global order: the same
    /// [`FabricClient::publish`] fan-out the framed driver awaits, run to
    /// completion over the shard stores themselves.
    fn publish_ordered(
        &self,
        publisher: ParticipantId,
        stamp: Option<CausalStamp>,
        transactions: Vec<Transaction>,
    ) -> Result<Timed<Epoch>> {
        let _order = self.publish_lock.lock().expect("fabric publish lock poisoned");
        let clients =
            self.shards.iter().map(|store| InProcessClient::new(store, publisher)).collect();
        let client = FabricClient::new(self.router, clients, Tracer::disabled());
        poll_ready(client.publish(stamp, transactions))
    }
}

impl UpdateStore for StoreFabric {
    /// Registers the participant's trust policy at its **home shard** only:
    /// that shard holds the full log, so it alone evaluates the policy,
    /// keeps the relevance index it induces and records the decisions.
    fn register_participant(&self, policy: TrustPolicy) {
        self.home_store(policy.owner()).register_participant(policy);
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

    /// Opens the session at the participant's home shard. The handle is the
    /// home shard's, tagged with the shard (see `session_home`).
    fn begin_reconciliation(&self, participant: ParticipantId) -> Result<Timed<SessionInfo>> {
        let home = self.router.home_of(participant);
        let mut began = self.shards[home].begin_reconciliation(participant)?;
        let raw = began.value.session.as_u64();
        began.value.session = SessionId(raw * self.shards.len() as u64 + home as u64);
        Ok(began)
    }

    fn next_batch(
        &self,
        session: SessionId,
        max_candidates: usize,
    ) -> Result<Timed<Vec<CandidateTransaction>>> {
        let (store, session) = self.session_home(session);
        store.next_batch(session, max_candidates)
    }

    fn commit_reconciliation(
        &self,
        session: SessionId,
        accepted: &[TransactionId],
        rejected: &[TransactionId],
    ) -> Result<StoreTiming> {
        let (store, session) = self.session_home(session);
        store.commit_reconciliation(session, accepted, rejected)
    }

    fn abort_reconciliation(&self, session: SessionId) -> Result<()> {
        let (store, session) = self.session_home(session);
        store.abort_reconciliation(session)
    }

    fn retire_participant(&self, participant: ParticipantId) -> Result<()> {
        self.home_store(participant).retire_participant(participant)
    }

    fn record_decisions(
        &self,
        participant: ParticipantId,
        accepted: &[TransactionId],
        rejected: &[TransactionId],
    ) -> Result<StoreTiming> {
        self.home_store(participant).record_decisions(participant, accepted, rejected)
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

    fn epoch_of(&self, id: TransactionId) -> Option<Epoch> {
        self.shards[0].epoch_of(id)
    }

    fn accepted_replay_units(&self, participant: ParticipantId) -> Vec<Vec<Arc<Transaction>>> {
        self.home_store(participant).accepted_replay_units(participant)
    }

    fn epoch_cursor(&self, participant: ParticipantId) -> Epoch {
        self.home_store(participant).epoch_cursor(participant)
    }

    fn undecided_candidates(&self, participant: ParticipantId) -> Vec<CandidateTransaction> {
        self.home_store(participant).undecided_candidates(participant)
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
}

/// One participant's client onto a whole fabric: one [`ShardClient`] per
/// shard. Sessions are the **home shard's** sessions — begin, drain, commit
/// and abort are forwarded to the home shard's client as they are, handle
/// and cost included, and no other shard sees a session frame. Only a
/// publish touches every shard.
pub struct FabricClient<C: ShardClient> {
    router: ShardRouter,
    clients: Vec<C>,
    /// Where the `fabric.publish` span of each publish fan-out is recorded.
    tracer: Tracer,
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
        FabricClient { router, clients, tracer }
    }

    /// The home shard of this client's participant.
    pub fn home_shard(&self) -> usize {
        self.router.home_of(self.participant())
    }

    /// The client onto the home shard, where this participant's sessions run.
    fn home(&self) -> &C {
        &self.clients[self.home_shard()]
    }
}

impl<C: ShardClient> SessionClient for FabricClient<C> {
    fn participant(&self) -> ParticipantId {
        self.clients[0].participant()
    }

    /// The home shard's mode: causal mode is switched on at every shard.
    fn causal_mode(&self) -> bool {
        self.home().causal_mode()
    }

    async fn begin_session(&self) -> Result<Timed<SessionInfo>> {
        self.home().begin_session().await
    }

    async fn drain_candidates(
        &self,
        session: SessionId,
        batch_size: usize,
    ) -> Result<Timed<Vec<CandidateTransaction>>> {
        self.home().drain_candidates(session, batch_size).await
    }

    async fn commit(
        &self,
        session: SessionId,
        accepted: &[TransactionId],
        rejected: &[TransactionId],
    ) -> Result<StoreTiming> {
        self.home().commit(session, accepted, rejected).await
    }

    async fn abort(&self, session: SessionId) -> Result<()> {
        self.home().abort(session).await
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
    use crate::client::drained;
    use crate::service::StoreService;
    use orchestra_model::schema::bioinformatics_schema;
    use orchestra_model::{Tuple, Update};
    use orchestra_net::SimNetwork;
    use orchestra_rt::{LocalExecutor, VirtualClock};
    use orchestra_storage::StorageError;
    use std::rc::Rc;

    fn p(i: u32) -> ParticipantId {
        ParticipantId(i)
    }

    fn txn(i: u32, j: u64, key: &str) -> Transaction {
        let tuple = Tuple::of_text(&["org", key, "f"]);
        Transaction::from_parts(p(i), j, vec![Update::insert("Function", tuple, p(i))]).unwrap()
    }

    /// Participant `i`'s policy: trust everyone else in `1..=n` at priority 1.
    fn mutual_policy(i: u32, n: u32) -> TrustPolicy {
        (1..=n)
            .filter(|j| *j != i)
            .fold(TrustPolicy::new(p(i)), |policy, j| policy.trusting(p(j), 1u32))
    }

    fn mutual_fabric(n: u32, shards: usize) -> StoreFabric {
        let fabric = StoreFabric::new(bioinformatics_schema(), shards);
        for i in 1..=n {
            fabric.register_participant(mutual_policy(i, n));
        }
        fabric
    }

    fn mutual_store(n: u32) -> CentralStore {
        let s = CentralStore::new(bioinformatics_schema());
        for i in 1..=n {
            s.register_participant(mutual_policy(i, n));
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

    /// Everything a participant's store-side state amounts to.
    type Decided =
        (Arc<FxHashSet<TransactionId>>, Arc<FxHashSet<TransactionId>>, Epoch, ReconciliationId);

    fn decided<S: UpdateStore>(store: &S, who: ParticipantId) -> Decided {
        (
            store.accepted_set(who),
            store.rejected_set(who),
            store.epoch_cursor(who),
            store.current_reconciliation(who),
        )
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

    /// Splits a drained stream into the members to accept and — so rejected
    /// sets are exercised too — the members `p(1)` originated, to reject.
    fn accept_all_but_the_first_origin(
        candidates: &[CandidateTransaction],
    ) -> (Vec<TransactionId>, Vec<TransactionId>) {
        all_member_ids(candidates).into_iter().partition(|id| id.participant != p(1))
    }

    /// One reconciliation of each of `1..=n` against `store`, in-process.
    fn reconcile_in_process<S: UpdateStore>(store: &S, n: u32) {
        for i in 1..=n {
            let (info, candidates) = drained(store, p(i), 2).value;
            let (accepted, rejected) = accept_all_but_the_first_origin(&candidates);
            store.commit_reconciliation(info.session, &accepted, &rejected).unwrap();
        }
    }

    /// The same wave through one framed service per shard, all sessions
    /// concurrent.
    fn reconcile_framed(fabric: &StoreFabric, n: u32, config: &ServiceConfig) {
        let mut ex = LocalExecutor::new(VirtualClock::new());
        let services = start_shard_services(fabric, config, &mut ex);
        for i in 1..=n {
            let client = FabricClient::new(
                fabric.router(),
                services.iter().map(|s| s.client_for(p(i))).collect(),
                Tracer::disabled(),
            );
            ex.spawn(async move {
                let info = client.begin_session().await.unwrap().value;
                let candidates = client.drain_candidates(info.session, 2).await.unwrap().value;
                // The home shard streams in global publication order.
                let epochs: Vec<_> =
                    candidates.iter().map(|c| fabric.epoch_of(c.id).unwrap()).collect();
                assert!(epochs.is_sorted(), "candidates must stream in publication order");
                let (accepted, rejected) = accept_all_but_the_first_origin(&candidates);
                client.commit(info.session, &accepted, &rejected).await.unwrap();
            });
        }
        assert_eq!(ex.run(), fabric.router().shards() * config.workers);
        for service in &services {
            service.shutdown();
        }
        assert_eq!(ex.run(), 0);
    }

    /// Drives a full framed round over a fabric of `shards` services and
    /// checks the decisions against a single in-process store fed the same
    /// schedule — and that each participant's state sits at its home shard
    /// and nowhere else, over logs that are identical everywhere.
    fn fabric_round_matches_single_store(shards: usize) {
        let n = 5u32;
        let fabric = mutual_fabric(n, shards);
        let single = mutual_store(n);
        // Publish in-process (the driver's framed path is exercised in the
        // fabric_driver integration tests; here we isolate the sessions).
        for i in 1..=n {
            let batch = vec![txn(i, 0, &format!("k{i}"))];
            fabric.publish(p(i), batch.clone()).unwrap();
            single.publish(p(i), batch).unwrap();
        }
        let config = ServiceConfig { workers: 2, ..ServiceConfig::default() };
        reconcile_framed(&fabric, n, &config);
        reconcile_in_process(&single, n);

        for i in 1..=n {
            assert_eq!(decided(&fabric, p(i)), decided(&single, p(i)), "participant {i}");
        }
        let router = fabric.router();
        for (shard, store) in fabric.shard_stores().iter().enumerate() {
            // The log is replicated: same length, same epochs, every shard.
            assert_eq!(store.catalog().log_len(), single.catalog().log_len());
            for i in 1..=n {
                let id = txn(i, 0, "x").id();
                assert_eq!(store.epoch_of(id), single.epoch_of(id), "shard {shard} log diverged");
            }
            // Policy, relevance and decisions: at the home shard only.
            for i in 1..=n {
                let who = p(i);
                if router.home_of(who) == shard {
                    assert!(store.catalog().policy(who).is_some());
                    assert_eq!(decided(store, who), decided(&single, who));
                    continue;
                }
                assert!(store.catalog().policy(who).is_none(), "{who} is not homed at {shard}");
                assert!(store.undecided_candidates(who).is_empty(), "no relevance off home");
                assert!(store.rejected_set(who).is_empty());
                assert_eq!(store.epoch_cursor(who), Epoch::ZERO);
                assert_eq!(store.current_reconciliation(who), ReconciliationId(0));
                // All a replica records for a participant homed elsewhere is
                // the own-accept its replicated publishes write.
                assert!(store.accepted_set(who).iter().all(|id| id.participant == who));
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

    /// A participant that registers after `k` publishes — ROADMAP item 7's
    /// old "register before the first publish" gap — decides exactly like a
    /// late joiner on a single store: its home shard holds the full log, so
    /// the registration builds the relevance a `CentralStore` would.
    #[test]
    fn a_late_joiner_on_the_fabric_decides_like_one_on_a_single_store() {
        let n = 4u32;
        let late = n + 1;
        // Everyone already trusts the late joiner; it is just not there yet.
        let schedule = |store: &dyn UpdateStore| {
            for i in 1..=n {
                store.register_participant(mutual_policy(i, late));
            }
            for round in 0..2u64 {
                for i in 1..=n {
                    store.publish(p(i), vec![txn(i, round, &format!("k{i}-{round}"))]).unwrap();
                }
            }
            store.register_participant(mutual_policy(late, late));
            for i in 1..=late {
                store.publish(p(i), vec![txn(i, 2, &format!("k{i}-2"))]).unwrap();
            }
        };
        let single = CentralStore::new(bioinformatics_schema());
        schedule(&single);
        reconcile_in_process(&single, late);
        assert_eq!(single.accepted_set(p(late)).len(), 1 + 3 * 3, "own + all of 2, 3 and 4");
        assert_eq!(single.rejected_set(p(late)).len(), 3, "all of participant 1");

        for shards in [1, 4] {
            for framed in [false, true] {
                let fabric = StoreFabric::new(bioinformatics_schema(), shards);
                schedule(&fabric);
                if framed {
                    reconcile_framed(&fabric, late, &ServiceConfig::default());
                } else {
                    reconcile_in_process(&fabric, late);
                }
                for i in 1..=late {
                    assert_eq!(
                        decided(&fabric, p(i)),
                        decided(&single, p(i)),
                        "participant {i}, {shards} shards, framed: {framed}"
                    );
                }
            }
        }
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
            let fabric_session = fabric.begin_reconciliation(p(i)).unwrap().value.session;
            let single_session = single.begin_reconciliation(p(i)).unwrap().value.session;
            loop {
                let fabric_page = fabric.next_batch(fabric_session, 4).unwrap().value;
                let single_page = single.next_batch(single_session, 4).unwrap().value;
                assert_eq!(
                    fabric_page.iter().map(|c| c.id).collect::<Vec<_>>(),
                    single_page.iter().map(|c| c.id).collect::<Vec<_>>(),
                    "page diverged for participant {i}"
                );
                if fabric_page.len() < 4 {
                    break;
                }
            }
            fabric.commit_reconciliation(fabric_session, &[], &[]).unwrap();
            single.commit_reconciliation(single_session, &[], &[]).unwrap();
            assert_eq!(fabric.epoch_cursor(p(i)), single.epoch_cursor(p(i)));
        }
    }

    /// Sessions open at once on different shards may carry the same raw
    /// shard handle; the fabric's handles still tell them apart.
    #[test]
    fn in_process_handles_of_concurrent_sessions_are_distinct() {
        let fabric = mutual_fabric(4, 4);
        fabric.publish(p(1), vec![txn(1, 0, "a")]).unwrap();
        let infos: Vec<_> =
            (1..=4).map(|i| fabric.begin_reconciliation(p(i)).unwrap().value).collect();
        let handles: FxHashSet<_> = infos.iter().map(|info| info.session).collect();
        assert_eq!(handles.len(), 4, "every open session has its own handle");
        for (i, info) in (1u32..).zip(&infos) {
            let page = fabric.next_batch(info.session, 8).unwrap().value;
            assert_eq!(page.len(), usize::from(i != 1), "participant {i} sees p1's publish");
            fabric.commit_reconciliation(info.session, &all_member_ids(&page), &[]).unwrap();
            assert_eq!(fabric.current_reconciliation(p(i)), info.recno);
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
    /// an abort reaches the home shard and no other is checked against a
    /// recording shard client in `tests/fabric_driver.rs`.)
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
