//! A CDSS participant: local instance, trust policy, publication and
//! reconciliation.
//!
//! A participant publishes and reconciles through a [`SessionClient`] and
//! nothing else: the same code runs in-process, over one framed service and
//! over a sharded fabric. Reconciliation uses the client's session protocol:
//! candidates are streamed in bounded pages
//! ([`Participant::set_reconcile_batch_size`]), decided by the client-centric
//! engine, and the decisions are committed atomically with the session.
//!
//! What the engine needs besides the candidates the participant keeps
//! itself: mirrors of its accepted and rejected record, its last committed
//! reconciliation number and the causal frontier it has observed (each
//! session brings the frontier it covers). The store stays the record of
//! truth; the participant touches it directly only to load those mirrors in
//! [`Participant::rebuild_from_store`], to read the frontier at heal time
//! ([`Participant::rejoin`]) and to record a conflict resolution's decisions
//! ([`Participant::resolve_conflicts`]).

use crate::report::{ReconcileReport, ResolutionReport, TimingBreakdown};
use orchestra_model::{
    flatten_keyed, AntichainClock, CausalStamp, ParticipantId, ReconciliationId, Schema,
    Transaction, TransactionId, TrustPolicy, Update,
};
use orchestra_obs::{Counter, Obs};
use orchestra_recon::{
    resolution::resolve_conflicts, CandidateTransaction, ConflictGroup, ReconcileEngine,
    ReconcileInput, ResolutionChoice, SoftState,
};
use orchestra_storage::{Database, Result, StorageError};
use orchestra_store::{
    poll_ready, InProcessClient, SessionClient, SessionInfo, StoreTiming, Timed, UpdateStore,
};
use rustc_hash::FxHashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Default page size for session-based candidate retrieval: bounds the
/// store-side working set materialised per `next_batch` call.
pub const DEFAULT_RECONCILE_BATCH_SIZE: usize = 64;

/// Configuration of a participant: its trust policy (which also names the
/// participant) and, optionally, a pre-populated initial instance.
#[derive(Debug, Clone)]
pub struct ParticipantConfig {
    /// The participant's trust policy (acceptance rules).
    pub policy: TrustPolicy,
    /// An optional initial database instance; an empty instance of the
    /// system schema is used when absent.
    pub initial_instance: Option<Database>,
}

impl ParticipantConfig {
    /// Creates a configuration from a trust policy with an empty initial
    /// instance.
    pub fn new(policy: TrustPolicy) -> Self {
        ParticipantConfig { policy, initial_instance: None }
    }

    /// Sets an initial instance.
    pub fn with_instance(mut self, instance: Database) -> Self {
        self.initial_instance = Some(instance);
        self
    }
}

/// An autonomous participant of the CDSS.
///
/// A participant executes transactions against its local instance, publishes
/// them to the shared update store, and reconciles — importing the trusted,
/// non-conflicting transactions other participants have published. All
/// per-participant state besides the instance (deferred transactions, dirty
/// values, conflict groups) is soft and can be reconstructed from the update
/// store.
#[derive(Debug, Clone)]
pub struct Participant {
    id: ParticipantId,
    policy: TrustPolicy,
    instance: Database,
    engine: ReconcileEngine,
    soft: SoftState,
    next_local_txn: u64,
    /// Page size for session-based candidate retrieval.
    reconcile_batch_size: usize,
    /// Transactions executed locally but not yet published.
    pending_publish: Vec<Transaction>,
    /// Updates published since the last reconciliation, used as the "delta
    /// for recno" when the next reconciliation runs. Accumulated across
    /// publications (a participant may publish several times between
    /// reconciliations) and consumed by the reconciliation that covers them.
    last_published_updates: Vec<Update>,
    /// Shared observability sink: every timing accumulation also bumps the
    /// `participant.store_us` / `participant.local_us` counters there, and
    /// publish / reconcile / resolution milestones emit trace events.
    obs: Obs,
    /// The sink's `participant.store_us` and `participant.local_us`
    /// counters, resolved once per [`Participant::set_observability`].
    timing_counters: [Counter; 2],
    /// Mirror of the participant's accepted record at the store: loaded by
    /// [`Participant::rebuild_from_store`], extended with its own published
    /// transactions and with the acceptances each commit or resolution
    /// carried once the store acknowledged them. Shared (`Arc`) with the
    /// engine per run.
    accepted: Arc<FxHashSet<TransactionId>>,
    /// Mirror of the participant's rejected record, maintained alongside
    /// `accepted` by the store's rule: acceptance is final, so an accepted
    /// id leaves this set and is never re-added.
    rejected: Arc<FxHashSet<TransactionId>>,
    /// The number of the participant's most recent committed reconciliation
    /// (the default before the first).
    recno: ReconciliationId,
    /// True while the participant is partitioned from the store: publishing
    /// stamps and buffers batches locally, reconciliation is refused until
    /// [`Participant::rejoin`].
    offline: bool,
    /// Causally stamped batches published while offline, in stamp order,
    /// drained into the store on rejoin.
    buffered: Vec<(CausalStamp, Vec<Transaction>)>,
    /// The per-publisher sequence number the participant's next causal stamp
    /// will carry (1-based; loaded by [`Participant::rebuild_from_store`]).
    causal_seq: u64,
    /// The causal frontier this participant has observed — its own stamps
    /// plus the frontier of each session it committed. The next stamp names
    /// it as its parent set.
    observed: AntichainClock,
}

impl Participant {
    /// Creates a participant for the given schema and configuration.
    pub fn new(schema: Schema, config: ParticipantConfig) -> Self {
        let id = config.policy.owner();
        let instance = config.initial_instance.unwrap_or_else(|| Database::new(schema.clone()));
        Participant {
            id,
            policy: config.policy,
            instance,
            engine: ReconcileEngine::new(schema),
            soft: SoftState::new(),
            next_local_txn: 0,
            reconcile_batch_size: DEFAULT_RECONCILE_BATCH_SIZE,
            pending_publish: Vec::new(),
            last_published_updates: Vec::new(),
            obs: Obs::disabled(),
            timing_counters: Default::default(),
            accepted: Arc::default(),
            rejected: Arc::default(),
            recno: ReconciliationId::default(),
            offline: false,
            buffered: Vec::new(),
            causal_seq: 1,
            observed: AntichainClock::new(),
        }
    }

    /// Reconstructs a participant from the update store alone — the paper's
    /// soft-state property: everything but the trust policy can be recovered
    /// from the store. Three pieces are rebuilt:
    ///
    /// * the **instance**, by replaying every transaction the store records
    ///   as accepted by this participant, in acceptance order (the order the
    ///   instance originally applied them);
    /// * the **own-publish delta**: this participant's own transactions
    ///   published *after* its last committed reconciliation have not yet
    ///   been covered by one, so they are restored into
    ///   `last_published_updates` (a trusted remote transaction conflicting
    ///   with them must still be rejected);
    /// * the **deferred soft state**: the store's undecided relevant
    ///   transactions at or before the cursor are exactly the candidates
    ///   earlier reconciliations deferred, so the dirty-value set and the
    ///   conflict groups are rebuilt from them — a crash no longer silently
    ///   drops conflicts awaiting user resolution.
    ///
    /// It also loads what the participant mirrors of its store record: the
    /// accepted and rejected sets, the last reconciliation number, the next
    /// causal sequence number and the causal frontier.
    ///
    /// The instance is soft state only while the store keeps its history:
    /// when retention has pruned a transaction this participant accepted,
    /// the replay would apply what is left of it (an insert whose delete
    /// is gone) and produce a wrong instance, so the rebuild refuses with
    /// [`StorageError::Retention`] instead.
    ///
    /// `schema` must be the store's schema Σ. Replay fills the flattening
    /// that the log's copy of a transaction memoises for every participant
    /// ([`Transaction::own_flattening`]); keys derived from another schema
    /// would reach the whole confederation.
    pub fn rebuild_from_store<S: UpdateStore + ?Sized>(
        schema: Schema,
        config: ParticipantConfig,
        store: &S,
    ) -> Result<Self> {
        let mut participant = Participant::new(schema.clone(), config);
        let cursor = store.epoch_cursor(participant.id);
        // The replay units hold the accepted ids the log still has; the
        // accepted set holds every accepted id, pruned or not.
        let units = store.accepted_replay_units(participant.id);
        let accepted = store.accepted_set(participant.id);
        let replayed: usize = units.iter().map(Vec::len).sum();
        if replayed < accepted.len() {
            return Err(StorageError::Retention(format!(
                "participant {} accepted {} transactions but the store keeps {}; \
                 retention pruned the history its instance is rebuilt from",
                participant.id,
                accepted.len(),
                replayed
            )));
        }
        let mut max_local = participant.next_local_txn;
        let mut own_delta: Vec<Update> = Vec::new();
        // Replay unit by unit: each unit is the newly accepted slice of one
        // candidate extension and was originally applied as one *flattened*
        // net effect, so a chain that collapsed to a no-op (e.g. a modify
        // and its exact inverse accepted together) replays as a no-op too.
        //
        // The own-delta test below (publish epoch > cursor) relies on
        // publishes being atomic under the log lock: the stable frontier a
        // session pins always covers every finished epoch, so an own
        // publication past the cursor is exactly one no reconciliation has
        // consumed yet.
        for unit in units {
            for txn in &unit {
                if txn.origin() == participant.id {
                    max_local = max_local.max(txn.id().local + 1);
                    if store.epoch_of(txn.id()).map(|e| e > cursor).unwrap_or(false) {
                        own_delta.extend(txn.updates().iter().cloned());
                    }
                }
            }
            // A unit of one transaction reuses the flattening the log's copy
            // of it memoises for every participant; a chain is flattened here.
            let shared = match unit.as_slice() {
                [txn] => txn.own_flattening(&schema).cloned(),
                _ => None,
            };
            let net = shared.unwrap_or_else(|| {
                let members: Vec<Arc<Vec<Update>>> =
                    unit.iter().map(|t| t.shared_updates()).collect();
                Arc::new(flatten_keyed(&schema, &members))
            });
            participant.instance.apply_net_lenient(&net);
        }
        participant.next_local_txn = max_local;
        participant.last_published_updates = own_delta;
        participant.accepted = accepted;
        participant.rejected = store.rejected_set(participant.id);
        participant.recno = store.current_reconciliation(participant.id);
        participant.causal_seq = store.next_publisher_seq(participant.id);
        participant.observed.merge(&store.causal_frontier());

        let deferred = store.undecided_candidates(participant.id);
        if !deferred.is_empty() {
            participant.soft.rebuild(participant.recno, deferred, participant.engine.schema());
        }
        Ok(participant)
    }

    /// The participant's identity.
    pub fn id(&self) -> ParticipantId {
        self.id
    }

    /// The participant's trust policy.
    pub fn policy(&self) -> &TrustPolicy {
        &self.policy
    }

    /// The participant's current database instance.
    pub fn instance(&self) -> &Database {
        &self.instance
    }

    /// The participant's soft state (deferred transactions, dirty values,
    /// conflict groups).
    pub fn soft_state(&self) -> &SoftState {
        &self.soft
    }

    /// The conflict groups awaiting user resolution.
    pub fn deferred_conflicts(&self) -> &[ConflictGroup] {
        self.soft.conflict_groups()
    }

    /// Transactions executed locally but not yet published.
    pub fn pending_publications(&self) -> &[Transaction] {
        &self.pending_publish
    }

    /// Points the participant at a shared observability sink: the sink's
    /// `participant.store_us` / `participant.local_us` counters accumulate
    /// every operation's timing, and trace events are recorded when the
    /// sink's tracer is enabled.
    pub fn set_observability(&mut self, obs: &Obs) {
        self.obs = obs.clone();
        self.timing_counters =
            ["participant.store_us", "participant.local_us"].map(|name| obs.metrics.counter(name));
    }

    /// Accumulates one operation's timing into the shared metric counters —
    /// the single sink that replaced ad-hoc `TimingBreakdown` summing in
    /// drivers.
    fn record_timing(&mut self, timing: TimingBreakdown) {
        let [store_us, local_us] = &self.timing_counters;
        store_us.add(timing.store.as_micros() as u64);
        local_us.add(timing.local.as_micros() as u64);
    }

    /// Sets the page size for session-based candidate retrieval (clamped to
    /// at least 1).
    pub fn set_reconcile_batch_size(&mut self, size: usize) {
        self.reconcile_batch_size = size.max(1);
    }

    /// The participant's mirror of its decision record at the store: the
    /// transactions it has accepted and those it has rejected.
    pub fn decision_record(&self) -> (&FxHashSet<TransactionId>, &FxHashSet<TransactionId>) {
        (&self.accepted, &self.rejected)
    }

    /// Folds decisions the store has acknowledged into the mirrors, by the
    /// store's own rule: an acceptance is final and clears a rejection; a
    /// rejection of an accepted id is void. The participant is the only
    /// writer of its record, so the mirrors stay equal to it. `Arc::make_mut`
    /// is copy-free in the steady state: the engine's borrow has been
    /// dropped by then.
    fn mirror_decisions(&mut self, accepted: &[TransactionId], rejected: &[TransactionId]) {
        let accepted_set = Arc::make_mut(&mut self.accepted);
        let rejected_set = Arc::make_mut(&mut self.rejected);
        for id in accepted {
            rejected_set.remove(id);
            accepted_set.insert(*id);
        }
        rejected_set.extend(rejected.iter().filter(|id| !accepted_set.contains(*id)).copied());
    }

    /// Executes a transaction against the local instance. The updates must
    /// all originate from this participant (the origin field is checked). The
    /// transaction is applied atomically and queued for the next publication.
    pub fn execute_transaction(&mut self, updates: Vec<Update>) -> Result<TransactionId> {
        for u in &updates {
            if u.origin != self.id {
                return Err(StorageError::Model(orchestra_model::ModelError::InvalidTransaction(
                    format!("update originated by {} executed at {}", u.origin, self.id),
                )));
            }
        }
        let txn = Transaction::from_parts(self.id, self.next_local_txn, updates)
            .map_err(StorageError::Model)?;
        self.instance.apply_transaction(&txn)?;
        self.next_local_txn += 1;
        let id = txn.id();
        self.pending_publish.push(txn);
        Ok(id)
    }

    /// Publishes all pending transactions to the update store as one epoch.
    /// Returns `None` if there was nothing to publish.
    ///
    /// In causal mode the participant allocates its own [`CausalStamp`]
    /// (per-publisher sequence plus its observed frontier as the parent set)
    /// and publishes it with the batch — no central allocation round trip.
    /// While [offline](Participant::go_offline) the stamped batch is buffered
    /// locally instead and `None` is returned; it reaches the store when the
    /// participant [rejoins](Participant::rejoin).
    ///
    /// This is the blocking form of [`Participant::publish_with`]: the same
    /// code, polled once over the [`InProcessClient`].
    pub fn publish<S: UpdateStore + ?Sized>(
        &mut self,
        store: &S,
    ) -> Result<Option<orchestra_model::Epoch>> {
        poll_ready(self.publish_with(&InProcessClient::new(store, self.id)))
    }

    /// The one publish routine: the batch travels through `client` —
    /// in-process, a single service's
    /// [`ServiceClient`](orchestra_store::ServiceClient) or a whole fabric's
    /// [`FabricClient`](orchestra_store::FabricClient) — and the cost the
    /// client reports (store time in-process, virtual frame time when
    /// framed) is charged to store time. Decisions and store state end up
    /// identical on every path. Once the store has assigned the epoch, the
    /// batch counts as accepted in the participant's mirror, as it does at
    /// the store.
    pub async fn publish_with<C: SessionClient>(
        &mut self,
        client: &C,
    ) -> Result<Option<orchestra_model::Epoch>> {
        if self.pending_publish.is_empty() {
            return Ok(None);
        }
        let batch = std::mem::take(&mut self.pending_publish);
        // Accumulate, do not overwrite: publishing twice before reconciling
        // must keep the first batch in the own-delta, or a trusted remote
        // transaction conflicting with it would wrongly be accepted.
        self.last_published_updates.extend(batch.iter().flat_map(|t| t.updates().iter().cloned()));
        if self.offline {
            let stamp = self.next_stamp();
            self.buffered.push((stamp, batch));
            return Ok(None);
        }
        let ids: Vec<TransactionId> = batch.iter().map(Transaction::id).collect();
        let stamp = client.causal_mode().then(|| self.next_stamp());
        let published = client.publish(stamp, batch).await?;
        self.mirror_decisions(&ids, &[]);
        self.record_timing(TimingBreakdown {
            store: published.timing.total(),
            local: Duration::ZERO,
        });
        self.obs.tracer.event(
            "participant.publish",
            &[
                ("participant", u64::from(self.id.as_u32())),
                ("epoch", published.value.as_u64()),
                ("txns", ids.len() as u64),
            ],
        );
        Ok(Some(published.value))
    }

    /// Allocates the participant's next causal stamp: its own next sequence
    /// number over its observed frontier, which then advances to include the
    /// new stamp (so consecutive own stamps chain).
    fn next_stamp(&mut self) -> CausalStamp {
        let stamp = CausalStamp::new(self.id, self.causal_seq, self.observed.clone());
        self.causal_seq += 1;
        self.observed.insert(stamp.id());
        stamp
    }

    /// True while the participant is partitioned from the store.
    pub fn is_offline(&self) -> bool {
        self.offline
    }

    /// The causally stamped batches buffered while offline, in stamp order.
    pub fn buffered_publications(&self) -> &[(CausalStamp, Vec<Transaction>)] {
        &self.buffered
    }

    /// Partitions the participant from the store: until
    /// [`Participant::rejoin`], publications are causally stamped and
    /// buffered locally and reconciliation is refused. Local transaction
    /// execution keeps working — that is the point of offline publishing.
    pub fn go_offline(&mut self) {
        self.offline = true;
    }

    /// Rejoins after a partition: drains the buffered publications into the
    /// store in stamp order and returns the arrival epochs they were
    /// assigned. The store must be in causal mode (the buffered batches
    /// carry causal stamps). On an error the failing batch and its
    /// successors stay buffered and the participant stays offline, so the
    /// rejoin can be retried.
    ///
    /// Healing is the one time the participant reads the store's causal
    /// frontier directly: it merges everything published while it was away,
    /// so its next stamp names it as parents.
    pub fn rejoin<S: UpdateStore + ?Sized>(
        &mut self,
        store: &S,
    ) -> Result<Vec<orchestra_model::Epoch>> {
        let client = InProcessClient::new(store, self.id);
        let mut epochs = Vec::with_capacity(self.buffered.len());
        while let Some((stamp, batch)) = self.buffered.first() {
            let ids: Vec<TransactionId> = batch.iter().map(Transaction::id).collect();
            let published = poll_ready(client.publish(Some(stamp.clone()), batch.clone()))?;
            self.buffered.remove(0);
            self.mirror_decisions(&ids, &[]);
            self.record_timing(TimingBreakdown {
                store: published.timing.total(),
                local: Duration::ZERO,
            });
            epochs.push(published.value);
        }
        self.offline = false;
        self.observed.merge(&store.causal_frontier());
        self.obs.tracer.event(
            "participant.rejoin",
            &[("participant", u64::from(self.id.as_u32())), ("batches", epochs.len() as u64)],
        );
        Ok(epochs)
    }

    /// Reconciles against the update store: opens a session, streams the
    /// relevant trusted candidates page by page, decides them with the
    /// client-centric algorithm, applies the accepted ones to the local
    /// instance, and commits the session (decisions plus reconciliation
    /// record) back at the store.
    ///
    /// This is the blocking form of [`Participant::reconcile_with`]: the
    /// same code, polled once over the [`InProcessClient`].
    pub fn reconcile<S: UpdateStore + ?Sized>(&mut self, store: &S) -> Result<ReconcileReport> {
        poll_ready(self.reconcile_with(&InProcessClient::new(store, self.id)))
    }

    /// The one reconcile routine: the paged session protocol travels through
    /// `client` — begin (with admission-control retry when framed), page
    /// streaming, commit (or error-path abort) — while the engine runs
    /// locally, so the decisions are identical on every path. Store cost is
    /// what the client reports: the store's own time in-process, the
    /// *virtual* time the frames took when framed, which under a concurrent
    /// driver includes queueing at the service. Over a
    /// [`FabricClient`](orchestra_store::FabricClient) the session is one
    /// session at the participant's home shard.
    pub async fn reconcile_with<C: SessionClient>(
        &mut self,
        client: &C,
    ) -> Result<ReconcileReport> {
        self.require_online()?;
        let _span =
            self.obs.tracer.span("reconcile", &[("participant", u64::from(self.id.as_u32()))]);
        let began = client.begin_session().await?;
        let info = began.value;
        let drained = match client.drain_candidates(info.session, self.reconcile_batch_size).await {
            Ok(drained) => drained,
            Err(e) => {
                let _ = client.abort(info.session).await;
                return Err(e);
            }
        };
        let mut retrieval = began.timing;
        retrieval.accumulate(drained.timing);
        self.decide_and_commit(client, info, retrieval, drained.value, None).await
    }

    /// Reconciles in the network-centric mode of Section 5: antecedent
    /// resolution and conflict detection are performed across the DHT peers
    /// (charged to store time and network traffic), and the local algorithm
    /// only resolves priorities and applies updates. The decisions made are
    /// identical to [`Participant::reconcile`]; only the cost distribution
    /// differs.
    pub fn reconcile_network_centric(
        &mut self,
        store: &orchestra_store::DhtStore,
    ) -> Result<ReconcileReport> {
        self.require_online()?;
        let Timed { value: plan, timing: retrieval } =
            store.begin_network_centric_reconciliation(self.id)?;
        let client = InProcessClient::new(store, self.id);
        let conflicts = Some(plan.conflicts);
        poll_ready(self.decide_and_commit(
            &client,
            plan.info,
            retrieval,
            plan.candidates,
            conflicts,
        ))
    }

    /// Refuses store-touching operations while partitioned.
    fn require_online(&self) -> Result<()> {
        if self.offline {
            return Err(StorageError::Causal(format!(
                "participant {} is offline; rejoin before reconciling",
                self.id
            )));
        }
        Ok(())
    }

    /// The engine-and-commit tail every reconciliation ends in: run the
    /// client-centric engine over the streamed candidates against the
    /// participant's soft-state snapshots, apply, commit the session through
    /// `client` (aborting it if the commit fails), and absorb the outcome
    /// into the participant's mirrors, timing and report.
    async fn decide_and_commit<C: SessionClient>(
        &mut self,
        client: &C,
        session: SessionInfo,
        retrieval: StoreTiming,
        candidates: Vec<CandidateTransaction>,
        precomputed_conflicts: Option<
            rustc_hash::FxHashMap<TransactionId, rustc_hash::FxHashSet<TransactionId>>,
        >,
    ) -> Result<ReconcileReport> {
        let local_start = Instant::now();
        let input = ReconcileInput {
            recno: session.recno,
            candidates,
            own_updates: std::mem::take(&mut self.last_published_updates),
            previously_rejected: Arc::clone(&self.rejected),
            previously_accepted: Arc::clone(&self.accepted),
            precomputed_conflicts,
        };
        let outcome = self.engine.reconcile(input, &mut self.instance, &mut self.soft);
        let local_elapsed = local_start.elapsed();

        let committed =
            client.commit(session.session, &outcome.accepted_members, &outcome.rejected).await;
        let commit_timing = match committed {
            Ok(timing) => timing,
            Err(e) => {
                let _ = client.abort(session.session).await;
                return Err(e);
            }
        };
        self.mirror_decisions(&outcome.accepted_members, &outcome.rejected);
        self.recno = session.recno;
        // The session's candidates covered everything at or behind the
        // frontier it opened at, so the participant has now observed it (a
        // no-op merge on scalar stores, whose frontier is empty).
        self.observed.merge(&session.frontier);

        let mut store_time = retrieval;
        store_time.accumulate(commit_timing);
        let timing = TimingBreakdown { store: store_time.total(), local: local_elapsed };
        self.record_timing(timing);

        Ok(ReconcileReport {
            recno: outcome.recno,
            epoch: session.epoch,
            accepted: outcome.accepted_roots,
            rejected: outcome.rejected,
            deferred: outcome.deferred,
            conflict_groups: outcome.conflict_groups,
            timing,
        })
    }

    /// Publishes pending transactions (if any) and then reconciles — the
    /// combined step the paper assumes participants perform together.
    pub fn publish_and_reconcile<S: UpdateStore + ?Sized>(
        &mut self,
        store: &S,
    ) -> Result<ReconcileReport> {
        self.publish(store)?;
        self.reconcile(store)
    }

    /// Resolves deferred conflicts according to the user's choices, records
    /// the resulting decisions at the store, and returns what changed.
    pub fn resolve_conflicts<S: UpdateStore + ?Sized>(
        &mut self,
        store: &S,
        choices: &[ResolutionChoice],
    ) -> Result<ResolutionReport> {
        self.require_online()?;
        let _span = self.obs.tracer.span(
            "conflict.resolve",
            &[("participant", u64::from(self.id.as_u32())), ("choices", choices.len() as u64)],
        );
        let local_start = Instant::now();
        let outcome = resolve_conflicts(
            &self.engine,
            self.recno,
            choices,
            &mut self.instance,
            &mut self.soft,
            &self.rejected,
            Arc::clone(&self.accepted),
        );
        let local_elapsed = local_start.elapsed();

        let mut rejected_all = outcome.newly_rejected.clone();
        rejected_all.extend(outcome.rerun.rejected.iter().copied());
        let record_timing =
            store.record_decisions(self.id, &outcome.rerun.accepted_members, &rejected_all)?;
        self.mirror_decisions(&outcome.rerun.accepted_members, &rejected_all);

        let timing = TimingBreakdown { store: record_timing.total(), local: local_elapsed };
        self.record_timing(timing);
        self.obs.tracer.event(
            "conflict.resolved",
            &[
                ("participant", u64::from(self.id.as_u32())),
                ("accepted", outcome.rerun.accepted_roots.len() as u64),
                ("rejected", rejected_all.len() as u64),
                ("deferred", outcome.rerun.deferred.len() as u64),
            ],
        );

        Ok(ResolutionReport {
            newly_rejected: rejected_all,
            newly_accepted: outcome.rerun.accepted_roots,
            still_deferred: outcome.rerun.deferred,
            timing,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orchestra_model::schema::bioinformatics_schema;
    use orchestra_model::Tuple;
    use orchestra_store::CentralStore;

    fn p(i: u32) -> ParticipantId {
        ParticipantId(i)
    }

    fn func(org: &str, prot: &str, f: &str) -> Tuple {
        Tuple::of_text(&[org, prot, f])
    }

    fn setup_pair() -> (CentralStore, Participant, Participant) {
        let schema = bioinformatics_schema();
        let store = CentralStore::new(schema.clone());
        let policy1 = TrustPolicy::new(p(1)).trusting(p(2), 1u32);
        let policy2 = TrustPolicy::new(p(2)).trusting(p(1), 1u32);
        store.register_participant(policy1.clone());
        store.register_participant(policy2.clone());
        let p1 = Participant::new(schema.clone(), ParticipantConfig::new(policy1));
        let p2 = Participant::new(schema, ParticipantConfig::new(policy2));
        (store, p1, p2)
    }

    #[test]
    fn execute_applies_locally_and_queues_for_publication() {
        let (_store, mut p1, _) = setup_pair();
        let id = p1
            .execute_transaction(vec![Update::insert(
                "Function",
                func("rat", "prot1", "immune"),
                p(1),
            )])
            .unwrap();
        assert_eq!(id, TransactionId::new(p(1), 0));
        assert_eq!(p1.instance().total_tuples(), 1);
        assert_eq!(p1.pending_publications().len(), 1);

        // A second transaction gets the next local id.
        let id2 = p1
            .execute_transaction(vec![Update::insert(
                "Function",
                func("mouse", "prot2", "immune"),
                p(1),
            )])
            .unwrap();
        assert_eq!(id2, TransactionId::new(p(1), 1));
    }

    #[test]
    fn execute_rejects_foreign_updates_and_invalid_transactions() {
        let (_store, mut p1, _) = setup_pair();
        let err = p1
            .execute_transaction(vec![Update::insert(
                "Function",
                func("rat", "prot1", "immune"),
                p(2),
            )])
            .unwrap_err();
        assert!(matches!(err, StorageError::Model(_)));
        assert!(p1.execute_transaction(vec![]).is_err());
        // A transaction violating local state is not applied or queued.
        p1.execute_transaction(vec![Update::insert("Function", func("rat", "prot1", "a"), p(1))])
            .unwrap();
        let err = p1
            .execute_transaction(vec![Update::insert("Function", func("rat", "prot1", "b"), p(1))])
            .unwrap_err();
        assert!(matches!(err, StorageError::DuplicateKey { .. }));
        assert_eq!(p1.pending_publications().len(), 1);
    }

    #[test]
    fn publish_and_reconcile_propagates_between_participants() {
        let (store, mut p1, mut p2) = setup_pair();
        p1.execute_transaction(vec![Update::insert(
            "Function",
            func("rat", "prot1", "immune"),
            p(1),
        )])
        .unwrap();
        let report1 = p1.publish_and_reconcile(&store).unwrap();
        assert!(report1.accepted.is_empty());
        assert_eq!(report1.epoch, orchestra_model::Epoch(1));

        let report2 = p2.publish_and_reconcile(&store).unwrap();
        assert_eq!(report2.accepted.len(), 1);
        assert!(p2.instance().contains_tuple_exact("Function", &func("rat", "prot1", "immune")));
        assert!(report2.timing.total() >= report2.timing.local);
    }

    #[test]
    fn timing_lands_in_the_sink_bound_last() {
        let (store, mut p1, mut p2) = setup_pair();
        for i in 0..40 {
            let tuple = func("rat", &format!("prot{i}"), "a");
            p2.execute_transaction(vec![Update::insert("Function", tuple, p(2))]).unwrap();
        }
        p2.publish(&store).unwrap();
        let (first, other) = (Obs::disabled(), Obs::disabled());
        p1.set_observability(&first);
        p1.set_observability(&other);
        let spent = p1.reconcile(&store).unwrap().timing;
        let micros = [spent.store.as_micros() as u64, spent.local.as_micros() as u64];
        assert!(micros[0] + micros[1] > 0, "reconciling 40 candidates takes time");
        let counters = |obs: &Obs| {
            ["participant.store_us", "participant.local_us"]
                .map(|name| obs.metrics.counter(name).get())
        };
        assert_eq!(counters(&other), micros);
        assert_eq!(counters(&first), [0, 0]);
    }

    #[test]
    fn publishing_nothing_is_a_noop() {
        let (store, mut p1, _) = setup_pair();
        assert_eq!(p1.publish(&store).unwrap(), None);
    }

    #[test]
    fn tiny_batch_sizes_reach_the_same_decisions() {
        // Page size 1 forces many next_batch calls; decisions and instances
        // must match the default page size.
        let run = |batch: usize| {
            let (store, mut p1, mut p2) = setup_pair();
            p1.set_reconcile_batch_size(batch);
            p2.set_reconcile_batch_size(batch);
            for i in 0..5u64 {
                p1.execute_transaction(vec![Update::insert(
                    "Function",
                    func("rat", &format!("prot{i}"), "immune"),
                    p(1),
                )])
                .unwrap();
                p1.publish(&store).unwrap();
            }
            let report = p2.publish_and_reconcile(&store).unwrap();
            (report.accepted.len(), p2.instance().relation_contents("Function"))
        };
        assert_eq!(run(1), run(DEFAULT_RECONCILE_BATCH_SIZE));
    }

    #[test]
    fn own_version_wins_over_remote_conflicting_version() {
        let (store, mut p1, mut p2) = setup_pair();
        // p1 publishes its value first.
        p1.execute_transaction(vec![Update::insert(
            "Function",
            func("rat", "prot1", "immune"),
            p(1),
        )])
        .unwrap();
        p1.publish_and_reconcile(&store).unwrap();

        // p2 executes a divergent value for the same key, then reconciles.
        p2.execute_transaction(vec![Update::insert(
            "Function",
            func("rat", "prot1", "cell-resp"),
            p(2),
        )])
        .unwrap();
        let report = p2.publish_and_reconcile(&store).unwrap();
        assert_eq!(report.rejected.len(), 1);
        assert!(p2.instance().contains_tuple_exact("Function", &func("rat", "prot1", "cell-resp")));
    }

    #[test]
    fn own_delta_accumulates_across_multiple_publications() {
        // Regression test: `publish` used to *overwrite* the own-delta, so
        // publishing twice before reconciling dropped the first batch and a
        // trusted remote transaction conflicting with it was wrongly
        // accepted. The scenario needs a remote update that is compatible
        // with p1's instance but conflicts with p1's first published batch: a
        // remote DELETE of the tuple p1 inserted.
        let (store, mut p1, mut p2) = setup_pair();

        // p1 publishes its insert (first batch, epoch 1) without reconciling.
        p1.execute_transaction(vec![Update::insert(
            "Function",
            func("rat", "prot1", "immune"),
            p(1),
        )])
        .unwrap();
        p1.publish(&store).unwrap();

        // p2 accepts it, then publishes a delete of that very tuple.
        p2.publish_and_reconcile(&store).unwrap();
        p2.execute_transaction(vec![Update::delete(
            "Function",
            func("rat", "prot1", "immune"),
            p(2),
        )])
        .unwrap();
        p2.publish(&store).unwrap();

        // p1 publishes a second, unrelated batch — with the bug this
        // overwrote the delta and forgot the prot1 insert.
        p1.execute_transaction(vec![Update::insert(
            "Function",
            func("mouse", "prot2", "ligase"),
            p(1),
        )])
        .unwrap();
        let report = p1.publish_and_reconcile(&store).unwrap();

        // The remote delete conflicts with p1's own (still unreconciled)
        // insert: the participant always prefers its own version, so the
        // delete must be rejected and the tuple must survive.
        assert_eq!(report.rejected.len(), 1, "remote delete must be rejected");
        assert!(report.accepted.is_empty());
        assert!(p1.instance().contains_tuple_exact("Function", &func("rat", "prot1", "immune")));
    }

    #[test]
    fn causal_mode_publishes_with_client_side_stamps() {
        let (store, mut p1, mut p2) = setup_pair();
        store.enable_causal_mode().unwrap();
        p1.execute_transaction(vec![Update::insert(
            "Function",
            func("rat", "prot1", "immune"),
            p(1),
        )])
        .unwrap();
        let epoch = p1.publish(&store).unwrap();
        assert_eq!(epoch, Some(orchestra_model::Epoch(1)));
        let report = p2.publish_and_reconcile(&store).unwrap();
        assert_eq!(report.accepted.len(), 1);
        assert!(p2.instance().contains_tuple_exact("Function", &func("rat", "prot1", "immune")));
        // The reconciliation merged the store frontier into p2's observed
        // clock: its next stamp names p1's publication as a parent.
        p2.execute_transaction(vec![Update::insert(
            "Function",
            func("mouse", "prot2", "ligase"),
            p(2),
        )])
        .unwrap();
        p2.publish(&store).unwrap();
        let frontier = store.causal_frontier();
        assert_eq!(frontier.seq_of(p(1)), Some(1));
        assert_eq!(frontier.seq_of(p(2)), Some(1));
    }

    #[test]
    fn offline_publications_buffer_and_rejoin_delivers_them() {
        let (store, mut p1, mut p2) = setup_pair();
        store.enable_causal_mode().unwrap();
        p1.go_offline();
        assert!(p1.is_offline());
        for (prot, f) in [("prot1", "immune"), ("prot2", "ligase")] {
            p1.execute_transaction(vec![Update::insert("Function", func("rat", prot, f), p(1))])
                .unwrap();
            assert_eq!(p1.publish(&store).unwrap(), None, "offline publish buffers");
        }
        // Both batches are stamped, the second chaining on the first; the
        // store has seen none of it and reconciliation is refused.
        let buffered = p1.buffered_publications();
        assert_eq!(buffered.len(), 2);
        assert_eq!(buffered[0].0.id(), orchestra_model::StampId::new(p(1), 1));
        assert_eq!(buffered[1].0.id(), orchestra_model::StampId::new(p(1), 2));
        assert!(buffered[1].0.parents.covers(buffered[0].0.id()));
        assert!(store.causal_frontier().is_empty());
        let err = p1.reconcile(&store).unwrap_err();
        assert!(err.to_string().contains("offline"), "got {err}");

        let epochs = p1.rejoin(&store).unwrap();
        assert_eq!(epochs, vec![orchestra_model::Epoch(1), orchestra_model::Epoch(2)]);
        assert!(!p1.is_offline());
        assert!(p1.buffered_publications().is_empty());
        assert_eq!(store.causal_frontier().seq_of(p(1)), Some(2));

        let report = p2.publish_and_reconcile(&store).unwrap();
        assert_eq!(report.accepted.len(), 2);
        // The rejoined participant still prefers its own (already applied)
        // versions on its next reconciliation.
        p1.reconcile(&store).unwrap();
        assert_eq!(p1.instance().total_tuples(), 2);
    }

    #[test]
    fn rejoin_on_a_scalar_store_keeps_the_buffer_and_stays_offline() {
        let (store, mut p1, _) = setup_pair();
        p1.go_offline();
        p1.execute_transaction(vec![Update::insert(
            "Function",
            func("rat", "prot1", "immune"),
            p(1),
        )])
        .unwrap();
        p1.publish(&store).unwrap();
        // The store is not in causal mode: the stamped batch is refused, the
        // buffer survives, the participant stays offline for a retry.
        assert!(p1.rejoin(&store).is_err());
        assert!(p1.is_offline());
        assert_eq!(p1.buffered_publications().len(), 1);
        store.enable_causal_mode().unwrap();
        assert_eq!(p1.rejoin(&store).unwrap(), vec![orchestra_model::Epoch(1)]);
        assert!(!p1.is_offline());
    }

    #[test]
    fn rebuild_refuses_history_that_retention_pruned() {
        use orchestra_storage::RetentionPolicy;
        let (store, mut p1, mut p2) = setup_pair();
        // Superseded history — an insert later deleted — is what
        // `ConvergedOnly` pruning can actually drop (still-live effects stay
        // pinned), and exactly what a replay needs.
        let step = |p1: &mut Participant, p2: &mut Participant, update: Update| {
            p1.execute_transaction(vec![update]).unwrap();
            p1.publish_and_reconcile(&store).unwrap();
            p2.reconcile(&store).unwrap();
        };
        step(&mut p1, &mut p2, Update::insert("Function", func("rat", "prot1", "v1"), p(1)));
        step(&mut p1, &mut p2, Update::delete("Function", func("rat", "prot1", "v1"), p(1)));
        step(&mut p1, &mut p2, Update::insert("Function", func("rat", "prot1", "v2"), p(1)));
        let rebuild = || {
            Participant::rebuild_from_store(
                bioinformatics_schema(),
                ParticipantConfig::new(p1.policy().clone()),
                &store,
            )
        };
        // Before the prune the history is whole and the rebuild is exact.
        let whole = rebuild().unwrap();
        assert_eq!(
            whole.instance().relation_contents("Function"),
            p1.instance().relation_contents("Function")
        );

        // Prune everything converged: superseded history leaves the log, and
        // a replay of what is left would not reproduce the live instance.
        store.catalog().close_membership().unwrap();
        store.catalog().set_retention(RetentionPolicy::ConvergedOnly);
        let report = store.catalog().prune_to_horizon().unwrap();
        assert!(report.pruned_log_entries > 0, "prune must drop history: {report:?}");

        let refused = rebuild().err();
        assert!(
            matches!(&refused, Some(StorageError::Retention(m)) if m.contains("participant p1")),
            "a rebuild over pruned history must refuse, naming p1: {refused:?}"
        );
    }

    #[test]
    fn conflict_resolution_round_trip() {
        let schema = bioinformatics_schema();
        let store = CentralStore::new(schema.clone());
        // p1 trusts p2 and p3 equally; p2 and p3 trust nobody.
        let policy1 = TrustPolicy::new(p(1)).trusting(p(2), 1u32).trusting(p(3), 1u32);
        let policy2 = TrustPolicy::new(p(2));
        let policy3 = TrustPolicy::new(p(3));
        store.register_participant(policy1.clone());
        store.register_participant(policy2.clone());
        store.register_participant(policy3.clone());
        let mut p1 = Participant::new(schema.clone(), ParticipantConfig::new(policy1));
        let mut p2 = Participant::new(schema.clone(), ParticipantConfig::new(policy2));
        let mut p3 = Participant::new(schema, ParticipantConfig::new(policy3));

        p2.execute_transaction(vec![Update::insert(
            "Function",
            func("rat", "prot1", "cell-resp"),
            p(2),
        )])
        .unwrap();
        p2.publish_and_reconcile(&store).unwrap();
        p3.execute_transaction(vec![Update::insert(
            "Function",
            func("rat", "prot1", "immune"),
            p(3),
        )])
        .unwrap();
        p3.publish_and_reconcile(&store).unwrap();

        let report = p1.publish_and_reconcile(&store).unwrap();
        assert_eq!(report.deferred.len(), 2);
        assert_eq!(p1.deferred_conflicts().len(), 1);

        // Resolve in favour of p3's value.
        let group = &p1.deferred_conflicts()[0];
        let key = group.key.clone();
        let idx = group
            .options
            .iter()
            .position(|o| o.transactions.iter().any(|t| t.participant == p(3)))
            .unwrap();
        let resolution = p1
            .resolve_conflicts(&store, &[ResolutionChoice { group: key, chosen_option: Some(idx) }])
            .unwrap();
        assert_eq!(resolution.newly_accepted.len(), 1);
        assert_eq!(resolution.newly_rejected.len(), 1);
        assert!(resolution.still_deferred.is_empty());
        assert!(p1.instance().contains_tuple_exact("Function", &func("rat", "prot1", "immune")));
        assert!(p1.deferred_conflicts().is_empty());
    }
}
