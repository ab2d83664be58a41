//! A confederation of participants sharing one update store.

use crate::metrics;
use crate::participant::{Participant, ParticipantConfig};
use crate::report::ReconcileReport;
use orchestra_model::{Epoch, ParticipantId, Schema, TransactionId, Update};
use orchestra_net::{NetworkStats, NodeId, SimNetwork, Transport};
use orchestra_obs::Obs;
use orchestra_rt::{LocalExecutor, VirtualClock};
use orchestra_storage::{Database, Result, StorageError};
use orchestra_store::{
    DhtStore, FabricClient, FabricConfig, ServiceConfig, ServiceStats, SessionClient, StoreFabric,
    StoreService, UpdateStore,
};
use rustc_hash::FxHashSet;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

fn unknown_participant(id: ParticipantId) -> StorageError {
    StorageError::Model(orchestra_model::ModelError::InvalidTransaction(format!(
        "unknown participant {id}"
    )))
}

/// Fails on the first of `ids` that names no participant — the one place a
/// driver validates the ids it was handed, before anything commits.
fn require_known<'i>(
    participants: &BTreeMap<ParticipantId, Participant>,
    ids: impl IntoIterator<Item = &'i ParticipantId>,
) -> Result<()> {
    match ids.into_iter().find(|id| !participants.contains_key(id)) {
        Some(missing) => Err(unknown_participant(*missing)),
        None => Ok(()),
    }
}

/// The participants named by `ids`, in id order; duplicate ids collapse to
/// one entry. Every id is validated first, so an unknown id cannot leave a
/// partially applied wave behind.
fn select<'p>(
    participants: &'p mut BTreeMap<ParticipantId, Participant>,
    ids: &[ParticipantId],
) -> Result<Vec<(ParticipantId, &'p mut Participant)>> {
    require_known(participants, ids)?;
    let wanted: FxHashSet<ParticipantId> = ids.iter().copied().collect();
    let chosen = participants.iter_mut().filter(|(id, _)| wanted.contains(id));
    Ok(chosen.map(|(id, participant)| (*id, participant)).collect())
}

fn duplicate_participant(id: ParticipantId) -> StorageError {
    StorageError::Model(orchestra_model::ModelError::InvalidTransaction(format!(
        "participant {id} is already registered"
    )))
}

/// A collaborative data sharing system: a set of participants, the schema
/// they share, and the update store through which they exchange published
/// transactions.
///
/// The system is a convenience driver — every operation it offers is also
/// available directly on [`Participant`] — but it keeps simulations and
/// examples short and enforces that every participant is registered with the
/// store before use. Because the store is accessed through a shared
/// reference, the system also offers *parallel* drivers
/// ([`CdssSystem::reconcile_all_parallel`],
/// [`CdssSystem::reconcile_each_parallel`]) that run one thread per
/// participant against the one shared store.
#[derive(Debug)]
pub struct CdssSystem<S: UpdateStore> {
    schema: Schema,
    store: S,
    participants: BTreeMap<ParticipantId, Participant>,
    /// The shared observability sink the system's drivers report into:
    /// round-phase spans, obs-backed simulated networks, and obs-injected
    /// service configs all come from here. Defaults to a disabled tracer
    /// with a private registry.
    obs: Obs,
}

impl<S: UpdateStore> CdssSystem<S> {
    /// Creates a system over the given schema and update store.
    pub fn new(schema: Schema, store: S) -> Self {
        CdssSystem { schema, store, participants: BTreeMap::new(), obs: Obs::disabled() }
    }

    /// Points the system — and every participant, current and future — at a
    /// shared observability sink. The service and fabric drivers bind the
    /// sink's tracer to their virtual clock, so captured traces are stamped
    /// in deterministic simulated time.
    pub fn set_observability(&mut self, obs: &Obs) {
        self.obs = obs.clone();
        for participant in self.participants.values_mut() {
            participant.set_observability(obs);
        }
    }

    /// The schema shared by all participants.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Access to the update store (e.g. to inspect statistics).
    pub fn store(&self) -> &S {
        &self.store
    }

    /// Adds a participant, registering its trust policy with the update
    /// store, and returns its identity. Registering the same
    /// [`ParticipantId`] twice is an error — the first registration stays
    /// intact (it is *not* silently overwritten).
    pub fn add_participant(&mut self, config: ParticipantConfig) -> Result<ParticipantId> {
        let id = config.policy.owner();
        if self.participants.contains_key(&id) {
            return Err(duplicate_participant(id));
        }
        self.store.register_participant(config.policy.clone());
        let mut participant = Participant::new(self.schema.clone(), config);
        participant.set_observability(&self.obs);
        self.participants.insert(id, participant);
        Ok(id)
    }

    /// Adopts an already-built participant — typically one reconstructed
    /// with [`Participant::rebuild_from_store`] after a crash. Unlike
    /// [`CdssSystem::add_participant`] this does **not** register the trust
    /// policy with the store: a recovered store already holds it (and its
    /// relevance index), and re-registering would needlessly rebuild the
    /// index and append a duplicate record to a durable store's log.
    /// Adopting an id that is already present is an error.
    pub fn adopt_participant(&mut self, mut participant: Participant) -> Result<ParticipantId> {
        let id = participant.id();
        if self.participants.contains_key(&id) {
            return Err(duplicate_participant(id));
        }
        participant.set_observability(&self.obs);
        self.participants.insert(id, participant);
        Ok(id)
    }

    /// Retires a participant: removes it from the confederation and tells
    /// the store, which keeps its durable decision record (decisions are
    /// final) but stops offering it candidates and — crucially for
    /// retention — stops letting it pin the convergence horizon. A laggard
    /// that will never reconcile again must be retired for `ConvergedOnly`
    /// pruning to make progress. Returns the removed participant, whose
    /// local instance the caller may archive.
    pub fn retire_participant(&mut self, id: ParticipantId) -> Result<Participant> {
        if !self.participants.contains_key(&id) {
            return Err(unknown_participant(id));
        }
        self.store.retire_participant(id)?;
        Ok(self.participants.remove(&id).expect("checked above"))
    }

    /// Restarts the store ([`UpdateStore::restart`]): the store is replaced
    /// by the one a restarted store process holds, recovered from everything
    /// it wrote. The participants keep their memory, as peers that are
    /// processes of their own do. On an error the store stays as it was.
    pub fn restart_store(&mut self) -> Result<()> {
        self.store = self.store.restart()?;
        Ok(())
    }

    /// Replaces a participant by one rebuilt from the store alone under the
    /// same trust policy ([`Participant::rebuild_from_store`]): a peer that
    /// lost its memory. What it had not published, pending or buffered while
    /// partitioned, is lost with it, and it comes back online.
    pub fn rebuild_participant(&mut self, id: ParticipantId) -> Result<()> {
        let config = ParticipantConfig::new(self.require(id)?.policy().clone());
        let mut rebuilt =
            Participant::rebuild_from_store(self.schema.clone(), config, &self.store)?;
        rebuilt.set_observability(&self.obs);
        self.participants.insert(id, rebuilt);
        Ok(())
    }

    /// The identities of all participants, in order.
    pub fn participant_ids(&self) -> Vec<ParticipantId> {
        self.participants.keys().copied().collect()
    }

    /// Number of participants.
    pub fn len(&self) -> usize {
        self.participants.len()
    }

    /// Returns true if the system has no participants.
    pub fn is_empty(&self) -> bool {
        self.participants.is_empty()
    }

    /// A participant by id.
    pub fn participant(&self, id: ParticipantId) -> Option<&Participant> {
        self.participants.get(&id)
    }

    fn require(&mut self, id: ParticipantId) -> Result<&mut Participant> {
        self.participants.get_mut(&id).ok_or_else(|| unknown_participant(id))
    }

    /// Split borrow of the store and one participant, so participant methods
    /// that take the store can be called through the system.
    fn store_and_participant(&mut self, id: ParticipantId) -> Result<(&S, &mut Participant)> {
        let store = &self.store;
        let participant = self.participants.get_mut(&id).ok_or_else(|| unknown_participant(id))?;
        Ok((store, participant))
    }

    /// Executes a transaction at a participant (applies it locally and queues
    /// it for the next publication).
    pub fn execute(&mut self, id: ParticipantId, updates: Vec<Update>) -> Result<TransactionId> {
        self.require(id)?.execute_transaction(updates)
    }

    /// Publishes a participant's pending transactions without reconciling
    /// (interleaved publish/reconcile schedules publish far more often than
    /// they reconcile). Returns the epoch assigned, or `None` if nothing was
    /// pending.
    pub fn publish(&mut self, id: ParticipantId) -> Result<Option<orchestra_model::Epoch>> {
        let (store, participant) = self.store_and_participant(id)?;
        participant.publish(store)
    }

    /// Publishes a participant's pending transactions and reconciles it
    /// against everything published so far.
    pub fn publish_and_reconcile(&mut self, id: ParticipantId) -> Result<ReconcileReport> {
        let (store, participant) = self.store_and_participant(id)?;
        participant.publish_and_reconcile(store)
    }

    /// Reconciles a participant without publishing.
    pub fn reconcile(&mut self, id: ParticipantId) -> Result<ReconcileReport> {
        let (store, participant) = self.store_and_participant(id)?;
        participant.reconcile(store)
    }

    /// Reconciles the given participants one after another (the serial
    /// driver the parallel one is benchmarked against). Every id is
    /// validated *before* any reconciliation commits, so an unknown id
    /// cannot leave a partially applied wave behind; duplicate ids collapse
    /// to one reconciliation. Reports come back in id order.
    pub fn reconcile_each(
        &mut self,
        ids: &[ParticipantId],
    ) -> Result<Vec<(ParticipantId, ReconcileReport)>> {
        let store = &self.store;
        let mut out = Vec::with_capacity(ids.len());
        for (id, participant) in select(&mut self.participants, ids)? {
            out.push((id, participant.reconcile(store)?));
        }
        Ok(out)
    }

    /// Reconciles every participant sequentially, in id order.
    pub fn reconcile_all(&mut self) -> Result<Vec<(ParticipantId, ReconcileReport)>> {
        let ids = self.participant_ids();
        self.reconcile_each(&ids)
    }

    /// Resolves deferred conflicts at a participant according to the given
    /// choices (see [`Participant::resolve_conflicts`]).
    pub fn resolve_conflicts(
        &mut self,
        id: ParticipantId,
        choices: &[orchestra_recon::ResolutionChoice],
    ) -> Result<crate::report::ResolutionReport> {
        let (store, participant) = self.store_and_participant(id)?;
        participant.resolve_conflicts(store, choices)
    }

    /// Switches the shared store to causal mode: participants allocate their
    /// own [`orchestra_model::CausalStamp`]s when publishing and can publish
    /// while [partitioned](CdssSystem::partition). Idempotent and one-way.
    pub fn enable_causal_mode(&self) -> Result<()> {
        self.store.enable_causal_mode()
    }

    /// Partitions the given participants from the store: until
    /// [`CdssSystem::heal`] they buffer causally stamped publications
    /// locally and refuse to reconcile. Every id is validated before any
    /// participant is taken offline.
    pub fn partition(&mut self, ids: &[ParticipantId]) -> Result<()> {
        require_known(&self.participants, ids)?;
        for id in ids {
            self.participants.get_mut(id).expect("validated above").go_offline();
        }
        Ok(())
    }

    /// The participants currently partitioned from the store, in id order.
    pub fn offline_ids(&self) -> Vec<ParticipantId> {
        self.participants
            .iter()
            .filter(|(_, participant)| participant.is_offline())
            .map(|(id, _)| *id)
            .collect()
    }

    /// Heals the partition: every offline participant rejoins in id order,
    /// draining its buffered publications into the store. Returns, per
    /// rejoined participant, the arrival epochs its buffered batches were
    /// assigned. A failing rejoin leaves that participant (and any not yet
    /// processed) offline with its buffer intact.
    pub fn heal(&mut self) -> Result<Vec<(ParticipantId, Vec<orchestra_model::Epoch>)>> {
        let store = &self.store;
        let mut out = Vec::new();
        for (id, participant) in self.participants.iter_mut() {
            if participant.is_offline() {
                out.push((*id, participant.rejoin(store)?));
            }
        }
        Ok(out)
    }

    /// The current database instances of every participant, in id order.
    pub fn instances(&self) -> Vec<&Database> {
        self.participants.values().map(Participant::instance).collect()
    }

    /// The state ratio (Section 6) across all participants, averaged over the
    /// populated relations of the schema.
    pub fn state_ratio(&self) -> f64 {
        metrics::state_ratio(&self.instances())
    }

    /// The state ratio restricted to one relation.
    pub fn state_ratio_for(&self, relation: &str) -> f64 {
        metrics::state_ratio_for_relation(&self.instances(), relation)
    }
}

impl<S: UpdateStore + Sync> CdssSystem<S> {
    /// Reconciles the given participants **in parallel**: one thread per
    /// participant, all driving reconciliation sessions against the one
    /// shared store (`&S`). The store's sharded locking lets the sessions
    /// proceed concurrently; each participant's local engine work runs on
    /// its own thread.
    ///
    /// With no publish interleaved, the decisions are identical to
    /// [`CdssSystem::reconcile_each`] over the same ids: a session's
    /// candidates depend only on the published log (pinned to the stable
    /// epoch) and the reconciler's *own* decision record, never on the
    /// concurrent decisions of other participants. The equivalence proptest
    /// in `tests/parallel_driver.rs` pins this down. Reports come back in id
    /// order.
    pub fn reconcile_each_parallel(
        &mut self,
        ids: &[ParticipantId],
    ) -> Result<Vec<(ParticipantId, ReconcileReport)>> {
        let store = &self.store;
        let selected = select(&mut self.participants, ids)?;
        let mut results: Vec<(ParticipantId, Result<ReconcileReport>)> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = selected
                    .into_iter()
                    .map(|(id, participant)| {
                        scope.spawn(move || (id, participant.reconcile(store)))
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("reconcile thread panicked")).collect()
            });
        results.sort_by_key(|(id, _)| *id);
        results.into_iter().map(|(id, r)| r.map(|report| (id, report))).collect()
    }

    /// Reconciles every participant in parallel (see
    /// [`CdssSystem::reconcile_each_parallel`]).
    pub fn reconcile_all_parallel(&mut self) -> Result<Vec<(ParticipantId, ReconcileReport)>> {
        let ids = self.participant_ids();
        self.reconcile_each_parallel(&ids)
    }
}

impl CdssSystem<DhtStore> {
    /// [`CdssSystem::reconcile_each`] in the paper's network-centric mode
    /// (see [`Participant::reconcile_network_centric`]): same validation,
    /// same decisions, same report order; the DHT peers do the antecedent
    /// resolution and conflict detection.
    pub fn reconcile_each_network_centric(
        &mut self,
        ids: &[ParticipantId],
    ) -> Result<Vec<(ParticipantId, ReconcileReport)>> {
        let store = &self.store;
        let mut out = Vec::with_capacity(ids.len());
        for (id, participant) in select(&mut self.participants, ids)? {
            out.push((id, participant.reconcile_network_centric(store)?));
        }
        Ok(out)
    }
}

/// What one service-driven round produced: reports in id order, per-session
/// virtual latencies, and the service/network counters of the round.
#[derive(Debug)]
pub struct ServiceDriveReport {
    /// Reconciliation reports, in participant-id order.
    pub results: Vec<(ParticipantId, ReconcileReport)>,
    /// Epochs assigned to the round's publishes, in publish order (`None`
    /// when a participant had nothing pending).
    pub published: Vec<(ParticipantId, Option<Epoch>)>,
    /// Virtual end-to-end session latency per reconciling participant
    /// (begin to commit, *including* queueing at the service), in
    /// microseconds, in participant-id order.
    pub latencies_us: Vec<u64>,
    /// Service counters accumulated over the round's phases.
    pub stats: ServiceStats,
    /// Frame traffic charged to the simulated network.
    pub net: NetworkStats,
    /// Virtual time consumed by the round, in microseconds.
    pub virtual_elapsed_us: u64,
}

/// What one fabric-driven round produced: reports in id order, per-session
/// virtual latencies, and per-shard service/traffic counters.
#[derive(Debug)]
pub struct FabricDriveReport {
    /// Reconciliation reports, in participant-id order.
    pub results: Vec<(ParticipantId, ReconcileReport)>,
    /// Epochs assigned to the round's publishes, in publish order (`None`
    /// when a participant had nothing pending).
    pub published: Vec<(ParticipantId, Option<Epoch>)>,
    /// Virtual end-to-end session latency per reconciling participant
    /// (begin to commit at its home shard, *including* queueing at that
    /// shard's service), in microseconds, in participant-id order.
    pub latencies_us: Vec<u64>,
    /// Per-shard service counters accumulated over the round's phases, in
    /// shard order.
    pub shard_stats: Vec<ServiceStats>,
    /// Frame traffic charged to the simulated network (all shards).
    pub net: NetworkStats,
    /// Request frames that arrived at each shard's server node, in shard
    /// order — the fabric's traffic skew.
    pub shard_frames: Vec<u64>,
    /// Virtual time consumed by the round, in microseconds.
    pub virtual_elapsed_us: u64,
}

/// One store a round serves: the store a [`StoreService`] fronts, that
/// service's configuration, and the overlay node it answers at. A single
/// service round has one; a fabric round has one per shard.
type Served<'a, T> = (&'a T, ServiceConfig, NodeId);

/// The services of one phase, on that phase's own executor.
struct Phase<'a> {
    ex: LocalExecutor<'a>,
    services: Vec<StoreService>,
}

impl<'a> Phase<'a> {
    /// A fresh executor on the round's clock with one service per served
    /// store started on it.
    fn start<T: UpdateStore>(
        clock: &VirtualClock,
        net: &Rc<SimNetwork>,
        served: &[Served<'a, T>],
    ) -> Phase<'a> {
        let mut ex = LocalExecutor::new(clock.clone());
        let services = served
            .iter()
            .map(|(store, config, node)| {
                let net = Rc::clone(net) as Rc<dyn Transport>;
                StoreService::start_at(*store, config, &mut ex, net, *node)
            })
            .collect();
        Phase { ex, services }
    }

    /// Runs the spawned client tasks to quiescence, shuts the services down
    /// and folds each service's counters into `shard_stats`.
    fn finish(mut self, phase: &str, shard_stats: &mut [ServiceStats]) -> Result<()> {
        self.ex.run();
        for service in &self.services {
            service.shutdown();
        }
        if self.ex.run() != 0 {
            return Err(StorageError::Session(format!("{phase} left tasks blocked")));
        }
        for (stats, service) in shard_stats.iter_mut().zip(&self.services) {
            stats.absorb(service.stats());
        }
        Ok(())
    }
}

impl<S: UpdateStore> CdssSystem<S> {
    /// The one round driver. The `publish_ids` participants publish their
    /// pending batches from one task with sequential awaits — the epoch
    /// order is the id order, exactly as the in-process drivers produce it,
    /// and on a fabric every shard logs the round's publishes in that order,
    /// so pinned replica epochs always match their primaries. Then the
    /// `reconcile_ids` participants all reconcile **concurrently**, one
    /// client task each, multiplexed onto the services' bounded worker pools
    /// on a single OS thread, with latency modelled in virtual time.
    ///
    /// `served` says which services each phase starts (every one reports
    /// into the system's sink) and `client_for` how a participant reaches
    /// them; that is all that differs between a single service and a fabric.
    /// `labels` name the two phase spans. Every id and every served config
    /// is validated before anything is published. The result is reported per served store, i.e.
    /// in the fabric round's shape; a single service is its one-shard case.
    fn run_round<T: UpdateStore, C: SessionClient>(
        &mut self,
        labels: [&'static str; 2],
        served: impl for<'a> FnOnce(&'a S) -> Vec<Served<'a, T>>,
        client_for: impl Fn(&[StoreService], ParticipantId) -> C,
        publish_ids: &[ParticipantId],
        reconcile_ids: &[ParticipantId],
    ) -> Result<FabricDriveReport> {
        let CdssSystem { store, participants, obs, .. } = self;
        let store = &*store;
        require_known(participants, publish_ids.iter().chain(reconcile_ids))?;
        let mut served = served(store);
        for (_, config, _) in &mut served {
            config.validate()?;
            config.obs = obs.clone();
        }
        let clock = VirtualClock::new();
        // Trace in deterministic simulated time, and report the round's
        // frame traffic and service counters into the shared sink.
        obs.tracer.bind_virtual(clock.shared_now());
        let net = Rc::new(SimNetwork::with_observability(
            served.iter().map(|(_, _, node)| *node).collect(),
            std::time::Duration::from_micros(SimNetwork::PAPER_LATENCY_US),
            &obs.metrics,
        ));
        let mut shard_stats = vec![ServiceStats::default(); served.len()];

        let mut published = Vec::new();
        if !publish_ids.is_empty() {
            let _phase = obs.tracer.span(labels[0], &[("publishers", publish_ids.len() as u64)]);
            let mut phase = Phase::start(&clock, &net, &served);
            let outcomes = Rc::new(RefCell::new(Vec::new()));
            let mut publishers: Vec<_> = select(participants, publish_ids)?
                .into_iter()
                .map(|(id, participant)| (id, participant, client_for(&phase.services, id)))
                .collect();
            let task_outcomes = Rc::clone(&outcomes);
            phase.ex.spawn(async move {
                for (id, participant, client) in &mut publishers {
                    let result = participant.publish_with(client).await;
                    task_outcomes.borrow_mut().push((*id, result));
                }
            });
            phase.finish(labels[0], &mut shard_stats)?;
            let outcomes = Rc::try_unwrap(outcomes).expect("publish task finished");
            for (id, result) in outcomes.into_inner() {
                published.push((id, result?));
            }
        }

        let mut outcomes = {
            let _phase = obs.tracer.span(labels[1], &[("reconcilers", reconcile_ids.len() as u64)]);
            let mut phase = Phase::start(&clock, &net, &served);
            let outcomes = Rc::new(RefCell::new(Vec::new()));
            for (id, participant) in select(participants, reconcile_ids)? {
                let client = client_for(&phase.services, id);
                let task_clock = clock.clone();
                let task_outcomes = Rc::clone(&outcomes);
                phase.ex.spawn(async move {
                    let start_us = task_clock.now_us();
                    let result = participant.reconcile_with(&client).await;
                    let latency_us = task_clock.now_us() - start_us;
                    task_outcomes.borrow_mut().push((id, result, latency_us));
                });
            }
            phase.finish(labels[1], &mut shard_stats)?;
            Rc::try_unwrap(outcomes).expect("reconcile tasks finished").into_inner()
        };

        outcomes.sort_by_key(|(id, _, _)| *id);
        let mut results = Vec::with_capacity(outcomes.len());
        let mut latencies_us = Vec::with_capacity(outcomes.len());
        for (id, result, latency_us) in outcomes {
            results.push((id, result?));
            latencies_us.push(latency_us);
        }
        // Per-shard skew: every frame that arrived at a shard server was
        // either served (`requests`) or shed at admission
        // (`busy_rejections`).
        let shard_frames =
            shard_stats.iter().map(|stats| stats.requests + stats.busy_rejections).collect();
        Ok(FabricDriveReport {
            results,
            published,
            latencies_us,
            shard_stats,
            net: net.stats(),
            shard_frames,
            virtual_elapsed_us: clock.now_us(),
        })
    }

    /// Drives one confederation round through the [`StoreService`]: the
    /// `publish_ids` participants publish their pending batches (sequential,
    /// so epoch assignment is deterministic), then the `reconcile_ids`
    /// participants all reconcile **concurrently** — thousands of framed
    /// sessions multiplexed onto the service's bounded worker pool on a
    /// single OS thread, with latency modelled in virtual time. An empty
    /// `publish_ids` makes it a pure reconciliation wave.
    ///
    /// Decisions are identical to [`CdssSystem::reconcile_each`] /
    /// [`CdssSystem::reconcile_each_parallel`] over the same schedule: the
    /// service serialises store calls per participant, and a session's
    /// outcome depends only on the published log and the reconciler's own
    /// record.
    pub fn run_service_round(
        &mut self,
        publish_ids: &[ParticipantId],
        reconcile_ids: &[ParticipantId],
        config: &ServiceConfig,
    ) -> Result<ServiceDriveReport> {
        let round = self.run_round(
            ["service.publish_phase", "service.reconcile_phase"],
            |store| vec![(store, config.clone(), StoreService::server_node())],
            |services, id| services[0].client_for(id),
            publish_ids,
            reconcile_ids,
        )?;
        Ok(ServiceDriveReport {
            results: round.results,
            published: round.published,
            latencies_us: round.latencies_us,
            stats: round.shard_stats[0],
            net: round.net,
            virtual_elapsed_us: round.virtual_elapsed_us,
        })
    }
}

impl CdssSystem<StoreFabric> {
    /// Drives one confederation round through a **sharded store fabric**:
    /// one [`StoreService`] per shard of the system's [`StoreFabric`], all on
    /// one simulated network. The `publish_ids` participants publish
    /// sequentially (primary at the home shard, pinned replicas everywhere
    /// else, so every shard logs the same global epoch order), then the
    /// `reconcile_ids` participants reconcile **concurrently**, each through
    /// a [`FabricClient`] that runs the session at the participant's home
    /// shard — three frames, one admission, whatever the shard count.
    ///
    /// Decisions are identical to the sequential and single-service drivers
    /// over the same schedule — the `fabric_driver` integration tests prove
    /// it property-based.
    pub fn run_fabric_round(
        &mut self,
        publish_ids: &[ParticipantId],
        reconcile_ids: &[ParticipantId],
        config: &FabricConfig,
    ) -> Result<FabricDriveReport> {
        let router = self.store.router();
        if router.shards() != config.shards {
            return Err(StorageError::Session(format!(
                "fabric config speaks {} shards but the store fabric has {}",
                config.shards,
                router.shards()
            )));
        }
        let tracer = self.obs.tracer.clone();
        self.run_round(
            ["fabric.publish_phase", "fabric.reconcile_phase"],
            // Each shard service reports under its own metric keys
            // (`service.requests{shard=N}`) and stamps its trace events with
            // the shard, so per-shard skew — how the participants, and with
            // them the sessions and the sheds, spread over the shards — is
            // directly visible.
            |fabric| {
                let shard_service = |shard| {
                    let labelled =
                        ServiceConfig { obs_shard: Some(shard as u64), ..config.service.clone() };
                    (fabric.shard(shard), labelled, StoreService::shard_server_node(shard))
                };
                (0..router.shards()).map(shard_service).collect()
            },
            |services, id| {
                let clients = services.iter().map(|service| service.client_for(id)).collect();
                FabricClient::new(router, clients, tracer.clone())
            },
            publish_ids,
            reconcile_ids,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orchestra_model::schema::bioinformatics_schema;
    use orchestra_model::{TrustPolicy, Tuple};
    use orchestra_store::CentralStore;

    fn p(i: u32) -> ParticipantId {
        ParticipantId(i)
    }

    fn func(org: &str, prot: &str, f: &str) -> Tuple {
        Tuple::of_text(&[org, prot, f])
    }

    fn fully_trusting_system(n: u32) -> CdssSystem<CentralStore> {
        fully_trusting(CentralStore::new(bioinformatics_schema()), n)
    }

    fn fully_trusting<S: UpdateStore>(store: S, n: u32) -> CdssSystem<S> {
        let mut system = CdssSystem::new(bioinformatics_schema(), store);
        for i in 1..=n {
            let mut policy = TrustPolicy::new(p(i));
            for j in 1..=n {
                if i != j {
                    policy = policy.trusting(p(j), 1u32);
                }
            }
            system.add_participant(ParticipantConfig::new(policy)).unwrap();
        }
        system
    }

    #[test]
    fn add_and_look_up_participants() {
        let system = fully_trusting_system(3);
        assert_eq!(system.len(), 3);
        assert!(!system.is_empty());
        assert_eq!(system.participant_ids(), vec![p(1), p(2), p(3)]);
        assert!(system.participant(p(2)).is_some());
        assert!(system.participant(p(9)).is_none());
    }

    #[test]
    fn duplicate_registration_is_rejected_not_overwritten() {
        let mut system = fully_trusting_system(2);
        // p1 executes a transaction so its participant state is observable.
        system
            .execute(p(1), vec![Update::insert("Function", func("rat", "prot1", "a"), p(1))])
            .unwrap();
        // Re-registering p1 (even with a different policy) must fail...
        let err =
            system.add_participant(ParticipantConfig::new(TrustPolicy::new(p(1)))).unwrap_err();
        assert!(err.to_string().contains("already registered"));
        // ...and the original participant state must be intact, not replaced
        // by a fresh empty participant.
        assert_eq!(system.len(), 2);
        assert_eq!(system.participant(p(1)).unwrap().pending_publications().len(), 1);
        assert_eq!(system.participant(p(1)).unwrap().policy().rules().len(), 1);
    }

    #[test]
    fn unknown_participants_are_reported() {
        let mut system = fully_trusting_system(1);
        assert!(system.execute(p(9), vec![]).is_err());
        assert!(system.publish_and_reconcile(p(9)).is_err());
        assert!(system.reconcile(p(9)).is_err());
        assert!(system.reconcile_each(&[p(9)]).is_err());
        assert!(system.reconcile_each_parallel(&[p(9)]).is_err());
    }

    #[test]
    fn retirement_removes_the_participant_everywhere() {
        let mut system = fully_trusting_system(3);
        system
            .execute(p(1), vec![Update::insert("Function", func("rat", "prot1", "a"), p(1))])
            .unwrap();
        system.publish_and_reconcile(p(1)).unwrap();
        let retired = system.retire_participant(p(3)).unwrap();
        assert_eq!(retired.id(), p(3));
        assert_eq!(system.len(), 2);
        assert_eq!(system.participant_ids(), vec![p(1), p(2)]);
        // The store forgot the registration (but not the decision record);
        // further driving of the retired id errors at the system.
        assert_eq!(system.store().catalog().participants(), vec![p(1), p(2)]);
        assert!(system.reconcile(p(3)).is_err());
        assert!(system.retire_participant(p(3)).is_err());
        assert!(system.retire_participant(p(9)).is_err());
        // The survivors keep working.
        system.publish_and_reconcile(p(2)).unwrap();
    }

    #[test]
    fn data_propagates_through_the_system() {
        let mut system = fully_trusting_system(3);
        system
            .execute(p(1), vec![Update::insert("Function", func("rat", "prot1", "immune"), p(1))])
            .unwrap();
        system.publish_and_reconcile(p(1)).unwrap();
        system.publish_and_reconcile(p(2)).unwrap();
        system.publish_and_reconcile(p(3)).unwrap();
        for id in system.participant_ids() {
            assert_eq!(system.participant(id).unwrap().instance().total_tuples(), 1);
        }
        assert!((system.state_ratio() - 1.0).abs() < 1e-9);
        assert!((system.state_ratio_for("Function") - 1.0).abs() < 1e-9);
    }

    #[test]
    fn parallel_driver_matches_sequential_decisions() {
        let drive = |parallel: bool| {
            let mut system = fully_trusting_system(4);
            for i in 1..=4u32 {
                system
                    .execute(
                        p(i),
                        vec![Update::insert(
                            "Function",
                            func("human", &format!("prot{i}"), "dna-repair"),
                            p(i),
                        )],
                    )
                    .unwrap();
                system.publish(p(i)).unwrap();
            }
            let reports = if parallel {
                system.reconcile_all_parallel().unwrap()
            } else {
                system.reconcile_all().unwrap()
            };
            let accepted: Vec<(ParticipantId, usize)> =
                reports.iter().map(|(id, r)| (*id, r.accepted.len())).collect();
            (accepted, system.state_ratio_for("Function"))
        };
        assert_eq!(drive(false), drive(true));
    }

    #[test]
    fn service_driver_matches_sequential_decisions_and_serves_publishes() {
        let seed = |system: &mut CdssSystem<CentralStore>| {
            for i in 1..=4u32 {
                system
                    .execute(
                        p(i),
                        vec![Update::insert(
                            "Function",
                            func("human", &format!("prot{i}"), "dna-repair"),
                            p(i),
                        )],
                    )
                    .unwrap();
            }
        };
        // Sequential reference: publish in id order, then reconcile all.
        let mut reference = fully_trusting_system(4);
        seed(&mut reference);
        for i in 1..=4u32 {
            reference.publish(p(i)).unwrap();
        }
        let sequential = reference.reconcile_all().unwrap();

        // Service-driven: publishes AND reconciliations travel as frames
        // through the bounded worker pool.
        let mut served = fully_trusting_system(4);
        seed(&mut served);
        let ids = served.participant_ids();
        let config = orchestra_store::ServiceConfig::default();
        let report = served.run_service_round(&ids, &ids, &config).unwrap();

        assert_eq!(report.published.iter().filter(|(_, e)| e.is_some()).count(), 4);
        assert_eq!(report.results.len(), sequential.len());
        for ((id_a, a), (id_b, b)) in report.results.iter().zip(&sequential) {
            assert_eq!(id_a, id_b);
            assert_eq!(a.accepted, b.accepted, "participant {id_a}");
            assert_eq!(a.rejected, b.rejected);
            assert_eq!(a.deferred, b.deferred);
        }
        assert_eq!(report.latencies_us.len(), 4);
        assert!(report.latencies_us.iter().all(|&l| l > 0), "frame latency is charged");
        assert!(report.virtual_elapsed_us > 0);
        // 4 publishes + 4 × (begin + pages + commit).
        assert!(report.stats.requests >= 4 + 4 * 3);
        assert!(report.net.messages >= report.stats.requests, "every frame is charged");
        assert!((served.state_ratio() - reference.state_ratio()).abs() < 1e-9);
        // Unknown ids are rejected up front.
        assert!(served.run_service_round(&[], &[p(9)], &config).is_err());
        assert!(served.run_service_round(&[p(9)], &[], &config).is_err());
    }

    /// An invalid service config fails the round with a typed error before
    /// anything is published — on one service and on a fabric alike — and
    /// leaves the pending edits for a valid round to publish.
    #[test]
    fn an_invalid_service_config_fails_the_round_before_anything_publishes() {
        fn edit_each<S: UpdateStore>(system: &mut CdssSystem<S>) {
            for id in system.participant_ids() {
                let prot = format!("prot{id}");
                system
                    .execute(id, vec![Update::insert("Function", func("rat", &prot, "a"), id)])
                    .unwrap();
            }
        }
        let broken = ServiceConfig { workers: 0, ..ServiceConfig::default() };

        let mut served = fully_trusting_system(2);
        edit_each(&mut served);
        let ids = served.participant_ids();
        let error = served.run_service_round(&ids, &ids, &broken).unwrap_err();
        assert!(matches!(error, StorageError::Session(_)), "got {error}");
        assert_eq!(served.store().catalog().log_len(), 0);
        served.run_service_round(&ids, &ids, &ServiceConfig::default()).unwrap();
        assert_eq!(served.store().catalog().log_len(), 2);

        let mut sharded = fully_trusting(StoreFabric::new(bioinformatics_schema(), 2), 2);
        edit_each(&mut sharded);
        let log_lens = |system: &CdssSystem<StoreFabric>| {
            (0..2).map(|shard| system.store().shard(shard).catalog().log_len()).collect::<Vec<_>>()
        };
        let config = FabricConfig { shards: 2, service: broken };
        let error = sharded.run_fabric_round(&ids, &ids, &config).unwrap_err();
        assert!(matches!(error, StorageError::Session(_)), "got {error}");
        assert_eq!(log_lens(&sharded), [0, 0]);
        let config = FabricConfig { shards: 2, service: ServiceConfig::default() };
        sharded.run_fabric_round(&ids, &ids, &config).unwrap();
        assert_eq!(log_lens(&sharded), [2, 2]);
    }

    #[test]
    fn observed_service_round_reports_into_the_shared_sink() {
        let mut system = fully_trusting_system(3);
        let obs = Obs::enabled();
        system.set_observability(&obs);
        for i in 1..=3u32 {
            system
                .execute(
                    p(i),
                    vec![Update::insert(
                        "Function",
                        func("human", &format!("prot{i}"), "dna-repair"),
                        p(i),
                    )],
                )
                .unwrap();
        }
        let ids = system.participant_ids();
        let config = orchestra_store::ServiceConfig::default();
        let report = system.run_service_round(&ids, &ids, &config).unwrap();

        // The service counters land in the shared registry under the
        // unlabelled keys (no fabric shard), matching the per-round view.
        assert_eq!(obs.metrics.counter("service.requests").get(), report.stats.requests);
        assert!(obs.metrics.counter("net.messages").get() >= report.stats.requests);
        assert!(obs.metrics.counter("participant.store_us").get() > 0);

        // The trace shows the round phases, the session protocol, and —
        // stamped from the virtual clock — deterministic timestamps.
        let trace = obs.tracer.export();
        assert!(trace.contains("service.publish_phase"), "missing phase span: {trace}");
        assert!(trace.contains("service.reconcile_phase"), "missing phase span: {trace}");
        assert!(trace.contains("session.begin"), "missing session events: {trace}");
        assert!(trace.contains("session.commit"), "missing commit events: {trace}");
        assert!(trace.contains("publish"), "missing publish events: {trace}");
    }

    #[test]
    fn partition_heal_reconverges_the_confederation() {
        let mut system = fully_trusting_system(3);
        system.enable_causal_mode().unwrap();
        system.partition(&[p(2), p(3)]).unwrap();
        assert_eq!(system.offline_ids(), vec![p(2), p(3)]);
        // Unknown ids are rejected before anyone is taken offline.
        assert!(system.partition(&[p(1), p(9)]).is_err());
        assert!(!system.participant(p(1)).unwrap().is_offline());

        // The connected participant publishes; the partitioned ones keep
        // executing and buffering.
        system
            .execute(p(1), vec![Update::insert("Function", func("rat", "prot1", "a"), p(1))])
            .unwrap();
        system.publish(p(1)).unwrap();
        for i in [2u32, 3] {
            system
                .execute(
                    p(i),
                    vec![Update::insert(
                        "Function",
                        func("human", &format!("prot{i}"), "dna-repair"),
                        p(i),
                    )],
                )
                .unwrap();
            assert_eq!(system.publish(p(i)).unwrap(), None, "offline publish buffers");
            assert!(system.reconcile(p(i)).is_err(), "offline reconcile is refused");
        }

        let healed = system.heal().unwrap();
        assert_eq!(healed.len(), 2);
        assert!(healed.iter().all(|(_, epochs)| epochs.len() == 1));
        assert!(system.offline_ids().is_empty());

        // After healing everyone reconciles to the same state.
        system.reconcile_all().unwrap();
        system.reconcile_all().unwrap();
        assert!((system.state_ratio() - 1.0).abs() < 1e-9, "ratio {}", system.state_ratio());
        for id in system.participant_ids() {
            assert_eq!(system.participant(id).unwrap().instance().total_tuples(), 3);
        }
    }

    #[test]
    fn divergence_shows_up_in_the_state_ratio() {
        let mut system = fully_trusting_system(2);
        system
            .execute(p(1), vec![Update::insert("Function", func("rat", "prot1", "a"), p(1))])
            .unwrap();
        system
            .execute(p(2), vec![Update::insert("Function", func("rat", "prot1", "b"), p(2))])
            .unwrap();
        system.publish_and_reconcile(p(1)).unwrap();
        system.publish_and_reconcile(p(2)).unwrap();
        system.reconcile(p(1)).unwrap();
        // Each participant keeps its own version: the state ratio reflects
        // the divergence.
        let ratio = system.state_ratio_for("Function");
        assert!((ratio - 2.0).abs() < 1e-9, "ratio was {ratio}");
    }
}
