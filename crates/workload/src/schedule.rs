//! One schedule type and one interpreter for it.
//!
//! A participant's decisions are a function of the published log and its own
//! trust policy — that is, of the *schedule* of execute, publish, reconcile
//! and resolve steps the confederation went through. Here that schedule is a
//! value: a [`Step`] says *what* happens, a [`Driver`] *how* a publish and a
//! reconciliation wave reach the store, and [`Confederation::apply`] is the
//! one place a step is executed. Every runner of this crate builds a
//! `Vec<Step>` and folds the [`Outcome`]s; the integration tests generate one
//! and call the same `apply`.
//!
//! The store's own events are steps too, because the contract must hold
//! across them: a snapshot, a prune, a store crash and a participant that
//! loses its memory each leave every later decision as it was. They reach the
//! store through [`UpdateStore`]'s administration methods, which a store
//! without the capability refuses with a typed error. What is not a step —
//! retirement, a late registration, reading the store's state — a runner
//! does on [`Confederation::system`] between two steps.

use crate::generator::{WorkloadConfig, WorkloadGenerator};
use crate::swissprot::SwissProtPools;
use orchestra::{CdssSystem, ParticipantConfig, ReconcileReport, ResolutionReport};
use orchestra_model::schema::bioinformatics_schema;
use orchestra_model::{Epoch, KeyValue, ModelError, ParticipantId, TrustPolicy, Tuple, Update};
use orchestra_recon::ResolutionChoice;
use orchestra_storage::{Database, Result, StorageError};
use orchestra_store::{
    DhtStore, FabricConfig, PruneReport, ServiceConfig, ServiceStats, StoreFabric, UpdateStore,
};
use rustc_hash::FxHashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One step of a confederation's schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step {
    /// `who` executes `transactions` transactions drawn from its
    /// [`WorkloadGenerator`] against its current instance. A transaction
    /// that no longer applies is skipped, as a curator abandons an edit.
    Generate {
        /// The executing participant.
        who: ParticipantId,
        /// How many transactions to draw.
        transactions: usize,
    },
    /// `who` writes, in one transaction, each `(key, value)` of `writes`
    /// under the `Function` relation: the value of index `value` under the
    /// protein of index `key`, as an insertion if its instance lacks the
    /// key, a revision if it holds another value, nothing if it holds this
    /// one. The keys are distinct; a transaction that writes nothing is not
    /// executed.
    Edit {
        /// The executing participant.
        who: ParticipantId,
        /// The `(key, value)` index pairs written.
        writes: Vec<(usize, usize)>,
    },
    /// The participants publish their pending transactions, one after
    /// another in the order given, so the epoch order is the schedule's.
    Publish(Vec<ParticipantId>),
    /// The participants reconcile as one wave: no publish intervenes, so
    /// every driver reaches the same decisions. Partitioned participants
    /// sit the wave out.
    Reconcile(Vec<ParticipantId>),
    /// `who` keeps option `option` (modulo the group's size) of every open
    /// conflict group; nothing happens without one, or while `who` is
    /// partitioned. Every runner of this crate keeps option 0.
    Resolve {
        /// The curating participant.
        who: ParticipantId,
        /// Which option of each group survives.
        option: usize,
    },
    /// [`Step::Resolve`] of option 0 for everyone, firing without a group too: a candidate
    /// deferred over a dirty value whose only relatives subsume it forms
    /// none, and only a re-run of the deferred set decides it.
    ResolveAll,
    /// The participants are cut off from the store: until [`Step::Heal`]
    /// they buffer causally stamped publications (the store must be in
    /// causal mode) and take no part in waves.
    Partition(Vec<ParticipantId>),
    /// Every partitioned participant rejoins, delivering what it buffered.
    Heal,
    /// The store takes a compacting snapshot ([`UpdateStore::snapshot`]).
    Snapshot,
    /// The store prunes converged history under its retention policy
    /// ([`UpdateStore::prune_to_horizon`]); [`Outcome::pruned`] carries the
    /// report.
    Prune,
    /// The store process is killed and restarted from everything it wrote
    /// ([`UpdateStore::restart`], which refuses a recovered catalogue that
    /// does not render byte-identically to the one that crashed). The
    /// participants keep their memory: they are processes of their own.
    Crash,
    /// The participants lose their memory and are rebuilt from the store
    /// alone, each under its own policy
    /// ([`orchestra::Participant::rebuild_from_store`]).
    Rebuild(Vec<ParticipantId>),
}

/// What one [`Step`] did; the fields of the other kinds of step stay at
/// their defaults, and so do the framed ones under an in-process driver.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Transactions a `Generate` or `Edit` step drew.
    pub transactions: u64,
    /// Updates in those transactions.
    pub updates: u64,
    /// Per publisher of a `Publish` step, the epoch assigned (`None` when
    /// nothing was pending or the batch was buffered offline).
    pub published: Vec<(ParticipantId, Option<Epoch>)>,
    /// The reports of a `Reconcile` step, in participant order.
    pub reconciled: Vec<(ParticipantId, ReconcileReport)>,
    /// The reports of a `Resolve` or `ResolveAll` step, one per participant
    /// that had something to resolve.
    pub resolved: Vec<(ParticipantId, ResolutionReport)>,
    /// Buffered batches a `Heal` step delivered.
    pub healed_batches: usize,
    /// The report of a `Prune` step.
    pub pruned: Option<PruneReport>,
    /// Framed: virtual latency of each session of the wave, begin to commit
    /// including queueing, in participant order.
    pub latencies_us: Vec<u64>,
    /// Framed: the counters of every service that served the step.
    pub shard_stats: Vec<ServiceStats>,
    /// The fabric only: request frames that arrived at each shard.
    pub shard_frames: Vec<u64>,
    /// Framed: messages charged to the simulated network.
    pub net_messages: u64,
    /// Framed: bytes charged to the simulated network.
    pub net_bytes: u64,
    /// Framed: virtual time the step consumed.
    pub virtual_elapsed_us: u64,
    /// Wall clock of the step.
    pub wall: Duration,
}

/// Decision totals of a run — everything that must be identical between two
/// runs of one schedule, whatever the store, the driver or the crashes in
/// between.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChurnTotals {
    /// Reconciliations performed.
    pub reconciliations: usize,
    /// Publish calls that assigned an epoch.
    pub publishes: usize,
    /// Root transactions accepted.
    pub accepted: usize,
    /// Root transactions rejected.
    pub rejected: usize,
    /// Root transactions deferred.
    pub deferred: usize,
    /// Conflict-resolution rounds performed.
    pub resolutions: usize,
    /// Final state ratio over the `Function` relation.
    pub state_ratio: f64,
}

/// How a [`Step::Publish`] and a [`Step::Reconcile`] are executed — the one
/// definition of each deployment model. Publishes are sequential under every
/// driver and a wave pins the log, so all drivers reach identical decisions.
pub struct Driver<S: UpdateStore>(Deployment<S>);

/// A wave in process: the participants reconcile, reports in id order.
type Wave<S> =
    fn(&mut CdssSystem<S>, &[ParticipantId]) -> Result<Vec<(ParticipantId, ReconcileReport)>>;

/// A fabric round: the first list publishes in order, then the second
/// reconciles as one wave. A step fills one of the two.
type FabricRound<S> = fn(
    &mut CdssSystem<S>,
    &[ParticipantId],
    &[ParticipantId],
    &FabricConfig,
) -> Result<orchestra::FabricDriveReport>;

enum Deployment<S: UpdateStore> {
    /// A publish is a store call on the caller's thread; a wave is this.
    InProcess(Wave<S>),
    /// Publishes, then sessions, travel as frames on the virtual clock to
    /// one service started from this configuration.
    Service(ServiceConfig),
    /// The same, to one service per shard of the fabric.
    Fabric(FabricRound<S>, FabricConfig),
}

impl<S: UpdateStore> Driver<S> {
    /// One store call after another, on the caller's thread.
    pub fn sequential() -> Self {
        Driver(Deployment::InProcess(CdssSystem::reconcile_each))
    }

    /// Publishes and sessions travel through one
    /// [`StoreService`](orchestra_store::StoreService); the sessions of a
    /// wave are multiplexed onto its worker pool.
    pub fn service(config: ServiceConfig) -> Self {
        Driver(Deployment::Service(config))
    }

    fn round(
        &self,
        system: &mut CdssSystem<S>,
        publish: &[ParticipantId],
        reconcile: &[ParticipantId],
    ) -> Result<Outcome> {
        match &self.0 {
            Deployment::InProcess(wave) => {
                let mut outcome = Outcome::default();
                for &id in publish {
                    outcome.published.push((id, system.publish(id)?));
                }
                if !reconcile.is_empty() {
                    outcome.reconciled = wave(system, reconcile)?;
                }
                Ok(outcome)
            }
            Deployment::Service(config) => {
                system.run_service_round(publish, reconcile, config).map(served)
            }
            Deployment::Fabric(round, config) => {
                round(system, publish, reconcile, config).map(framed)
            }
        }
    }
}

impl<S: UpdateStore + Sync> Driver<S> {
    /// In-process publishes; a wave runs one OS thread per participant
    /// against the shared store.
    pub fn threads() -> Self {
        Driver(Deployment::InProcess(CdssSystem::reconcile_each_parallel))
    }
}

impl Driver<StoreFabric> {
    /// One service per shard of the fabric: a publish fans out from the
    /// publisher's home shard, a session runs at the reconciler's.
    pub fn fabric(config: FabricConfig) -> Self {
        Driver(Deployment::Fabric(CdssSystem::run_fabric_round, config))
    }
}

impl Driver<DhtStore> {
    /// In-process publishes; a reconciliation runs in the paper's
    /// network-centric mode (Section 5), the DHT peers resolving antecedents
    /// and detecting conflicts.
    pub fn network_centric() -> Self {
        Driver(Deployment::InProcess(CdssSystem::reconcile_each_network_centric))
    }
}

fn unknown_participant(id: ParticipantId) -> StorageError {
    invalid(format!("unknown participant {id}"))
}

fn invalid(what: String) -> StorageError {
    StorageError::Model(ModelError::InvalidTransaction(what))
}

fn framed(round: orchestra::FabricDriveReport) -> Outcome {
    Outcome {
        published: round.published,
        reconciled: round.results,
        latencies_us: round.latencies_us,
        shard_stats: round.shard_stats,
        shard_frames: round.shard_frames,
        net_messages: round.net.messages,
        net_bytes: round.net.bytes,
        virtual_elapsed_us: round.virtual_elapsed_us,
        ..Outcome::default()
    }
}

/// A single service is the fabric's one-shard case, minus the per-shard
/// frame skew a lone service cannot have.
fn served(round: orchestra::ServiceDriveReport) -> Outcome {
    Outcome {
        published: round.published,
        reconciled: round.results,
        latencies_us: round.latencies_us,
        shard_stats: vec![round.stats],
        net_messages: round.net.messages,
        net_bytes: round.net.bytes,
        virtual_elapsed_us: round.virtual_elapsed_us,
        ..Outcome::default()
    }
}

/// A confederation under a schedule: the system, each participant's workload
/// generator, and the decision totals of the steps applied so far.
///
/// The fields are public: a runner reads the system between two steps, and
/// participants built elsewhere are assembled into a confederation from the
/// three. A [`Step::Crash`] replaces the store inside `system` and spares
/// everything else.
#[derive(Debug)]
pub struct Confederation<S: UpdateStore> {
    /// The participants and the store they share.
    pub system: CdssSystem<S>,
    /// The generator behind each participant's [`Step::Generate`]; empty
    /// until [`Confederation::seed_generators`].
    pub generators: FxHashMap<ParticipantId, WorkloadGenerator>,
    /// Totals of the steps applied so far (`state_ratio` stays 0; see
    /// [`Confederation::closing_totals`]).
    pub totals: ChurnTotals,
}

impl<S: UpdateStore> Confederation<S> {
    /// A confederation over the bioinformatics schema with one participant
    /// per trust policy, registered with `store`.
    pub fn new(store: S, policies: Vec<TrustPolicy>) -> Self {
        let mut system = CdssSystem::new(bioinformatics_schema(), store);
        for policy in policies {
            system.add_participant(ParticipantConfig::new(policy)).expect("unique participants");
        }
        Confederation { system, generators: FxHashMap::default(), totals: ChurnTotals::default() }
    }

    /// Gives every participant a generator over one shared pool set (the
    /// pools depend on the universe sizes alone, and a copy per participant
    /// of a multi-million-key universe would dwarf the store). Participant
    /// `id` draws from the stream seeded `seed + id * stride`.
    pub fn seed_generators(&mut self, workload: &WorkloadConfig, seed: u64, stride: u64) {
        let pools = Arc::new(SwissProtPools::new(workload.key_universe, workload.function_pool));
        for id in self.system.participant_ids() {
            let seed = seed.wrapping_add(u64::from(id.as_u32()) * stride);
            let generator =
                WorkloadGenerator::with_shared_pools(workload.clone(), Arc::clone(&pools), seed);
            self.generators.insert(id, generator);
        }
    }

    /// The totals so far, with the state ratio over `Function` as it stands.
    pub fn closing_totals(&self) -> ChurnTotals {
        ChurnTotals { state_ratio: self.system.state_ratio_for("Function"), ..self.totals.clone() }
    }

    /// Applies the steps in order, handing each outcome to `fold`.
    pub fn run(
        &mut self,
        steps: &[Step],
        driver: &Driver<S>,
        mut fold: impl FnMut(Outcome),
    ) -> Result<()> {
        steps.iter().try_for_each(|step| self.apply(step, driver).map(&mut fold))
    }

    /// Executes one step — the only place a step is executed — and adds its
    /// decisions to [`Confederation::totals`].
    pub fn apply(&mut self, step: &Step, driver: &Driver<S>) -> Result<Outcome> {
        let start = Instant::now();
        let system = &mut self.system;
        let mut outcome = match step {
            Step::Generate { who, transactions } => {
                let instance = instance_of(system, *who)?;
                let generator = self
                    .generators
                    .get_mut(who)
                    .ok_or_else(|| invalid(format!("no generator for {who}")))?;
                let batch = generator.next_batch(*who, instance, *transactions);
                execute(system, *who, batch)
            }
            Step::Edit { who, writes } => {
                let instance = instance_of(system, *who)?;
                let updates: Vec<Update> = writes
                    .iter()
                    .filter_map(|&(key, value)| edit(instance, *who, key, value))
                    .collect();
                execute(system, *who, (!updates.is_empty()).then_some(updates))
            }
            Step::Publish(ids) => driver.round(system, ids, &[])?,
            Step::Reconcile(ids) => match online(system, ids.iter().copied()) {
                wave if wave.is_empty() => Outcome::default(),
                wave => driver.round(system, &[], &wave)?,
            },
            Step::Resolve { who, option } => resolve(system, [*who], *option, false)?,
            Step::ResolveAll => resolve(system, system.participant_ids(), 0, true)?,
            Step::Partition(ids) => system.partition(ids).map(|()| Outcome::default())?,
            Step::Heal => {
                let healed = system.heal()?;
                let healed_batches = healed.iter().map(|(_, epochs)| epochs.len()).sum();
                Outcome { healed_batches, ..Outcome::default() }
            }
            Step::Snapshot => system.store().snapshot().map(|_| Outcome::default())?,
            Step::Prune => {
                Outcome { pruned: Some(system.store().prune_to_horizon()?), ..Outcome::default() }
            }
            Step::Crash => system.restart_store().map(|()| Outcome::default())?,
            Step::Rebuild(ids) => {
                ids.iter().try_for_each(|&id| system.rebuild_participant(id))?;
                Outcome::default()
            }
        };
        outcome.wall = start.elapsed();

        let totals = &mut self.totals;
        totals.publishes += outcome.published.iter().filter(|(_, epoch)| epoch.is_some()).count();
        totals.reconciliations += outcome.reconciled.len();
        for (_, report) in &outcome.reconciled {
            totals.accepted += report.accepted.len();
            totals.rejected += report.rejected.len();
            totals.deferred += report.deferred.len();
        }
        totals.resolutions += outcome.resolved.len();
        Ok(outcome)
    }
}

/// Those of `ids` that are not partitioned from the store. Reconciling and
/// resolving are store conversations; they wait for the heal. An unknown id
/// is passed on for the driver to refuse.
fn online<S: UpdateStore>(
    system: &CdssSystem<S>,
    ids: impl IntoIterator<Item = ParticipantId>,
) -> Vec<ParticipantId> {
    ids.into_iter().filter(|&id| !system.participant(id).is_some_and(|p| p.is_offline())).collect()
}

fn instance_of<S: UpdateStore>(system: &CdssSystem<S>, who: ParticipantId) -> Result<&Database> {
    system.participant(who).map(|p| p.instance()).ok_or_else(|| unknown_participant(who))
}

/// Executes the transactions at `who`. Each was written against the instance
/// as of the start of the batch: an earlier one of the batch, or a
/// reconciliation since the curator looked, may have changed a value a
/// revision names, and such a transaction is abandoned.
fn execute<S: UpdateStore>(
    system: &mut CdssSystem<S>,
    who: ParticipantId,
    batch: impl IntoIterator<Item = Vec<Update>>,
) -> Outcome {
    let mut outcome = Outcome::default();
    for updates in batch {
        outcome.transactions += 1;
        outcome.updates += updates.len() as u64;
        let _ = system.execute(who, updates);
    }
    outcome
}

/// One write of a [`Step::Edit`] against `instance`, if it changes anything.
fn edit(instance: &Database, who: ParticipantId, key: usize, value: usize) -> Option<Update> {
    let protein = format!("prot{key}");
    let tuple = Tuple::of_text(&["org", &protein, &format!("f{value}")]);
    match instance.value_at("Function", &KeyValue::of_text(&["org", &protein])) {
        None => Some(Update::insert("Function", tuple, who)),
        Some(current) if current != tuple => Some(Update::modify("Function", current, tuple, who)),
        Some(_) => None,
    }
}

/// The curation every schedule uses: each online one of `ids` keeps option
/// `option` (modulo the group's size) of every open conflict group. Without
/// a group nothing happens — unless `rerun` asks for the deferred set to be
/// re-run regardless.
fn resolve<S: UpdateStore>(
    system: &mut CdssSystem<S>,
    ids: impl IntoIterator<Item = ParticipantId>,
    option: usize,
    rerun: bool,
) -> Result<Outcome> {
    let mut outcome = Outcome::default();
    for id in online(system, ids) {
        let participant = system.participant(id).ok_or_else(|| unknown_participant(id))?;
        let choices: Vec<ResolutionChoice> = participant
            .deferred_conflicts()
            .iter()
            .map(|group| ResolutionChoice {
                group: group.key.clone(),
                chosen_option: Some(option % group.options.len()),
            })
            .collect();
        let due = !choices.is_empty() || rerun && !participant.soft_state().deferred().is_empty();
        if due {
            outcome.resolved.push((id, system.resolve_conflicts(id, &choices)?));
        }
    }
    Ok(outcome)
}

/// Whether participant `idx` reconciles in `round`: every
/// `1 + idx % max_interval` rounds, offset by `idx`, so at any moment
/// different participants lag the stable frontier by different amounts.
fn reconciles(round: usize, idx: usize, max_interval: usize) -> bool {
    let interval = 1 + idx % max_interval.max(1);
    (round + idx) % interval == 0
}

/// Whether participant `idx` curates its open conflicts in `round`.
fn resolves(round: usize, idx: usize, resolve_every: usize) -> bool {
    resolve_every > 0 && (round + idx) % resolve_every == 0
}

/// The turns of the interleaved churn schedule, `ids.len()` to a round: a
/// participant executes and publishes a batch, reconciles if due, curates if
/// due. A crash, a prune or a partition falls between two turns.
pub(crate) fn churn_turns(config: &crate::ChurnConfig, ids: &[ParticipantId]) -> Vec<Vec<Step>> {
    let turn = |round, idx, id| {
        let mut turn = vec![
            Step::Generate { who: id, transactions: config.transactions_per_publish },
            Step::Publish(vec![id]),
        ];
        if reconciles(round, idx, config.max_reconcile_interval) {
            turn.push(Step::Reconcile(vec![id]));
        }
        if resolves(round, idx, config.resolve_every) {
            turn.push(Step::Resolve { who: id, option: 0 });
        }
        turn
    };
    let round = |round| ids.iter().enumerate().map(move |(idx, &id)| turn(round, idx, id));
    (0..config.rounds).flat_map(round).collect()
}

/// The waved churn schedule — the interleaved rounds with their phases
/// gathered: everyone executes, everyone publishes, the due participants
/// reconcile as one wave, the due curators resolve — and a catch-up wave that
/// brings every driver to the same converged frontier.
pub(crate) fn wave_schedule(
    rounds: usize,
    transactions: usize,
    max_interval: usize,
    resolve_every: usize,
    ids: &[ParticipantId],
) -> Vec<Step> {
    let mut steps = Vec::new();
    for round in 0..rounds {
        steps.extend(ids.iter().map(|&who| Step::Generate { who, transactions }));
        steps.push(Step::Publish(ids.to_vec()));
        let indexed = || ids.iter().copied().enumerate();
        let due: Vec<ParticipantId> = indexed()
            .filter(|&(idx, _)| reconciles(round, idx, max_interval))
            .map(|(_, id)| id)
            .collect();
        if !due.is_empty() {
            steps.push(Step::Reconcile(due));
        }
        let curators = indexed().filter(|&(idx, _)| resolves(round, idx, resolve_every));
        steps.extend(curators.map(|(_, who)| Step::Resolve { who, option: 0 }));
    }
    steps.push(Step::Reconcile(ids.to_vec()));
    steps
}

/// The catch-up that lets the convergence horizon reach the end of a
/// schedule: everyone sees the full history, leftover conflicts are curated
/// away, and one more wave records the re-run decisions.
pub(crate) fn converge(ids: &[ParticipantId]) -> [Step; 3] {
    [Step::Reconcile(ids.to_vec()), Step::ResolveAll, Step::Reconcile(ids.to_vec())]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::mutual_trust_policies;
    use orchestra_store::CentralStore;

    const EVERYONE: [ParticipantId; 3] = [ParticipantId(1), ParticipantId(2), ParticipantId(3)];

    /// Three mutually trusting participants over `store`: 1 and 2 write one
    /// key two ways, and everyone reconciles, so 3 defers a conflict.
    fn conflicted<S: UpdateStore>(store: S) -> Confederation<S> {
        let mut conf = Confederation::new(store, mutual_trust_policies(3, 1));
        let [p1, p2, _] = EVERYONE;
        let steps = [
            Step::Edit { who: p1, writes: vec![(0, 0)] },
            Step::Edit { who: p2, writes: vec![(0, 1)] },
            Step::Publish(vec![p1, p2]),
            Step::Reconcile(EVERYONE.to_vec()),
        ];
        conf.run(&steps, &Driver::sequential(), |_| ()).expect("steps succeed");
        conf
    }

    fn refused<S: UpdateStore>(conf: &mut Confederation<S>, step: Step) -> bool {
        matches!(conf.apply(&step, &Driver::sequential()), Err(StorageError::Persistence(_)))
    }

    /// Each participant's `Function` instance and deferred set.
    fn memory<S: UpdateStore>(system: &CdssSystem<S>) -> Vec<String> {
        let render = |id| {
            let participant = system.participant(id).expect("listed");
            let mut deferred: Vec<String> =
                participant.soft_state().deferred().keys().map(|id| id.to_string()).collect();
            deferred.sort();
            let function = participant.instance().relation_contents("Function");
            format!("{function:?} deferred {}", deferred.join(" "))
        };
        EVERYONE.into_iter().map(render).collect()
    }

    #[test]
    fn an_ephemeral_store_refuses_a_crash_and_a_snapshot_but_prunes() {
        let mut conf = conflicted(CentralStore::new(bioinformatics_schema()));
        let before = format!("{:?}", conf.system.store().catalog());
        assert!(refused(&mut conf, Step::Crash) && refused(&mut conf, Step::Snapshot));
        assert_eq!(format!("{:?}", conf.system.store().catalog()), before);
        // Pruning needs no log: under `KeepAll` it reports the live log.
        let pruned = conf.apply(&Step::Prune, &Driver::sequential()).expect("prune").pruned;
        assert_eq!(pruned.expect("a report").live_log_entries, 2);
        let unknown = conf.apply(&Step::Rebuild(vec![ParticipantId(9)]), &Driver::sequential());
        assert!(matches!(unknown, Err(StorageError::Model(_))));
    }

    /// The fabric's shards keep no WAL, so it refuses the store's events;
    /// a rebuild needs only the records its shards hold.
    #[test]
    fn a_fabric_refuses_the_store_events_and_rebuilds_from_its_shards() {
        let mut conf = conflicted(StoreFabric::new(bioinformatics_schema(), 2));
        for step in [Step::Snapshot, Step::Prune, Step::Crash] {
            assert!(refused(&mut conf, step));
        }
        let before = memory(&conf.system);
        assert!(before[2].ends_with("deferred X1:0 X2:0"), "3 defers the conflict: {before:?}");
        let rebuilt = conf.apply(&Step::Rebuild(EVERYONE.to_vec()), &Driver::sequential());
        rebuilt.expect("participants rebuild");
        assert_eq!(memory(&conf.system), before);
    }

    /// A crash restarts a durable DHT store from its directory: the same
    /// catalogue, and the schedule goes on. A directory that lost a record
    /// restarts to another catalogue, which the step refuses.
    #[test]
    fn a_crash_restarts_a_durable_dht_store_byte_identically() {
        let dir = std::env::temp_dir()
            .join(format!("orchestra-schedule-test-{}-dht", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut conf =
            conflicted(DhtStore::durable(bioinformatics_schema(), &dir).expect("fresh directory"));
        let catalog =
            |conf: &Confederation<DhtStore>| format!("{:?}", conf.system.store().catalog());
        let before = catalog(&conf);
        conf.apply(&Step::Crash, &Driver::sequential()).expect("the store restarts");
        assert_eq!(catalog(&conf), before);

        // Then a snapshot, a write, a crash with everyone rebuilt, and a
        // wave in the paper's network-centric mode.
        let steps = [
            Step::Snapshot,
            Step::Edit { who: EVERYONE[2], writes: vec![(1, 2)] },
            Step::Publish(vec![EVERYONE[2]]),
            Step::Crash,
            Step::Rebuild(EVERYONE.to_vec()),
            Step::Reconcile(EVERYONE.to_vec()),
        ];
        conf.run(&steps, &Driver::network_centric(), |_| ()).expect("the schedule goes on");
        assert!(memory(&conf.system)[0].contains("prot1"), "1 accepted 3's write");

        // Cut the last byte of the generation's log: recovery drops the torn
        // record, and the crash refuses what it recovered.
        let before = catalog(&conf);
        let generation =
            conf.system.store().catalog().durability().file_backend().map(|b| b.generation());
        let wal = orchestra_storage::snapshot::wal_path(&dir, generation.expect("durable"));
        let file = std::fs::OpenOptions::new().write(true).open(&wal).expect("open the log");
        file.set_len(file.metadata().expect("the log's length").len() - 1).expect("cut the log");
        assert!(refused(&mut conf, Step::Crash));
        assert_eq!(catalog(&conf), before, "a refused crash keeps the store");
        std::fs::remove_dir_all(&dir).ok();
    }
}
