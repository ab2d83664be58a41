//! The five workloads. Each function here runs **one iteration**: it builds a
//! fresh confederation (set-up, timed separately), drives the workload's
//! schedule once through the public API of the crates (the timed region), and
//! returns what it measured as an [`Iteration`]. The seed reaches the program
//! under test only through the inputs generated from it.
//!
//! All load comes from this one thread, closed loop: a participant's next
//! call is issued when the previous one returns, and a service or fabric wave
//! is closed by the `orchestra-rt` executor (one client task per due
//! participant, all awaited before the next phase).

use crate::calibration::speed_factor;
use crate::metrics::Shares;
use crate::timed_store::TimedStore;
use crate::trace::{set_op, span};
use orchestra::{CdssSystem, Participant, ParticipantConfig, ReconcileReport};
use orchestra_model::schema::bioinformatics_schema;
use orchestra_model::{ParticipantId, TrustPolicy};
use orchestra_obs::Obs;
use orchestra_recon::ResolutionChoice;
use orchestra_storage::{FlushPolicy, StorageError};
use orchestra_store::{CentralStore, FileWalBackend, StoreFabric, UpdateStore};
use orchestra_workload::{
    mutual_trust_policies, zipf_fanin_policies, ChurnConfig, ScaleConfig, SwissProtPools,
    WorkloadConfig, WorkloadGenerator,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The benchmark's workloads, in the order they are scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Workload {
    /// Wide confederation, thin insert transactions, in-process sequential
    /// driver: the store catalogue's workload.
    WideInsert,
    /// Ten mutually trusting participants, modify-heavy, conflicts and
    /// resolutions.
    DeepConflict,
    /// A smaller wide confederation with large transactions on a durable
    /// store, with a crash and a recovery from a copy taken at the last sync.
    DurableCrash,
    /// `WideInsert`'s schedule through one `StoreService`.
    ServiceWave,
    /// `WideInsert`'s schedule through a 4-shard `StoreFabric`.
    FabricWave,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 5] = [
        Workload::WideInsert,
        Workload::DeepConflict,
        Workload::DurableCrash,
        Workload::ServiceWave,
        Workload::FabricWave,
    ];

    /// The workload's name in `BENCHMARK.json` and on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WideInsert => "wide_insert",
            Workload::DeepConflict => "deep_conflict",
            Workload::DurableCrash => "durable_crash",
            Workload::ServiceWave => "service_wave",
            Workload::FabricWave => "fabric_wave",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One line for `BENCHMARK.json`: why the workload is in the benchmark.
    /// The shares are those `verify` checks on a traced iteration.
    pub fn why(self) -> &'static str {
        match self {
            Workload::WideInsert => {
                "512 participants, Zipf fan-in 8, 2-insert txns, in-process: the store catalogue \
                 (publish over 512 policies, session begin and paging) is two thirds of the wall, \
                 the conflict-free engine a quarter"
            }
            Workload::DeepConflict => {
                "10 mutually trusting participants, 50 rounds of 1-update txns on 800 skewed keys, \
                 conflicts, deferrals, resolutions: generation against a growing instance and the \
                 engine are 90% of the wall"
            }
            Workload::DurableCrash => {
                "48 participants, 26-update txns, durable store: per-round WAL sync, snapshot, crash, \
                 recovery from a copy, rebuild. The only storage path (a fifth of the wall) and the \
                 only large txns (engine 2/3)"
            }
            Workload::ServiceWave => {
                "wide_insert's schedule through one StoreService, admission below wave size: same \
                 store work plus rt, simnet, batching, admission (a tenth of the wall); its own \
                 signal is virtual-clock latency"
            }
            Workload::FabricWave => {
                "wide_insert's schedule through a 4-shard StoreFabric: fan-out replication, ordered \
                 sub-sessions, k-way merge, the shard-0 admission gate: three quarters of the wall"
            }
        }
    }
}

/// How large an iteration is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured size (0.3 to 1.2 s of timed work per iteration).
    Bench,
    /// `selftest`'s smoke size: 16 participants, 2 rounds.
    Smoke,
}

/// The wide shape: `ScaleConfig::full()`'s confederation (Zipf fan-in 8,
/// s = 1.1, staggered reconciliation — participant `i` every `1 + i mod 3`
/// rounds — and a catch-up wave) with **thin** transactions: one 2-insert
/// transaction per publish over a uniform key universe. At `full()`'s 26
/// updates per transaction the engine's apply path was 65–87 % of every wide
/// workload and hid the store; at 2 the per-publish and per-session costs of
/// the catalogue lead (see `verify`'s budget check). The admission cap sits
/// below the wave size so the service sheds.
pub fn wide_config(size: Size, seed: u64) -> ScaleConfig {
    let mut config = ScaleConfig::full();
    config.seed = seed;
    config.rounds = 3;
    config.workload.transaction_size = 2;
    match size {
        Size::Bench => {
            config.participants = 512;
            config.workload.key_universe = 400_000;
            config.service_max_open_sessions = 64;
        }
        Size::Smoke => {
            config.participants = 16;
            config.rounds = 2;
            config.workload.key_universe = 5_000;
            config.service_max_open_sessions = 4;
        }
    }
    config
}

/// `durable_crash`'s shape: the wide confederation at 48 participants × 6
/// rounds — the WAL sees several sync cycles and a compaction — with
/// `ScaleConfig::full()`'s **26-update** transactions, which also makes it the
/// benchmark's large-transaction workload.
///
/// Not thin like the other wide workloads, by measurement: with 2-update
/// transactions durability was 46 % of the wall, but the per-participant
/// segment appends behind `commit` ran 10× slower from about five seconds
/// into every process (14 ms → 147 ms per iteration on this host's ext4; its
/// journal commits every 5 s), and `sessions_per_s` spread 57 % across ten
/// seeds. At 26 updates the engine dilutes that to a spread of about 5 %.
pub fn durable_config(size: Size, seed: u64) -> ScaleConfig {
    let mut config = wide_config(size, seed);
    config.workload.transaction_size = 26;
    if size == Size::Bench {
        config.participants = 48;
        config.rounds = 6;
    }
    config
}

/// `deep_conflict`'s shape: the paper's evaluation confederation.
pub fn churn_config(size: Size, seed: u64) -> ChurnConfig {
    ChurnConfig {
        participants: 10,
        rounds: match size {
            Size::Bench => 50,
            Size::Smoke => 5,
        },
        transactions_per_publish: 2,
        max_reconcile_interval: 6,
        resolve_every: 4,
        workload: WorkloadConfig {
            transaction_size: 1,
            key_universe: 800,
            function_pool: 500,
            value_zipf_exponent: 1.5,
            key_zipf_exponent: 0.9,
            xref_mean: 7.3,
        },
        seed,
    }
}

/// What one iteration of a workload measured. Durations are wall clock
/// unless a field says virtual.
#[derive(Debug, Default, Clone)]
pub struct Iteration {
    /// Set-up: store (and durability directory), confederation, policies,
    /// pools and generators built; before the timed region.
    pub setup: Duration,
    /// The whole timed region.
    pub timed_wall: Duration,
    /// Wall inside publish calls or publish phases.
    pub publish_wall: Duration,
    /// Wall inside reconcile calls or waves.
    pub reconcile_wall: Duration,
    /// Transactions executed.
    pub transactions: u64,
    /// Updates published.
    pub updates: u64,
    /// Publishes that assigned an epoch.
    pub publishes: u64,
    /// Reconciliation sessions completed.
    pub sessions: u64,
    /// Conflict-resolution calls that had groups to resolve.
    pub resolutions: u64,
    /// Wall of each `CdssSystem::publish` (in-process workloads).
    pub publish_ns: Vec<u64>,
    /// Wall of each `CdssSystem::reconcile` (in-process workloads).
    pub reconcile_ns: Vec<u64>,
    /// Virtual begin→commit latency of each session (service and fabric).
    pub virt_us: Vec<u64>,
    /// `CentralStore::recover` plus every `rebuild_from_store`.
    pub recover: Duration,
    /// Bytes in the durability directory at the last sync before the crash.
    pub disk_bytes_at_sync: u64,
    /// Updates published by that sync.
    pub updates_at_sync: u64,
    /// Operations attempted: execute, publish, reconcile, resolve, recover,
    /// rebuild, sync, snapshot calls plus correctness checks.
    pub attempted: u64,
    /// Operations that returned `Err`, sessions that never completed, and
    /// failed checks.
    pub failed: u64,
    /// Order-invariant hash of every participant's accepted and rejected
    /// sets.
    pub fingerprint: u64,
    /// Σ tuples over every participant's final instance (the instance-side
    /// companion of the decision fingerprint; the state ratio costs
    /// O(keys × participants) and is left to `trajectory_check`).
    pub instance_tuples: u64,
    /// Σ `ReconcileReport::timing.local`.
    pub recon_local: Duration,
    /// Σ `ReconcileReport::considered()`.
    pub recon_candidates: u64,
    /// Root transactions accepted.
    pub recon_accepted: u64,
    /// Root transactions rejected.
    pub recon_rejected: u64,
    /// Root transactions deferred.
    pub recon_deferred: u64,
    /// Service request frames served.
    pub requests: u64,
    /// `Begin` frames shed by admission control.
    pub busy_rejections: u64,
    /// Worker wake-ups.
    pub batches: u64,
    /// Simulated-network messages.
    pub net_messages: u64,
    /// Simulated-network bytes (modelled frame sizes).
    pub net_bytes: u64,
    /// Virtual time consumed by the rounds.
    pub virtual_elapsed_us: u64,
    /// Per-shard `Begin` sheds (fabric).
    pub shard_busy: Vec<u64>,
    /// Per-shard frames (fabric).
    pub shard_frames: Vec<u64>,
    /// WAL records in the final generation.
    pub wal_records: u64,
    /// WAL bytes in the final generation.
    pub wal_bytes: u64,
    /// WAL segments in the final generation.
    pub wal_segments: u64,
    /// Size of the compacting snapshot.
    pub snapshot_bytes: u64,
    /// Explicit WAL syncs issued by the harness.
    pub syncs: u64,
    /// Publication-log entries live at the end.
    pub live_log_len: u64,
    /// Counter keys in the `Obs` registry passed via `set_observability`.
    pub obs_counters: u64,
    /// The durability directory the iteration ended on (for the storage
    /// probes); removed by the caller.
    pub durable_dir: Option<PathBuf>,
    /// Where a traced iteration's timed wall went (zero untraced).
    pub budget: Shares,
    /// The factor [`Iteration::rescale`] applied (0 until then).
    pub speed: f64,
    /// The timed region's wall as the clock read it, never rescaled.
    pub raw_timed_wall: Duration,
    /// Mean time of the calibration kernel around the iteration, seconds.
    pub calibration: f64,
}

impl Iteration {
    /// Converts every wall-clock duration of the iteration into
    /// reference-speed seconds (see [`crate::calibration`]): `before` and
    /// `after` are the calibration kernel's times around the iteration.
    /// Virtual-clock latencies and counts stay as they are.
    pub fn rescale(&mut self, before: f64, after: f64) {
        let factor = speed_factor(before, after);
        self.raw_timed_wall = self.timed_wall;
        self.calibration = (before + after) / 2.0;
        self.speed = factor;
        for duration in [
            &mut self.setup,
            &mut self.timed_wall,
            &mut self.publish_wall,
            &mut self.reconcile_wall,
            &mut self.recover,
            &mut self.recon_local,
        ] {
            *duration = duration.mul_f64(factor);
        }
        for sample in self.publish_ns.iter_mut().chain(&mut self.reconcile_ns) {
            *sample = (*sample as f64 * factor) as u64;
        }
    }

    /// Counts one attempted operation and whether it failed; returns the
    /// success value.
    fn op<T>(&mut self, what: &str, result: Result<T, StorageError>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(value) => Some(value),
            Err(error) => {
                if self.failed == 0 {
                    eprintln!("benchmark: {what} failed: {error}");
                }
                self.failed += 1;
                None
            }
        }
    }

    /// Counts one correctness check.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            eprintln!("benchmark: check failed: {what}");
            self.failed += 1;
        }
    }

    fn absorb_report(&mut self, report: &ReconcileReport) {
        self.sessions += 1;
        self.recon_local += report.timing.local;
        self.recon_candidates += report.considered() as u64;
        self.recon_accepted += report.accepted.len() as u64;
        self.recon_rejected += report.rejected.len() as u64;
        self.recon_deferred += report.deferred.len() as u64;
    }
}

/// A store the in-process and service workloads can run on: the plain
/// [`CentralStore`] (untraced) or the same store behind [`TimedStore`]
/// (traced).
pub trait BenchStore: UpdateStore {
    /// The central store underneath, for the calls outside `UpdateStore`.
    fn central(&self) -> &CentralStore;
}

impl BenchStore for CentralStore {
    fn central(&self) -> &CentralStore {
        self
    }
}

impl BenchStore for TimedStore<CentralStore> {
    fn central(&self) -> &CentralStore {
        self.inner()
    }
}

/// FNV-1a over every participant's id and sorted accepted and rejected sets,
/// summed across participants: equal fingerprints ⇒ identical decisions,
/// whatever order the participants or the sets are walked in.
/// (`orchestra_workload::scale::decision_fingerprint` is private, and a hash
/// the harness owns keeps `golden.tsv` independent of the program.)
pub fn decision_fingerprint<S: UpdateStore + ?Sized>(store: &S, ids: &[ParticipantId]) -> u64 {
    fn fnv(hash: &mut u64, word: u64) {
        for byte in word.to_le_bytes() {
            *hash ^= u64::from(byte);
            *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    let mut combined = 0u64;
    for &id in ids {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        fnv(&mut hash, u64::from(id.as_u32()));
        for decisions in [store.accepted_set(id), store.rejected_set(id)] {
            let mut sorted: Vec<(u32, u64)> =
                decisions.iter().map(|t| (t.participant.as_u32(), t.local)).collect();
            sorted.sort_unstable();
            fnv(&mut hash, sorted.len() as u64);
            for (participant, local) in sorted {
                fnv(&mut hash, u64::from(participant));
                fnv(&mut hash, local);
            }
        }
        combined = combined.wrapping_add(hash);
    }
    combined
}

/// The span around each timed region. Its self time is time the harness
/// spent between the calls it names; set-up spans fall outside it.
pub const TIMED: &str = "harness.timed";

/// A wide confederation ready to run: system, ids and one generator per
/// participant over shared pools.
struct Wide<S: UpdateStore> {
    system: CdssSystem<S>,
    ids: Vec<ParticipantId>,
    generators: Vec<WorkloadGenerator>,
    obs: Obs,
}

fn wide_policies(config: &ScaleConfig) -> Vec<TrustPolicy> {
    zipf_fanin_policies(
        config.participants,
        config.trusted_publishers,
        config.zipf_s,
        config.seed.wrapping_add(0x9e37_79b9),
    )
}

/// Same seed derivations as `orchestra_workload::run_churn_scale`, so the
/// library's own driver can serve as an independent reference.
fn setup_wide<S: UpdateStore>(store: S, config: &ScaleConfig) -> Wide<S> {
    let obs = Obs::disabled();
    let mut system = CdssSystem::new(bioinformatics_schema(), store);
    system.set_observability(&obs);
    for policy in wide_policies(config) {
        system.add_participant(ParticipantConfig::new(policy)).expect("unique participants");
    }
    let ids = system.participant_ids();
    let pools =
        Arc::new(SwissProtPools::new(config.workload.key_universe, config.workload.function_pool));
    let generators = ids
        .iter()
        .map(|id| {
            WorkloadGenerator::with_shared_pools(
                config.workload.clone(),
                Arc::clone(&pools),
                config.seed.wrapping_add(u64::from(id.as_u32()) * 6151),
            )
        })
        .collect();
    Wide { system, ids, generators, obs }
}

/// The participants due to reconcile in `round` (the churn scenarios'
/// stagger).
fn due(config: &ScaleConfig, round: usize, ids: &[ParticipantId]) -> Vec<ParticipantId> {
    ids.iter()
        .enumerate()
        .filter(|(idx, _)| (round + idx) % (1 + idx % config.max_reconcile_interval.max(1)) == 0)
        .map(|(_, &id)| id)
        .collect()
}

/// Phase 1 of a round for the participants at `range`: generate a batch of
/// `transactions` transactions against the participant's instance and execute
/// it locally.
fn execute_phase<S: UpdateStore>(
    system: &mut CdssSystem<S>,
    ids: &[ParticipantId],
    generators: &mut [WorkloadGenerator],
    transactions: usize,
    round: usize,
    range: std::ops::Range<usize>,
    it: &mut Iteration,
) {
    for idx in range {
        let id = ids[idx];
        set_op(round, id.as_u32());
        let batch = {
            let _span = span("workload.gen");
            let participant = system.participant(id).expect("participant exists");
            generators[idx].next_batch(id, participant.instance(), transactions)
        };
        let _span = span("orchestra.execute");
        for updates in batch {
            it.transactions += 1;
            let len = updates.len() as u64;
            if it.op("execute", system.execute(id, updates)).is_some() {
                it.updates += len;
            }
        }
    }
}

/// In-process publish phase: one timed `CdssSystem::publish` per participant,
/// in id order.
fn publish_each<S: UpdateStore>(
    system: &mut CdssSystem<S>,
    ids: &[ParticipantId],
    round: usize,
    it: &mut Iteration,
) {
    let phase = Instant::now();
    for &id in ids {
        set_op(round, id.as_u32());
        let start = Instant::now();
        let result = {
            let _span = span("orchestra.publish");
            system.publish(id)
        };
        it.publish_ns.push(start.elapsed().as_nanos() as u64);
        if let Some(Some(_)) = it.op("publish", result) {
            it.publishes += 1;
        }
    }
    it.publish_wall += phase.elapsed();
}

/// In-process reconcile wave: one timed `CdssSystem::reconcile` per due
/// participant, in id order.
fn reconcile_each<S: UpdateStore>(
    system: &mut CdssSystem<S>,
    wave: &[ParticipantId],
    round: usize,
    it: &mut Iteration,
) {
    let phase = Instant::now();
    for &id in wave {
        set_op(round, id.as_u32());
        let start = Instant::now();
        let result = {
            let _span = span("orchestra.reconcile");
            system.reconcile(id)
        };
        it.reconcile_ns.push(start.elapsed().as_nanos() as u64);
        if let Some(report) = it.op("reconcile", result) {
            it.absorb_report(&report);
        }
    }
    it.reconcile_wall += phase.elapsed();
}

/// Folds one service or fabric round into the iteration. `expected` is the
/// number of publishes plus sessions the round was asked for: a round that
/// errs fails all of them, and a session missing from the report never
/// completed.
#[allow(clippy::too_many_arguments)]
fn absorb_round(
    it: &mut Iteration,
    expected: usize,
    results: &[(ParticipantId, ReconcileReport)],
    published: &[(ParticipantId, Option<orchestra_model::Epoch>)],
    latencies_us: &[u64],
    net: orchestra_net::NetworkStats,
    virtual_elapsed_us: u64,
) {
    it.attempted += expected as u64;
    it.failed += (expected - (results.len() + published.len()).min(expected)) as u64;
    it.publishes += published.iter().filter(|(_, epoch)| epoch.is_some()).count() as u64;
    for (_, report) in results {
        it.absorb_report(report);
    }
    it.virt_us.extend_from_slice(latencies_us);
    it.net_messages += net.messages;
    it.net_bytes += net.bytes;
    it.virtual_elapsed_us += virtual_elapsed_us;
}

/// Runs one service or fabric round (a publish phase or a reconcile wave)
/// under a span, books its wall to the phase it served, and counts a round
/// that errs as the failure of everything it was asked for.
fn timed_round<R>(
    it: &mut Iteration,
    publish_ids: &[ParticipantId],
    wave: &[ParticipantId],
    round: usize,
    run: impl FnOnce() -> Result<R, StorageError>,
) -> Option<R> {
    set_op(round, 0);
    let start = Instant::now();
    let result = {
        let _span = span("orchestra.round");
        run()
    };
    let wall = start.elapsed();
    if publish_ids.is_empty() {
        it.reconcile_wall += wall;
    } else {
        it.publish_wall += wall;
    }
    result
        .map_err(|error| {
            eprintln!("benchmark: round failed: {error}");
            let expected = (publish_ids.len() + wave.len()) as u64;
            it.attempted += expected;
            it.failed += expected;
        })
        .ok()
}

/// One service round (publish phase or reconcile wave).
fn service_round<S: UpdateStore>(
    system: &mut CdssSystem<S>,
    publish_ids: &[ParticipantId],
    wave: &[ParticipantId],
    config: &ScaleConfig,
    round: usize,
    it: &mut Iteration,
) {
    let Some(report) = timed_round(it, publish_ids, wave, round, || {
        system.run_service_round(publish_ids, wave, &config.service_config())
    }) else {
        return;
    };
    it.requests += report.stats.requests;
    it.busy_rejections += report.stats.busy_rejections;
    it.batches += report.stats.batches;
    absorb_round(
        it,
        publish_ids.len() + wave.len(),
        &report.results,
        &report.published,
        &report.latencies_us,
        report.net,
        report.virtual_elapsed_us,
    );
}

/// One fabric round (publish phase or reconcile wave).
fn fabric_round(
    system: &mut CdssSystem<StoreFabric>,
    publish_ids: &[ParticipantId],
    wave: &[ParticipantId],
    config: &ScaleConfig,
    round: usize,
    it: &mut Iteration,
) {
    let Some(report) = timed_round(it, publish_ids, wave, round, || {
        system.run_fabric_round(publish_ids, wave, &config.fabric_config())
    }) else {
        return;
    };
    it.shard_busy.resize(report.shard_stats.len(), 0);
    it.shard_frames.resize(report.shard_frames.len(), 0);
    for (shard, stats) in report.shard_stats.iter().enumerate() {
        it.requests += stats.requests;
        it.busy_rejections += stats.busy_rejections;
        it.batches += stats.batches;
        it.shard_busy[shard] += stats.busy_rejections;
        it.shard_frames[shard] += report.shard_frames[shard];
    }
    absorb_round(
        it,
        publish_ids.len() + wave.len(),
        &report.results,
        &report.published,
        &report.latencies_us,
        report.net,
        report.virtual_elapsed_us,
    );
}

/// What every workload records once its schedule has finished (outside the
/// timed region).
fn finish<S: UpdateStore>(
    system: &CdssSystem<S>,
    ids: &[ParticipantId],
    obs: &Obs,
    it: &mut Iteration,
) {
    it.fingerprint = decision_fingerprint(system.store(), ids);
    it.instance_tuples = system.instances().iter().map(|db| db.total_tuples() as u64).sum();
    it.obs_counters = obs.metrics.snapshot().counters.len() as u64;
}

/// One publish phase or reconcile wave of a driver: system, participants,
/// round, iteration.
type Phase<'a, S> = &'a mut dyn FnMut(&mut CdssSystem<S>, &[ParticipantId], usize, &mut Iteration);

/// The wide schedule every driver shares, timed: per round everyone executes
/// a generated batch, `publish` pushes the pending transactions to the store
/// and `wave` reconciles the round's due participants; a final catch-up wave
/// converges everybody.
fn drive_wide<S: UpdateStore>(
    wide: &mut Wide<S>,
    config: &ScaleConfig,
    it: &mut Iteration,
    publish: Phase<'_, S>,
    wave: Phase<'_, S>,
) {
    let Wide { system, ids, generators, .. } = wide;
    let batch = config.transactions_per_publish;
    let timed = Instant::now();
    let timed_span = span(TIMED);
    for round in 0..config.rounds {
        execute_phase(system, ids, generators, batch, round, 0..ids.len(), it);
        publish(system, ids, round, it);
        wave(system, &due(config, round, ids), round, it);
    }
    wave(system, ids, config.rounds, it);
    drop(timed_span);
    it.timed_wall = timed.elapsed();
}

/// `wide_insert` (in-process) and `service_wave` (the same schedule through
/// one `StoreService`).
pub fn run_wide<S: BenchStore>(
    config: &ScaleConfig,
    through_service: bool,
    wrap: fn(CentralStore) -> S,
) -> Iteration {
    let mut it = Iteration::default();
    let setup = Instant::now();
    let mut wide = setup_wide(wrap(CentralStore::new(bioinformatics_schema())), config);
    it.setup = setup.elapsed();

    if through_service {
        drive_wide(
            &mut wide,
            config,
            &mut it,
            &mut |system, ids, round, it| service_round(system, ids, &[], config, round, it),
            &mut |system, wave, round, it| service_round(system, &[], wave, config, round, it),
        );
    } else {
        drive_wide(&mut wide, config, &mut it, &mut publish_each, &mut reconcile_each);
    }

    it.live_log_len = wide.system.store().central().catalog().log_len() as u64;
    finish(&wide.system, &wide.ids, &wide.obs, &mut it);
    it
}

/// `fabric_wave`: the wide schedule through a sharded `StoreFabric`.
/// `run_fabric_round` exists only on `CdssSystem<StoreFabric>`, so this
/// workload cannot run behind [`TimedStore`]; its traced budget is the round
/// spans plus the fabric's own counters.
pub fn run_fabric(config: &ScaleConfig) -> Iteration {
    let mut it = Iteration::default();
    let setup = Instant::now();
    let mut wide =
        setup_wide(StoreFabric::new(bioinformatics_schema(), config.fabric_shards), config);
    it.setup = setup.elapsed();

    drive_wide(
        &mut wide,
        config,
        &mut it,
        &mut |system, ids, round, it| fabric_round(system, ids, &[], config, round, it),
        &mut |system, wave, round, it| fabric_round(system, &[], wave, config, round, it),
    );

    it.live_log_len = wide.system.store().shard(0).catalog().log_len() as u64;
    finish(&wide.system, &wide.ids, &wide.obs, &mut it);
    it
}

/// `deep_conflict`: `orchestra_workload::run_churn_scenario`'s schedule, call
/// for call, with each call timed.
pub fn run_churn<S: BenchStore>(config: &ChurnConfig, wrap: fn(CentralStore) -> S) -> Iteration {
    let mut it = Iteration::default();
    let setup = Instant::now();
    let obs = Obs::disabled();
    let mut system =
        CdssSystem::new(bioinformatics_schema(), wrap(CentralStore::new(bioinformatics_schema())));
    system.set_observability(&obs);
    for policy in mutual_trust_policies(config.participants, 1) {
        system.add_participant(ParticipantConfig::new(policy)).expect("unique participants");
    }
    let ids = system.participant_ids();
    let mut generators: Vec<WorkloadGenerator> = ids
        .iter()
        .map(|id| {
            WorkloadGenerator::new(
                config.workload.clone(),
                config.seed.wrapping_add(u64::from(id.as_u32()) * 6151),
            )
        })
        .collect();
    it.setup = setup.elapsed();

    let timed = Instant::now();
    let timed_span = span(TIMED);
    for round in 0..config.rounds {
        for (idx, &id) in ids.iter().enumerate() {
            let batch = config.transactions_per_publish;
            execute_phase(&mut system, &ids, &mut generators, batch, round, idx..idx + 1, &mut it);
            publish_each(&mut system, &[id], round, &mut it);
            if (round + idx) % (1 + idx % config.max_reconcile_interval.max(1)) == 0 {
                reconcile_each(&mut system, &[id], round, &mut it);
            }
            if config.resolve_every > 0 && (round + idx) % config.resolve_every == 0 {
                let _span = span("orchestra.resolve");
                let choices: Vec<ResolutionChoice> = system
                    .participant(id)
                    .expect("participant exists")
                    .deferred_conflicts()
                    .iter()
                    .map(|g| ResolutionChoice { group: g.key.clone(), chosen_option: Some(0) })
                    .collect();
                if !choices.is_empty()
                    && it.op("resolve", system.resolve_conflicts(id, &choices)).is_some()
                {
                    it.resolutions += 1;
                }
            }
        }
    }
    // Final catch-up pass so every participant observes the full history.
    for &id in &ids {
        reconcile_each(&mut system, &[id], config.rounds, &mut it);
    }
    drop(timed_span);
    it.timed_wall = timed.elapsed();

    it.live_log_len = system.store().central().catalog().log_len() as u64;
    finish(&system, &ids, &obs, &mut it);
    it
}

fn backend<S: BenchStore>(system: &CdssSystem<S>) -> &FileWalBackend {
    system.store().central().catalog().durability().file_backend().expect("durable store")
}

/// Flushes every WAL segment — the round boundary's durability point — and
/// checks what the program says about it: nothing is left unsynced and its
/// `wal.syncs` counter moved, so a sync that was removed or skipped fails the
/// run. (Whether `fsync` reached the device cannot be seen from here.)
fn sync_wal<S: BenchStore>(system: &CdssSystem<S>, obs: &Obs, it: &mut Iteration) {
    let syncs = obs.metrics.counter("wal.syncs");
    let before = syncs.get();
    let result = {
        let _span = span("storage.sync");
        backend(system).sync()
    };
    it.op("sync", result);
    it.syncs += 1;
    it.check("no record is left unsynced after a sync", backend(system).unsynced_records() == 0);
    it.check("the sync reached the WAL's segments", syncs.get() > before);
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries.flatten().filter_map(|e| e.metadata().ok()).map(|m| m.len()).sum::<u64>()
        })
        .unwrap_or(0)
}

/// Copies the (flat) durability directory: the copy holds the bytes the
/// program had written to the files when it was taken — read through the page
/// cache, so whether they had been `fsync`ed does not show.
fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}

/// `durable_crash`: [`durable_config`]'s shape on `CentralStore::durable` with
/// `FlushPolicy::OsBuffered` and an explicit WAL sync at every round
/// boundary, and one compacting snapshot. Right after the second-to-last
/// round's sync the harness copies the durability directory, runs half of the
/// last round unsynced, drops everything, recovers **from the copy**, rebuilds
/// every participant from the store, replays the last round from generator
/// clones taken at the sync, and finishes.
///
/// What the crash check covers: every record written up to the sync point is
/// recovered, in order, and nothing written after it is (the recovered
/// catalogue's `Debug` equals the one captured at the sync); records held back
/// in a user-space buffer at the sync would be missing from the copy and fail
/// it; a sync that leaves records unsynced or never reaches the segments fails
/// [`sync_wal`]'s checks. What it cannot cover: the copy is read through the
/// page cache, so a `sync` that stopped calling `fsync` would still pass.
///
/// The copy and the `Debug` capture are the harness simulating the crash and
/// are not timed.
pub fn run_durable<S: BenchStore>(
    config: &ScaleConfig,
    scratch: &Path,
    wrap: fn(CentralStore) -> S,
) -> Iteration {
    assert!(config.rounds >= 2, "durable_crash needs a round before and a round after the crash");
    let mut it = Iteration::default();
    let dir = scratch.join("live");
    let copy = scratch.join("crash-copy");
    let schema = bioinformatics_schema();

    let setup = Instant::now();
    let store = CentralStore::durable(schema.clone(), &dir).expect("fresh durability directory");
    let Wide { mut system, ids, mut generators, obs } = setup_wide(wrap(store), config);
    backend(&system).set_flush_policy(FlushPolicy::OsBuffered);
    backend(&system).set_observability(&obs);
    it.setup = setup.elapsed();

    let last = config.rounds - 1;
    let snapshot_after = (config.rounds - 2) / 2;
    let all = 0..ids.len();
    let batch = config.transactions_per_publish;
    let mut timed_wall = Duration::ZERO;

    // Rounds before the crash, each ending in a sync.
    let timed = Instant::now();
    let timed_span = span(TIMED);
    for round in 0..last {
        execute_phase(&mut system, &ids, &mut generators, batch, round, all.clone(), &mut it);
        publish_each(&mut system, &ids, round, &mut it);
        reconcile_each(&mut system, &due(config, round, &ids), round, &mut it);
        sync_wal(&system, &obs, &mut it);
        if round == snapshot_after {
            let _span = span("store.snapshot");
            let result = system.store().central().snapshot();
            it.op("snapshot", result);
        }
    }
    drop(timed_span);
    timed_wall += timed.elapsed();

    // The crash point: what is on disk now is all that survives.
    it.check("crash copy", copy_dir(&dir, &copy).is_ok());
    it.disk_bytes_at_sync = dir_bytes(&copy);
    it.updates_at_sync = it.updates;
    it.snapshot_bytes =
        std::fs::metadata(orchestra_storage::snapshot::snapshot_path(&copy)).map_or(0, |m| m.len());
    let durable_state = format!("{:?}", system.store().central().catalog());
    let generators_at_sync = generators.clone();
    let policies = wide_policies(config);

    // Half of the last round, never synced, then the crash (dropping every
    // in-memory structure is not timed) and recovery from the copy.
    let timed = Instant::now();
    let timed_span = span(TIMED);
    execute_phase(&mut system, &ids, &mut generators, batch, last, 0..ids.len() / 2, &mut it);
    publish_each(&mut system, &ids[..ids.len() / 2], last, &mut it);
    drop(timed_span);
    timed_wall += timed.elapsed();
    drop(system);
    drop(generators);

    let timed = Instant::now();
    let timed_span = span(TIMED);
    let recovered = {
        let _span = span("store.recover");
        CentralStore::recover(&copy)
    };
    drop(timed_span);
    let store_recover = timed.elapsed();
    timed_wall += store_recover;
    let Some(store) = it.op("recover", recovered) else {
        it.timed_wall = timed_wall;
        return it;
    };
    let recovered_state = format!("{:?}", store.catalog());
    it.check(
        "recovered durable state equals the state at the sync",
        recovered_state == durable_state,
    );

    // Every participant from the store alone, then the last round again, in
    // full, from the generator state at the sync.
    let timed = Instant::now();
    let timed_span = span(TIMED);
    let mut system = CdssSystem::new(schema.clone(), wrap(store));
    system.set_observability(&obs);
    backend(&system).set_flush_policy(FlushPolicy::OsBuffered);
    backend(&system).set_observability(&obs);
    for policy in policies {
        set_op(last, policy.owner().as_u32());
        let rebuilt = {
            let _span = span("orchestra.rebuild");
            Participant::rebuild_from_store(
                schema.clone(),
                ParticipantConfig::new(policy),
                system.store(),
            )
        };
        if let Some(participant) = it.op("rebuild", rebuilt) {
            let adopted = system.adopt_participant(participant);
            it.op("adopt", adopted);
        }
    }
    it.recover = store_recover + timed.elapsed();
    it.check("every participant rebuilt", system.len() == ids.len());
    let mut generators = generators_at_sync;
    execute_phase(&mut system, &ids, &mut generators, batch, last, all, &mut it);
    publish_each(&mut system, &ids, last, &mut it);
    reconcile_each(&mut system, &due(config, last, &ids), last, &mut it);
    sync_wal(&system, &obs, &mut it);
    reconcile_each(&mut system, &ids, config.rounds, &mut it);
    sync_wal(&system, &obs, &mut it);
    drop(timed_span);
    it.timed_wall = timed_wall + timed.elapsed();

    it.wal_records = backend(&system).wal_records();
    it.wal_bytes = backend(&system).wal_bytes();
    it.wal_segments = backend(&system).segment_count() as u64;
    it.live_log_len = system.store().central().catalog().log_len() as u64;
    finish(&system, &ids, &obs, &mut it);
    it.durable_dir = Some(copy);
    it
}

/// Runs one iteration of `workload` on the plain store.
pub fn run_plain(workload: Workload, size: Size, seed: u64, scratch: &Path) -> Iteration {
    run_with(workload, size, seed, scratch, |store| store)
}

/// Runs one iteration of `workload` behind [`TimedStore`] (the caller starts
/// and finishes the span recording).
pub fn run_traced(workload: Workload, size: Size, seed: u64, scratch: &Path) -> Iteration {
    run_with(workload, size, seed, scratch, TimedStore::new)
}

fn run_with<S: BenchStore>(
    workload: Workload,
    size: Size,
    seed: u64,
    scratch: &Path,
    wrap: fn(CentralStore) -> S,
) -> Iteration {
    match workload {
        Workload::WideInsert => run_wide(&wide_config(size, seed), false, wrap),
        Workload::ServiceWave => run_wide(&wide_config(size, seed), true, wrap),
        Workload::FabricWave => run_fabric(&wide_config(size, seed)),
        Workload::DeepConflict => run_churn(&churn_config(size, seed), wrap),
        Workload::DurableCrash => run_durable(&durable_config(size, seed), scratch, wrap),
    }
}
