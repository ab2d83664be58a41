//! The crash-restart churn scenario: kill the store (and every participant's
//! soft state) mid-wave, recover from the write-ahead log, finish the
//! schedule, and check that the confederation ends up exactly where an
//! uninterrupted run would have.
//!
//! This is the end-to-end proof of the durability layer. The same interleaved
//! publish/reconcile/resolve schedule as [`crate::run_churn_scenario`] runs
//! twice with the same seed:
//!
//! * the **baseline** runs uninterrupted over an ephemeral store;
//! * the **durable** run uses a WAL-backed [`CentralStore`]; once the stable
//!   epoch crosses the configured threshold the whole system is dropped
//!   mid-round — simulating a process crash that loses the in-memory
//!   catalogue, every instance, every deferred conflict and every pending
//!   own-publish delta. The store is then recovered from disk
//!   ([`CentralStore::recover`]), every participant is rebuilt from the store
//!   alone ([`Participant::rebuild_from_store`]), and the schedule resumes at
//!   the exact point it was interrupted.
//!
//! The report records whether the recovered run reached identical decisions
//! (accept/reject/defer/resolution totals and final state ratio) and whether
//! the recovered catalogue was byte-identical to the pre-crash one (compared
//! through the canonical durable-state `Debug` rendering).

use crate::generator::WorkloadGenerator;
use crate::scenario::{mutual_trust_policies, ChurnConfig};
use orchestra::{CdssSystem, Participant, ParticipantConfig};
use orchestra_model::schema::bioinformatics_schema;
use orchestra_model::ParticipantId;
use orchestra_store::CentralStore;
use std::path::Path;
use std::time::Instant;

/// Configuration of one crash-restart run.
#[derive(Debug, Clone)]
pub struct CrashChurnConfig {
    /// The underlying churn schedule (participants, rounds, workload, seed).
    pub churn: ChurnConfig,
    /// The crash fires right after the participant step in which the store's
    /// stable epoch reaches this value — mid-round, so some of the round's
    /// due participants have reconciled and the rest have not.
    pub crash_at_epoch: u64,
    /// Take a compacting snapshot every this many rounds (0 = never), so the
    /// recovery path exercises snapshot-load *plus* WAL replay rather than a
    /// full-log replay.
    pub snapshot_every_rounds: usize,
}

impl CrashChurnConfig {
    /// A crash point roughly 60% into the schedule of the given churn
    /// configuration, with a snapshot a few rounds before it.
    pub fn for_churn(churn: ChurnConfig) -> Self {
        let expected_epochs = (churn.participants * churn.rounds) as u64;
        CrashChurnConfig {
            crash_at_epoch: (expected_epochs * 6 / 10).max(1),
            snapshot_every_rounds: (churn.rounds / 3).max(1),
            churn,
        }
    }
}

/// Decision totals of one (possibly interrupted) churn run — everything that
/// must be identical between the baseline and the recovered run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChurnTotals {
    /// Reconciliations performed.
    pub reconciliations: usize,
    /// Publish calls performed.
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

/// The outcome of one crash-restart experiment.
#[derive(Debug, Clone)]
pub struct CrashChurnReport {
    /// Totals of the uninterrupted baseline run.
    pub baseline: ChurnTotals,
    /// Totals of the crashed-and-recovered run.
    pub recovered: ChurnTotals,
    /// Whether the two runs reached identical decisions (they must).
    pub decisions_match: bool,
    /// Whether the recovered catalogue's durable state was byte-identical to
    /// the pre-crash one (canonical `Debug` comparison; it must be).
    pub durable_state_identical: bool,
    /// The round the crash interrupted.
    pub crash_round: usize,
    /// The index of the last participant step completed before the crash.
    pub crash_participant_index: usize,
    /// Stable epoch at the crash.
    pub crash_epoch: u64,
    /// Records in the current WAL generation at the crash.
    pub wal_records_at_crash: u64,
    /// Wall-clock cost of `CentralStore::recover` (snapshot load + replay).
    pub recover_micros: u64,
}

pub(crate) fn make_generators(
    config: &ChurnConfig,
    ids: &[ParticipantId],
) -> Vec<WorkloadGenerator> {
    // Same per-participant seed derivation as `run_churn_scenario`, so the
    // schedules (and therefore the trajectories) stay comparable.
    ids.iter()
        .map(|id| {
            WorkloadGenerator::new(
                config.workload.clone(),
                config.seed.wrapping_add(u64::from(id.as_u32()) * 6151),
            )
        })
        .collect()
}

/// One participant's actions in one round of the churn schedule: execute and
/// publish a batch, reconcile if due, resolve deferred conflicts if due.
/// Mirrors `run_churn_scenario` exactly.
pub(crate) fn step(
    system: &mut CdssSystem<CentralStore>,
    generators: &mut [WorkloadGenerator],
    config: &ChurnConfig,
    round: usize,
    idx: usize,
    id: ParticipantId,
    totals: &mut ChurnTotals,
) {
    let batch = {
        let participant = system.participant(id).expect("participant exists");
        generators[idx].next_batch(id, participant.instance(), config.transactions_per_publish)
    };
    for updates in batch {
        let _ = system.execute(id, updates);
    }
    if system.publish(id).expect("publish succeeds").is_some() {
        totals.publishes += 1;
    }
    let interval = 1 + idx % config.max_reconcile_interval.max(1);
    if (round + idx) % interval == 0 {
        reconcile_one(system, id, totals);
    }
    if config.resolve_every > 0 && (round + idx) % config.resolve_every == 0 {
        let groups: Vec<_> = system
            .participant(id)
            .expect("participant exists")
            .deferred_conflicts()
            .iter()
            .map(|g| g.key.clone())
            .collect();
        if !groups.is_empty() {
            let choices: Vec<orchestra_recon::ResolutionChoice> = groups
                .into_iter()
                .map(|key| orchestra_recon::ResolutionChoice { group: key, chosen_option: Some(0) })
                .collect();
            system.resolve_conflicts(id, &choices).expect("resolution succeeds");
            totals.resolutions += 1;
        }
    }
}

pub(crate) fn reconcile_one(
    system: &mut CdssSystem<CentralStore>,
    id: ParticipantId,
    totals: &mut ChurnTotals,
) {
    let report = system.reconcile(id).expect("reconcile succeeds");
    totals.reconciliations += 1;
    totals.accepted += report.accepted.len();
    totals.rejected += report.rejected.len();
    totals.deferred += report.deferred.len();
}

pub(crate) fn fresh_system(store: CentralStore, config: &ChurnConfig) -> CdssSystem<CentralStore> {
    let mut system = CdssSystem::new(bioinformatics_schema(), store);
    for policy in mutual_trust_policies(config.participants, 1) {
        system.add_participant(ParticipantConfig::new(policy)).expect("unique participants");
    }
    system
}

/// Runs the churn schedule uninterrupted over the given store and returns the
/// decision totals.
fn run_uninterrupted(store: CentralStore, config: &ChurnConfig) -> ChurnTotals {
    let mut system = fresh_system(store, config);
    let ids = system.participant_ids();
    let mut generators = make_generators(config, &ids);
    let mut totals = ChurnTotals::default();
    for round in 0..config.rounds {
        for (idx, &id) in ids.iter().enumerate() {
            step(&mut system, &mut generators, config, round, idx, id, &mut totals);
        }
    }
    for &id in &ids {
        reconcile_one(&mut system, id, &mut totals);
    }
    totals.state_ratio = system.state_ratio_for("Function");
    totals
}

/// Runs the crash-restart experiment in `dir` (which must not already hold a
/// durable store). See the module docs for the full shape.
///
/// Panics if the schedule finishes before the stable epoch reaches
/// `crash_at_epoch` — pick a crash point inside the schedule.
pub fn run_crash_restart_scenario(dir: &Path, config: &CrashChurnConfig) -> CrashChurnReport {
    let churn = &config.churn;
    let schema = bioinformatics_schema();

    // Uninterrupted baseline over an ephemeral store (durability must not
    // change decisions, so the cheaper store is the reference).
    let baseline = run_uninterrupted(CentralStore::new(schema.clone()), churn);

    // The durable run, up to the crash.
    let store = CentralStore::durable(schema.clone(), dir).expect("fresh durability directory");
    let mut system = fresh_system(store, churn);
    let ids = system.participant_ids();
    let mut generators = make_generators(churn, &ids);
    let mut totals = ChurnTotals::default();
    let mut crash_point: Option<(usize, usize)> = None;
    'schedule: for round in 0..churn.rounds {
        if config.snapshot_every_rounds > 0
            && round > 0
            && round % config.snapshot_every_rounds == 0
        {
            system.store().snapshot().expect("snapshot succeeds");
        }
        for (idx, &id) in ids.iter().enumerate() {
            step(&mut system, &mut generators, churn, round, idx, id, &mut totals);
            if system.store().catalog().largest_stable_epoch().as_u64() >= config.crash_at_epoch {
                crash_point = Some((round, idx));
                break 'schedule;
            }
        }
    }
    let (crash_round, crash_idx) =
        crash_point.expect("crash_at_epoch lies beyond the schedule; lower it or raise rounds");

    // The crash: record what the durable state looked like, then drop every
    // in-memory structure — catalogue, sessions, instances, soft state.
    let crash_epoch = system.store().catalog().largest_stable_epoch().as_u64();
    let fingerprint = format!("{:?}", system.store().catalog());
    let wal_records_at_crash =
        system.store().catalog().durability().file_backend().expect("durable store").wal_records();
    drop(system);

    // Recovery: reopen the store from disk, then rebuild every participant
    // from the store alone.
    let recover_start = Instant::now();
    let store = CentralStore::recover(dir).expect("store recovers");
    let recover_micros = recover_start.elapsed().as_micros() as u64;
    let durable_state_identical = format!("{:?}", store.catalog()) == fingerprint;
    let rebuilt: Vec<Participant> = mutual_trust_policies(churn.participants, 1)
        .into_iter()
        .map(|policy| {
            Participant::rebuild_from_store(schema.clone(), ParticipantConfig::new(policy), &store)
                .expect("participant rebuilds")
        })
        .collect();
    let mut system = CdssSystem::new(schema, store);
    for participant in rebuilt {
        system.adopt_participant(participant).expect("unique participants");
    }

    // Resume the schedule at the participant right after the crash.
    for round in crash_round..churn.rounds {
        if config.snapshot_every_rounds > 0
            && round > crash_round
            && round % config.snapshot_every_rounds == 0
        {
            system.store().snapshot().expect("snapshot succeeds");
        }
        let start_idx = if round == crash_round { crash_idx + 1 } else { 0 };
        for (idx, &id) in ids.iter().enumerate().skip(start_idx) {
            step(&mut system, &mut generators, churn, round, idx, id, &mut totals);
        }
    }
    for &id in &ids {
        reconcile_one(&mut system, id, &mut totals);
    }
    totals.state_ratio = system.state_ratio_for("Function");

    let decisions_match = totals == baseline;
    CrashChurnReport {
        baseline,
        recovered: totals,
        decisions_match,
        durable_state_identical,
        crash_round,
        crash_participant_index: crash_idx,
        crash_epoch,
        wal_records_at_crash,
        recover_micros,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::WorkloadConfig;

    fn tmp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("orchestra-crash-test-{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn tiny_churn() -> ChurnConfig {
        // A small key universe under heavy skew forces equal-priority
        // conflicts, so deferred soft state exists on both sides of the
        // crash and post-recovery resolutions exercise the rebuilt groups.
        ChurnConfig {
            participants: 4,
            rounds: 10,
            transactions_per_publish: 1,
            max_reconcile_interval: 3,
            resolve_every: 3,
            workload: WorkloadConfig {
                transaction_size: 1,
                key_universe: 12,
                function_pool: 8,
                value_zipf_exponent: 1.5,
                key_zipf_exponent: 1.2,
                xref_mean: 7.3,
            },
            seed: 11,
        }
    }

    #[test]
    fn crash_restart_reaches_identical_decisions() {
        let dir = tmp_dir("identical");
        let config = CrashChurnConfig::for_churn(tiny_churn());
        let report = run_crash_restart_scenario(&dir, &config);
        assert!(report.durable_state_identical, "recovered durable state diverged");
        assert!(
            report.decisions_match,
            "baseline {:?} != recovered {:?}",
            report.baseline, report.recovered
        );
        assert!(report.baseline.accepted > 0, "churn must share data");
        assert!(report.baseline.deferred > 0, "schedule must defer conflicts");
        assert!(report.baseline.resolutions > 0, "schedule must resolve conflicts");
        assert!(report.wal_records_at_crash > 0);
        assert!(report.crash_epoch >= config.crash_at_epoch);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_restart_without_snapshots_replays_the_whole_log() {
        let dir = tmp_dir("replay-only");
        let mut config = CrashChurnConfig::for_churn(tiny_churn());
        config.snapshot_every_rounds = 0;
        let report = run_crash_restart_scenario(&dir, &config);
        assert!(report.durable_state_identical);
        assert!(report.decisions_match);
        // No snapshot ever ran: the WAL still holds the full history
        // (Init + every record up to the crash).
        assert!(report.wal_records_at_crash > report.crash_epoch);
        std::fs::remove_dir_all(&dir).ok();
    }
}
