//! The crash-restart churn scenario: kill the store mid-wave together with
//! every participant's memory, restart it from the write-ahead log, finish the
//! schedule, and check that the confederation ends up exactly where an
//! uninterrupted run would have.
//!
//! This is the end-to-end proof of the durability layer. The same interleaved
//! publish/reconcile/resolve schedule as [`crate::run_churn_scenario`] runs
//! twice with the same seed:
//!
//! * the **baseline** runs uninterrupted over an ephemeral store;
//! * the **durable** run uses a WAL-backed [`CentralStore`] and takes a
//!   [`Step::Snapshot`] every few rounds. Once the stable epoch crosses the
//!   configured threshold, mid-round, a [`Step::Crash`] restarts the store
//!   from disk, losing the in-memory catalogue, and a [`Step::Rebuild`] of
//!   everyone rebuilds every participant from the store alone, losing every
//!   instance, deferred conflict and pending own-publish delta. The schedule
//!   then resumes at the exact point it was interrupted.
//!
//! The report records whether the recovered run reached identical decisions
//! (accept/reject/defer/resolution totals and final state ratio) and whether
//! the restart recovered a catalogue byte-identical to the one that crashed,
//! which the crash step itself checks.

use crate::scenario::{churn_confederation, churn_schedule, ChurnConfig};
use crate::schedule::{churn_turns, ChurnTotals, Driver, Step};
use orchestra_model::schema::bioinformatics_schema;
use orchestra_store::CentralStore;
use std::path::Path;

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

/// The outcome of one crash-restart experiment.
#[derive(Debug, Clone)]
pub struct CrashChurnReport {
    /// Totals of the uninterrupted baseline run.
    pub baseline: ChurnTotals,
    /// Totals of the crashed-and-recovered run.
    pub recovered: ChurnTotals,
    /// Whether the two runs reached identical decisions (they must).
    pub decisions_match: bool,
    /// Whether the crash restarted the store: [`Step::Crash`] refuses a
    /// recovered catalogue whose durable state is not byte-identical to the
    /// pre-crash one (canonical `Debug` comparison; it must be).
    pub durable_state_identical: bool,
    /// The round the crash interrupted.
    pub crash_round: usize,
    /// The index of the last participant step completed before the crash.
    pub crash_participant_index: usize,
    /// Stable epoch at the crash.
    pub crash_epoch: u64,
    /// Records in the current WAL generation at the crash.
    pub wal_records_at_crash: u64,
}

/// Runs the crash-restart experiment in `dir` (which must not already hold a
/// durable store). See the module docs for the full shape.
///
/// Panics if the schedule finishes before the stable epoch reaches
/// `crash_at_epoch` — pick a crash point inside the schedule.
pub fn run_crash_restart_scenario(dir: &Path, config: &CrashChurnConfig) -> CrashChurnReport {
    let churn = &config.churn;
    let schema = bioinformatics_schema();
    let driver = Driver::sequential();

    // Uninterrupted baseline over an ephemeral store (durability must not
    // change decisions, so the cheaper store is the reference).
    let mut baseline = churn_confederation(CentralStore::new(schema.clone()), churn);
    let ids = baseline.system.participant_ids();
    baseline.run(&churn_schedule(churn, &ids), &driver, |_| ()).expect("churn step succeeds");
    let baseline = baseline.closing_totals();

    // The durable run: the same turns, with a snapshot on every
    // `snapshot_every_rounds`-th round boundary.
    let snapshot_every = config.snapshot_every_rounds * ids.len();
    let turns = churn_turns(churn, &ids).into_iter().enumerate().map(|(at, mut turn)| {
        if at > 0 && snapshot_every > 0 && at % snapshot_every == 0 {
            turn.insert(0, Step::Snapshot);
        }
        turn
    });
    let store = CentralStore::durable(schema, dir).expect("fresh durability directory");
    let mut conf = churn_confederation(store, churn);
    // The crash falls between two turns: mid-round, so some of the round's
    // due participants have reconciled and the rest have not, but never
    // between an execute and its publish. The generators and the totals so
    // far are the schedule's, not the system's, and survive it.
    let mut crash = None;
    for (at, turn) in turns.enumerate() {
        conf.run(&turn, &driver, |_| ()).expect("churn step succeeds");
        let catalog = conf.system.store().catalog();
        let epoch = catalog.largest_stable_epoch().as_u64();
        if crash.is_none() && epoch >= config.crash_at_epoch {
            let wal_records = catalog.durability().file_backend().expect("durable").wal_records();
            let restarted = conf.apply(&Step::Crash, &driver).is_ok();
            conf.apply(&Step::Rebuild(ids.clone()), &driver).expect("participants rebuild");
            crash = Some((at, epoch, wal_records, restarted));
        }
    }
    let (crash_turn, crash_epoch, wal_records_at_crash, durable_state_identical) =
        crash.expect("crash_at_epoch lies beyond the schedule; lower it or raise rounds");
    conf.apply(&Step::Reconcile(ids.clone()), &driver).expect("catch-up wave succeeds");
    let recovered = conf.closing_totals();

    CrashChurnReport {
        decisions_match: recovered == baseline,
        baseline,
        recovered,
        durable_state_identical,
        crash_round: crash_turn / ids.len(),
        crash_participant_index: crash_turn % ids.len(),
        crash_epoch,
        wal_records_at_crash,
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
