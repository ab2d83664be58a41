//! Golden values of every runner at a fixed small configuration and seed.
//!
//! The runners are deterministic functions of their configuration: the
//! decisions, the publish and session counts, the crash point, and — for the
//! framed drivers — the frame counts and the virtual clock. These tests pin
//! all of them, so a refactor of how the runners are written cannot move a
//! number without failing here. Wall-clock fields are the only ones left out.

use orchestra_model::schema::bioinformatics_schema;
use orchestra_obs::Obs;
use orchestra_store::{CentralStore, RetentionPolicy};
use orchestra_workload::{
    run_churn_concurrent, run_churn_scale, run_churn_scale_fabric_observed, run_churn_scenario,
    run_crash_restart_scenario, run_offline_scenario, run_retention_scenario, run_scenario,
    ChurnConfig, ChurnTotals, CrashChurnConfig, Driver, EpochMode, OfflineChurnConfig,
    RetentionChurnConfig, ScaleConfig, ScaleDriver, ScaleRunResult, ScenarioConfig, WorkloadConfig,
};

fn central() -> CentralStore {
    CentralStore::new(bioinformatics_schema())
}

/// A small, heavily skewed key universe: equal-priority conflicts, deferrals
/// and resolutions all occur within a dozen rounds.
fn contended_churn(rounds: usize) -> ChurnConfig {
    ChurnConfig {
        participants: 4,
        rounds,
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

fn scale_config() -> ScaleConfig {
    let mut config = ScaleConfig::quick();
    config.participants = 24;
    config.rounds = 2;
    // Below the largest wave, so the framed drivers shed and re-admit.
    config.service_max_open_sessions = 4;
    config
}

fn totals(t: &ChurnTotals) -> String {
    format!(
        "rec {} pub {} acc {} rej {} def {} res {} ratio {:?}",
        t.reconciliations,
        t.publishes,
        t.accepted,
        t.rejected,
        t.deferred,
        t.resolutions,
        t.state_ratio
    )
}

#[test]
fn run_scenario_is_pinned() {
    let config = ScenarioConfig {
        participants: 4,
        transactions_between_reconciliations: 3,
        rounds: 3,
        workload: contended_churn(0).workload,
        seed: 1,
    };
    let r = run_scenario(central(), &config);
    assert_eq!(
        format!(
            "rec {} acc {} rej {} def {} ratio {:?} overall {:?}",
            r.reconciliations,
            r.accepted,
            r.rejected,
            r.deferred,
            r.state_ratio,
            r.overall_state_ratio
        ),
        "rec 12 acc 22 rej 31 def 37 ratio 2.2222222222222223 overall 1.9052287581699345"
    );
}

#[test]
fn run_churn_scenario_is_pinned() {
    let r = run_churn_scenario(central(), &contended_churn(10));
    let coverage: Vec<(usize, u64, u64)> =
        r.samples.iter().map(|s| (s.sequence, s.epochs_covered, s.total_epochs)).collect();
    assert_eq!(
        format!(
            "rec {} pub {} epochs {} acc {} rej {} def {} res {} samples {} ratio {:?}",
            r.reconciliations,
            r.publishes,
            r.epochs,
            r.accepted,
            r.rejected,
            r.deferred,
            r.resolutions,
            r.samples.len(),
            r.state_ratio
        ),
        "rec 32 pub 40 epochs 40 acc 62 rej 41 def 17 res 4 samples 32 ratio 1.5833333333333333"
    );
    assert_eq!(
        format!("{:?}", &coverage[..6]),
        "[(0, 1, 1), (1, 4, 4), (2, 4, 5), (3, 6, 6), (4, 7, 7), (5, 4, 8)]"
    );
    assert_eq!(format!("{:?}", coverage.last().unwrap()), "(31, 0, 40)");
}

#[test]
fn run_churn_concurrent_is_pinned_under_each_driver() {
    let service = Driver::service(orchestra_store::ServiceConfig::default());
    for driver in [Driver::sequential(), Driver::threads(), service] {
        let r = run_churn_concurrent(central(), &contended_churn(10), &driver);
        assert_eq!(
            format!(
                "rec {} pub {} acc {} rej {} def {} res {} ratio {:?}",
                r.reconciliations,
                r.publishes,
                r.accepted,
                r.rejected,
                r.deferred,
                r.resolutions,
                r.state_ratio
            ),
            "rec 32 pub 40 acc 77 rej 31 def 11 res 3 ratio 1.6363636363636365"
        );
    }
}

fn scale_counts(r: &ScaleRunResult) -> String {
    format!(
        "sessions {} pub {} txns {} updates {} fingerprint {} ratio {:?}",
        r.sessions, r.publishes, r.transactions, r.updates, r.decision_fingerprint, r.state_ratio
    )
}

fn scale_frames(r: &ScaleRunResult) -> String {
    format!(
        "requests {} busy {} batches {} net {}/{} virtual_us {} latencies {}/{} shards {:?} {:?}",
        r.requests,
        r.busy_rejections,
        r.batches,
        r.net_messages,
        r.net_bytes,
        r.virtual_elapsed_us,
        r.latencies_us.len(),
        r.latencies_us.iter().sum::<u64>(),
        r.shard_frames,
        r.shard_busy
    )
}

#[test]
fn run_churn_scale_is_pinned_under_each_driver() {
    let config = scale_config();
    let counts = "sessions 56 pub 48 txns 48 updates 192 fingerprint 8508242371751405458 ratio 2.518867924528302";
    let unframed = "requests 0 busy 0 batches 0 net 0/0 virtual_us 0 latencies 0/0 shards [] []";

    let sequential = run_churn_scale(central(), &config, ScaleDriver::Sequential);
    assert_eq!(scale_counts(&sequential), counts);
    assert_eq!(scale_frames(&sequential), unframed);

    let threads = run_churn_scale(central(), &config, ScaleDriver::Threads);
    assert_eq!(scale_counts(&threads), counts);
    assert_eq!(scale_frames(&threads), unframed);

    let service = run_churn_scale(central(), &config, ScaleDriver::Service);
    assert_eq!(scale_counts(&service), counts);
    assert_eq!(scale_frames(&service), "requests 216 busy 156 batches 136 net 744/226496 virtual_us 106200 latencies 56/584800 shards [] []");

    let fabric = run_churn_scale_fabric_observed(&config, &Obs::disabled());
    assert_eq!(scale_counts(&fabric), counts);
    assert_eq!(scale_frames(&fabric), "requests 360 busy 24 batches 252 net 768/310976 virtual_us 249000 latencies 56/248400 shards [98, 94, 98, 94] [8, 4, 8, 4]");
}

#[test]
fn run_crash_restart_scenario_is_pinned() {
    let dir = std::env::temp_dir().join(format!("orchestra-golden-crash-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    // Mid-round: participants 1 and 2 of round 5 have had their turn, 3 and 4
    // have not.
    let mut config = CrashChurnConfig::for_churn(contended_churn(10));
    config.crash_at_epoch = 22;
    let r = run_crash_restart_scenario(&dir, &config);
    std::fs::remove_dir_all(&dir).ok();
    assert!(r.decisions_match && r.durable_state_identical);
    assert_eq!(
        format!(
            "round {} index {} epoch {} wal_records {}",
            r.crash_round, r.crash_participant_index, r.crash_epoch, r.wal_records_at_crash
        ),
        "round 5 index 1 epoch 22 wal_records 21"
    );
    assert_eq!(
        totals(&r.baseline),
        "rec 32 pub 40 acc 62 rej 41 def 17 res 4 ratio 1.5833333333333333"
    );
    assert_eq!(totals(&r.recovered), totals(&r.baseline));
}

#[test]
fn run_offline_scenario_is_pinned() {
    let churn = ChurnConfig {
        participants: 4,
        rounds: 24,
        transactions_per_publish: 2,
        max_reconcile_interval: 3,
        resolve_every: 4,
        workload: WorkloadConfig {
            key_universe: 24,
            function_pool: 12,
            ..WorkloadConfig::default()
        },
        seed: 11235,
    };
    let config = OfflineChurnConfig::for_churn(churn);
    let r = run_offline_scenario(central(), EpochMode::Causal, &config);
    assert!(r.converged_after_heal);
    assert_eq!(
        totals(&r.totals),
        "rec 73 pub 91 acc 209 rej 320 def 44 res 10 ratio 1.5416666666666667"
    );
    assert_eq!(
        format!(
            "partitions {} healed {} epoch {} horizon {} frontier {}",
            r.partitions, r.healed_batches, r.final_epoch, r.convergence_horizon, r.final_frontier
        ),
        "partitions 5 healed 5 epoch 96 horizon 96 frontier {p1:24,p2:24,p3:24,p4:24}"
    );

    // The unpartitioned schedule decides the same in either epoch mode.
    let scalar = run_offline_scenario(central(), EpochMode::Scalar, &config.unpartitioned());
    assert_eq!(totals(&scalar.totals), "rec 76 pub 96 acc 210 rej 333 def 32 res 9 ratio 1.5");
    assert_eq!(
        format!("partitions {} epoch {}", scalar.partitions, scalar.final_epoch),
        "partitions 0 epoch 96"
    );
}

#[test]
fn run_retention_scenario_is_pinned() {
    let config =
        RetentionChurnConfig::for_churn(contended_churn(12), RetentionPolicy::ConvergedOnly);
    let r = run_retention_scenario(central(), &config);
    assert_eq!(totals(&r.totals), "rec 42 pub 48 acc 66 rej 60 def 18 res 6 ratio 1.5");
    assert_eq!(
        format!(
            "prunes {} log {} relevance {} pinned {} peak {} final {} published {} samples {}",
            r.prunes,
            r.pruned_log_entries,
            r.pruned_relevance_entries,
            r.last_pinned,
            r.peak_live_set,
            r.final_live_set(),
            r.total_published,
            r.samples.len()
        ),
        "prunes 9 log 9 relevance 144 pinned 39 peak 74 final 39 published 48 samples 13"
    );
}
