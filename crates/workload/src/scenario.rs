//! End-to-end experiment scenarios: drive a whole CDSS under the synthetic
//! workload and report the paper's metrics.

use crate::generator::WorkloadConfig;
use crate::scale::decision_fingerprint;
use crate::schedule::{churn_turns, wave_schedule, Confederation, Driver, Step};
use orchestra::TimingBreakdown;
use orchestra_model::{ParticipantId, TrustPolicy};
use orchestra_obs::Obs;
use orchestra_store::UpdateStore;
use rustc_hash::FxHashMap;
use std::time::{Duration, Instant};

/// Configuration of one experiment run.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Number of participants. As in the paper's experiments, every
    /// participant trusts every other at the same priority, so conflicts must
    /// be deferred rather than automatically resolved.
    pub participants: usize,
    /// Number of transactions each participant publishes between
    /// reconciliations (the paper's "RI").
    pub transactions_between_reconciliations: usize,
    /// Number of publish-and-reconcile rounds each participant performs.
    pub rounds: usize,
    /// Workload generator parameters (transaction size, key universe, Zipf
    /// exponents, cross-reference mean).
    pub workload: WorkloadConfig,
    /// Base random seed; each participant derives its own stream from it.
    pub seed: u64,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            participants: 10,
            transactions_between_reconciliations: 4,
            rounds: 3,
            workload: WorkloadConfig::default(),
            seed: 42,
        }
    }
}

/// Aggregate results of one experiment run.
#[derive(Debug, Clone, Default)]
pub struct ScenarioResult {
    /// Final state ratio over the `Function` relation (the paper's quality
    /// metric).
    pub state_ratio: f64,
    /// Final state ratio averaged over all populated relations.
    pub overall_state_ratio: f64,
    /// Number of reconciliations performed in total.
    pub reconciliations: usize,
    /// Total root transactions accepted across all reconciliations.
    pub accepted: usize,
    /// Total root transactions rejected.
    pub rejected: usize,
    /// Total root transactions deferred.
    pub deferred: usize,
    /// Average store time per participant over the whole run.
    pub store_time_per_participant: Duration,
    /// Average local time per participant over the whole run.
    pub local_time_per_participant: Duration,
    /// Average time per reconciliation (store + local).
    pub time_per_reconciliation: Duration,
}

/// Builds the trust policies of the paper's evaluation: every participant
/// trusts every other participant at the same priority.
pub fn mutual_trust_policies(participants: usize, priority: u32) -> Vec<TrustPolicy> {
    (1..=participants as u32)
        .map(|i| {
            let mut policy = TrustPolicy::new(ParticipantId(i));
            for j in 1..=participants as u32 {
                if i != j {
                    policy = policy.trusting(ParticipantId(j), priority);
                }
            }
            policy
        })
        .collect()
}

/// One experiment's mutual-trust confederation over `store` and its
/// schedule: `rounds` cycles in which every participant executes its share
/// of the workload, publishes, and reconciles.
pub fn scenario_schedule<S: UpdateStore>(
    store: S,
    config: &ScenarioConfig,
) -> (Confederation<S>, Vec<Step>) {
    let mut conf = Confederation::new(store, mutual_trust_policies(config.participants, 1));
    conf.seed_generators(&config.workload, config.seed, 7919);
    let ids = conf.system.participant_ids();
    let turn = |&id: &ParticipantId| {
        let transactions = config.transactions_between_reconciliations;
        [
            Step::Generate { who: id, transactions },
            Step::Publish(vec![id]),
            Step::Reconcile(vec![id]),
        ]
    };
    let steps = (0..config.rounds).flat_map(|_| ids.iter().flat_map(turn)).collect();
    (conf, steps)
}

/// Runs one experiment ([`scenario_schedule`]) under the sequential driver.
pub fn run_scenario<S: UpdateStore>(store: S, config: &ScenarioConfig) -> ScenarioResult {
    let (mut conf, steps) = scenario_schedule(store, config);
    let mut total_timing = TimingBreakdown::default();
    conf.run(&steps, &Driver::sequential(), |outcome| {
        for (_, report) in outcome.reconciled {
            total_timing.accumulate(report.timing);
        }
    })
    .expect("publish and reconcile succeeds");

    let totals = conf.totals;
    let participants = config.participants.max(1) as u32;
    ScenarioResult {
        state_ratio: conf.system.state_ratio_for("Function"),
        overall_state_ratio: conf.system.state_ratio(),
        reconciliations: totals.reconciliations,
        accepted: totals.accepted,
        rejected: totals.rejected,
        deferred: totals.deferred,
        store_time_per_participant: total_timing.store / participants,
        local_time_per_participant: total_timing.local / participants,
        time_per_reconciliation: total_timing.total() / (totals.reconciliations.max(1) as u32),
    }
}

/// Configuration of a churn experiment: a long history of interleaved
/// publish/reconcile schedules, designed to expose how per-reconciliation
/// store work scales as total history grows.
///
/// Every participant executes and publishes a small batch each round, but
/// reconciles only on its own staggered interval (participant `i` reconciles
/// every `1 + i mod max_reconcile_interval` rounds, offset by `i`), so at any
/// moment different participants are lagging the stable frontier by different
/// amounts — the "churn" the update store must serve incrementally.
#[derive(Debug, Clone)]
pub struct ChurnConfig {
    /// Number of participants (mutual trust at equal priority).
    pub participants: usize,
    /// Number of publish rounds — the length of the history.
    pub rounds: usize,
    /// Transactions each participant publishes per round.
    pub transactions_per_publish: usize,
    /// Upper bound on the per-participant reconciliation interval.
    pub max_reconcile_interval: usize,
    /// Resolve deferred conflicts every this many rounds (0 = never): each
    /// participant keeps the first option of every conflict group, so
    /// deferred chains stay bounded as they would under real curation.
    pub resolve_every: usize,
    /// Workload generator parameters.
    pub workload: WorkloadConfig,
    /// Base random seed.
    pub seed: u64,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            participants: 8,
            rounds: 60,
            transactions_per_publish: 2,
            max_reconcile_interval: 6,
            resolve_every: 4,
            workload: WorkloadConfig::default(),
            seed: 7,
        }
    }
}

/// One per-reconciliation sample of a churn run.
#[derive(Debug, Clone, Copy)]
pub struct ChurnSample {
    /// How many reconciliations (across all participants) preceded this one.
    pub sequence: usize,
    /// Epochs covered by this reconciliation (new history since the
    /// participant's cursor).
    pub epochs_covered: u64,
    /// Total epochs in the store when the call ran.
    pub total_epochs: u64,
    /// Store-side time of the call (retrieval plus decision recording).
    pub store_micros: u64,
}

/// Aggregate results of one churn run.
#[derive(Debug, Clone, Default)]
pub struct ChurnResult {
    /// Number of reconciliations performed.
    pub reconciliations: usize,
    /// Number of publish calls performed.
    pub publishes: usize,
    /// Total epochs published.
    pub epochs: u64,
    /// Root transactions accepted / rejected / deferred, summed.
    pub accepted: usize,
    /// Total rejected roots.
    pub rejected: usize,
    /// Total deferred roots.
    pub deferred: usize,
    /// Conflict-resolution rounds performed.
    pub resolutions: usize,
    /// Total store-side time across all reconciliations.
    pub store_time: Duration,
    /// Total local (client algorithm) time across all reconciliations.
    pub local_time: Duration,
    /// Wall-clock time of the reconciliation steps alone — the quantity a
    /// concurrent driver shrinks by overlapping the sessions of a wave.
    pub reconcile_wall: Duration,
    /// Wall-clock time of the whole schedule.
    pub total_wall: Duration,
    /// Final state ratio over the `Function` relation.
    pub state_ratio: f64,
    /// Order-invariant fingerprint of every participant's decision record
    /// at the store when the run ended.
    pub decision_fingerprint: u64,
    /// Per-reconciliation samples, in execution order.
    pub samples: Vec<ChurnSample>,
}

/// A mutual-trust confederation over `store` with the churn schedules'
/// generator seeding — shared by every runner of a [`ChurnConfig`], so their
/// trajectories stay comparable.
pub(crate) fn churn_confederation<S: UpdateStore>(
    store: S,
    config: &ChurnConfig,
) -> Confederation<S> {
    let mut conf = Confederation::new(store, mutual_trust_policies(config.participants, 1));
    conf.seed_generators(&config.workload, config.seed, 6151);
    conf
}

/// The interleaved churn schedule: `rounds` rounds of participant turns, then
/// a catch-up wave so every participant observes the full history.
pub(crate) fn churn_schedule(config: &ChurnConfig, ids: &[ParticipantId]) -> Vec<Step> {
    let mut steps = churn_turns(config, ids).concat();
    steps.push(Step::Reconcile(ids.to_vec()));
    steps
}

/// Runs a churn experiment: a long interleaved publish/reconcile history over
/// the given store, sampling the store-side cost of every reconciliation.
pub fn run_churn_scenario<S: UpdateStore>(store: S, config: &ChurnConfig) -> ChurnResult {
    run_churn_scenario_observed(store, config, &Obs::disabled())
}

/// [`run_churn_scenario`] reporting into a caller-supplied observability
/// sink shared by every participant. When its tracer is enabled, each
/// reconciliation and each resolution records a wall-clock span with the
/// engine's Figure 5 phases under it (see `examples/engine_trace.rs`).
pub fn run_churn_scenario_observed<S: UpdateStore>(
    store: S,
    config: &ChurnConfig,
    obs: &Obs,
) -> ChurnResult {
    run_churn(store, config, churn_schedule, &Driver::sequential(), obs)
}

/// Runs the concurrent-churn scenario: the schedule of
/// [`run_churn_scenario`] with each round's phases gathered, so the round's
/// due reconciliations form one *wave* that the given [`Driver`] executes —
/// serially, with one thread per due participant, or as sessions multiplexed
/// through a store service.
///
/// Every driver reaches **identical decisions** (see [`Driver`]) — the
/// equivalence the parallel-driver proptest asserts. What changes is the
/// wall clock: a concurrent driver overlaps the store latency and the local
/// engine work of all due participants.
pub fn run_churn_concurrent<S: UpdateStore>(
    store: S,
    config: &ChurnConfig,
    driver: &Driver<S>,
) -> ChurnResult {
    let waved = |config: &ChurnConfig, ids: &[ParticipantId]| {
        wave_schedule(
            config.rounds,
            config.transactions_per_publish,
            config.max_reconcile_interval,
            config.resolve_every,
            ids,
        )
    };
    run_churn(store, config, waved, driver, &Obs::disabled())
}

/// The churn runners' one body: they differ in the schedule they build and
/// the driver that executes its publishes and waves.
fn run_churn<S: UpdateStore>(
    store: S,
    config: &ChurnConfig,
    schedule: impl Fn(&ChurnConfig, &[ParticipantId]) -> Vec<Step>,
    driver: &Driver<S>,
    obs: &Obs,
) -> ChurnResult {
    let mut conf = churn_confederation(store, config);
    conf.system.set_observability(obs);
    let ids = conf.system.participant_ids();
    let steps = schedule(config, &ids);

    let mut result = ChurnResult::default();
    let mut last_epoch: FxHashMap<ParticipantId, u64> = FxHashMap::default();
    let run_start = Instant::now();
    conf.run(&steps, driver, |outcome| {
        if !outcome.reconciled.is_empty() {
            result.reconcile_wall += outcome.wall;
        }
        for (id, report) in outcome.reconciled {
            let epoch = report.epoch.as_u64();
            let covered = epoch.saturating_sub(last_epoch.insert(id, epoch).unwrap_or(0));
            result.samples.push(ChurnSample {
                sequence: result.samples.len(),
                epochs_covered: covered,
                total_epochs: epoch,
                store_micros: report.timing.store.as_micros() as u64,
            });
            result.store_time += report.timing.store;
            result.local_time += report.timing.local;
        }
    })
    .expect("churn step succeeds");
    result.total_wall = run_start.elapsed();

    let totals = conf.closing_totals();
    result.reconciliations = totals.reconciliations;
    result.publishes = totals.publishes;
    result.epochs = totals.publishes as u64;
    result.accepted = totals.accepted;
    result.rejected = totals.rejected;
    result.deferred = totals.deferred;
    result.resolutions = totals.resolutions;
    result.state_ratio = totals.state_ratio;
    result.decision_fingerprint = decision_fingerprint(conf.system.store(), &ids);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use orchestra_model::schema::bioinformatics_schema;
    use orchestra_model::TransactionId;
    use orchestra_spec::{Decided, Group, Spec};
    use orchestra_store::{CentralStore, DhtStore};
    use std::collections::BTreeSet;

    fn tiny_config() -> ScenarioConfig {
        ScenarioConfig {
            participants: 4,
            transactions_between_reconciliations: 3,
            rounds: 2,
            workload: WorkloadConfig {
                transaction_size: 1,
                key_universe: 60,
                function_pool: 20,
                value_zipf_exponent: 1.5,
                key_zipf_exponent: 0.9,
                xref_mean: 7.3,
            },
            seed: 1,
        }
    }

    #[test]
    fn central_scenario_produces_sane_metrics() {
        let config = tiny_config();
        let result = run_scenario(CentralStore::new(bioinformatics_schema()), &config);
        assert_eq!(result.reconciliations, 8);
        assert!(result.state_ratio >= 1.0);
        assert!(result.state_ratio <= config.participants as f64);
        assert!(result.overall_state_ratio >= 1.0);
        assert!(result.accepted > 0, "some sharing must have happened");
    }

    #[test]
    fn dht_scenario_charges_network_time() {
        let config = tiny_config();
        let result = run_scenario(DhtStore::new(bioinformatics_schema()), &config);
        assert_eq!(result.reconciliations, 8);
        // The distributed store's simulated message latency must show up in
        // store time and dominate the central store's.
        let central = run_scenario(CentralStore::new(bioinformatics_schema()), &config);
        assert!(result.store_time_per_participant > central.store_time_per_participant);
    }

    #[test]
    fn identical_seeds_reproduce_the_same_state_ratio() {
        let config = tiny_config();
        let a = run_scenario(CentralStore::new(bioinformatics_schema()), &config);
        let b = run_scenario(CentralStore::new(bioinformatics_schema()), &config);
        assert_eq!(a.state_ratio, b.state_ratio);
        assert_eq!(a.accepted, b.accepted);
        assert_eq!(a.deferred, b.deferred);
    }

    #[test]
    fn mutual_trust_policies_cover_every_pair() {
        let policies = mutual_trust_policies(5, 1);
        assert_eq!(policies.len(), 5);
        for p in &policies {
            assert_eq!(p.rules().len(), 4);
        }
    }

    fn tiny_churn() -> ChurnConfig {
        ChurnConfig {
            participants: 4,
            rounds: 8,
            transactions_per_publish: 1,
            max_reconcile_interval: 3,
            resolve_every: 3,
            workload: tiny_config().workload,
            seed: 11,
        }
    }

    #[test]
    fn churn_scenario_interleaves_and_samples_every_reconciliation() {
        let result = run_churn_scenario(CentralStore::new(bioinformatics_schema()), &tiny_churn());
        assert_eq!(result.samples.len(), result.reconciliations);
        // Interleaving: strictly fewer reconciliations than publishes, plus
        // the final catch-up pass.
        assert!(result.reconciliations < result.publishes + 4);
        assert!(result.publishes > 0 && result.epochs == result.publishes as u64);
        assert!(result.accepted > 0, "churn must share data");
        assert!(result.state_ratio >= 1.0);
        // Samples carry real coverage information.
        assert!(result.samples.iter().any(|s| s.epochs_covered > 1));
    }

    /// The tiny churn decides, step by step, what the executable spec
    /// decides on the same schedule, and ends in the spec's instances.
    #[test]
    fn churn_decisions_are_the_specs() {
        let config = tiny_churn();
        let mut conf = churn_confederation(CentralStore::new(bioinformatics_schema()), &config);
        let ids = conf.system.participant_ids();
        let policies = ids.iter().map(|&id| conf.system.participant(id).unwrap().policy().clone());
        let mut spec = Spec::new(bioinformatics_schema(), policies.collect::<Vec<_>>());
        let sorted = |ids: &[TransactionId]| ids.iter().copied().collect::<BTreeSet<_>>();
        let mut executed = Vec::new();
        for step in churn_schedule(&config, &ids) {
            let outcome = conf.apply(&step, &Driver::sequential()).unwrap();
            let decided: Vec<Decided> = match &step {
                // A churn turn generates into an empty pending list, then
                // publishes all of it.
                Step::Generate { who, .. } => {
                    let pending = conf.system.participant(*who).unwrap().pending_publications();
                    executed = pending.iter().map(|txn| txn.id()).collect();
                    pending.iter().for_each(|txn| spec.execute(txn.clone()));
                    Vec::new()
                }
                Step::Publish(who) => {
                    let epoch = (!executed.is_empty()).then(|| spec.publish(who[0], &executed));
                    assert_eq!(outcome.published, vec![(who[0], epoch)]);
                    Vec::new()
                }
                Step::Reconcile(who) => who.iter().map(|&id| spec.reconcile(id)).collect(),
                Step::Resolve { who, option } => {
                    let kept = |g: &Group| (g.key.clone(), Some(option % g.options.len()));
                    let choices: Vec<_> = spec.groups(*who).iter().map(kept).collect();
                    (!choices.is_empty())
                        .then(|| spec.resolve(*who, &choices))
                        .into_iter()
                        .collect()
                }
                _ => unreachable!("a churn schedule has no {step:?}"),
            };
            let expected: Vec<_> =
                decided.iter().map(|[a, r, d]| [a, r, d].map(|ids| sorted(ids))).collect();
            let reconciled =
                outcome.reconciled.iter().map(|(_, r)| [&r.accepted, &r.rejected, &r.deferred]);
            let resolved = outcome
                .resolved
                .iter()
                .map(|(_, r)| [&r.newly_accepted, &r.newly_rejected, &r.still_deferred]);
            let reported: Vec<_> =
                reconciled.chain(resolved).map(|r| r.map(|ids| sorted(ids))).collect();
            assert_eq!(reported, expected, "{step:?}");
        }
        for id in ids {
            assert_eq!(conf.system.participant(id).unwrap().instance(), &spec.peer(id).instance);
        }
    }

    #[test]
    fn concurrent_churn_drivers_reach_identical_decisions() {
        let config = tiny_churn();
        let run = |driver| {
            run_churn_concurrent(CentralStore::new(bioinformatics_schema()), &config, &driver)
        };
        let sequential = run(Driver::sequential());
        let parallel = run(Driver::threads());
        let service = run(Driver::service(orchestra_store::ServiceConfig::default()));
        for other in [&parallel, &service] {
            assert_eq!(sequential.reconciliations, other.reconciliations);
            assert_eq!(sequential.accepted, other.accepted);
            assert_eq!(sequential.rejected, other.rejected);
            assert_eq!(sequential.deferred, other.deferred);
            assert_eq!(sequential.state_ratio, other.state_ratio);
        }
        assert!(sequential.accepted > 0, "churn must share data");
        assert!(parallel.reconcile_wall > Duration::ZERO);
        assert!(parallel.total_wall >= parallel.reconcile_wall);
    }

    #[test]
    fn more_contention_raises_the_state_ratio() {
        // A tiny key universe forces more conflicts than a large one.
        let mut contended = tiny_config();
        contended.workload.key_universe = 5;
        contended.workload.key_zipf_exponent = 1.2;
        let mut relaxed = tiny_config();
        relaxed.workload.key_universe = 500;
        relaxed.workload.key_zipf_exponent = 0.2;
        let contended_result = run_scenario(CentralStore::new(bioinformatics_schema()), &contended);
        let relaxed_result = run_scenario(CentralStore::new(bioinformatics_schema()), &relaxed);
        assert!(
            contended_result.state_ratio >= relaxed_result.state_ratio,
            "contended {} < relaxed {}",
            contended_result.state_ratio,
            relaxed_result.state_ratio
        );
    }
}
