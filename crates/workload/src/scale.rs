//! The `churn_scale` scenario: confederation-scale churn through the store
//! service.
//!
//! Where [`crate::run_churn_concurrent`] compares reconciliation
//! drivers on a handful of participants, this module stresses the *service*
//! deployment model at the paper's confederation scale: a thousand-plus
//! participants publishing hundreds of thousands of updates while sustained
//! waves of reconciliation sessions are multiplexed through the framed store
//! service ([`orchestra_store::StoreService`]).
//!
//! Relevance is Zipf-skewed: each participant trusts a small set of
//! publishers drawn from a Zipf distribution over the confederation
//! ([`zipf_fanin_policies`]), so a few popular publishers are relevant to
//! most of the confederation while the long tail is relevant to almost
//! nobody — the interest skew the paper observes in bioinformatics sharing.
//!
//! Four [`Driver`]s run the *same* publish/reconcile schedule: the three of
//! [`ScaleDriver`] over a caller's store, and the fabric
//! ([`run_churn_scale_fabric_observed`]) over
//! [`ScaleConfig::fabric_shards`] store services, each fronting one shard of
//! a [`StoreFabric`]. Because publishes are schedule-ordered in every driver
//! and a wave pins the log, all four reach identical decisions; the run
//! result carries an order-invariant [`ScaleRunResult::decision_fingerprint`]
//! so a benchmark can assert that equivalence cheaply at full scale.

use crate::generator::WorkloadConfig;
use crate::schedule::{wave_schedule, Confederation, Driver};
use crate::zipf::ZipfSampler;
use orchestra_model::schema::bioinformatics_schema;
use orchestra_model::{ParticipantId, TransactionId, TrustPolicy};
use orchestra_obs::{MetricsSnapshot, Obs};
use orchestra_store::{FabricConfig, ServiceConfig, StoreFabric, UpdateStore};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rustc_hash::{FxHashSet, FxHasher};
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

/// Configuration of one `churn_scale` run.
///
/// The service knobs mirror [`ServiceConfig`] field for field;
/// [`ScaleConfig::service_config`] converts.
#[derive(Debug, Clone)]
pub struct ScaleConfig {
    /// Confederation size.
    pub participants: usize,
    /// Publish/reconcile rounds.
    pub rounds: usize,
    /// Transactions each participant publishes per round.
    pub transactions_per_publish: usize,
    /// Publishers each participant trusts (drawn Zipf-skewed).
    pub trusted_publishers: usize,
    /// Zipf exponent of publisher popularity.
    pub zipf_s: f64,
    /// Reconciliation stagger: participant `idx` reconciles every
    /// `1 + idx % max_reconcile_interval` rounds.
    pub max_reconcile_interval: usize,
    /// Workload generator parameters.
    pub workload: WorkloadConfig,
    /// Base random seed.
    pub seed: u64,
    /// Mirrors [`ServiceConfig::workers`].
    pub service_workers: usize,
    /// Mirrors [`ServiceConfig::inbox_capacity`].
    pub service_inbox_capacity: usize,
    /// Mirrors [`ServiceConfig::max_open_sessions`]. On the fabric driver
    /// the cap is per shard — it bounds the open sessions of the
    /// participants homed there — so the fabric admits
    /// [`ScaleConfig::fabric_shards`] times as many.
    pub service_max_open_sessions: usize,
    /// Mirrors [`ServiceConfig::max_batch`].
    pub service_max_batch: usize,
    /// Mirrors [`ServiceConfig::frame_latency_us`].
    pub frame_latency_us: u64,
    /// Mirrors [`ServiceConfig::store_latency_us`].
    pub store_latency_us: u64,
    /// Shards in the store fabric (the fabric driver only; mirrors
    /// [`FabricConfig::shards`]).
    pub fabric_shards: usize,
}

impl ScaleConfig {
    /// Reduced scale for tests and the `fabric_trace` example: tens of
    /// participants, hundreds of updates, the same schedule shape.
    pub fn quick() -> ScaleConfig {
        ScaleConfig {
            participants: 64,
            rounds: 3,
            transactions_per_publish: 1,
            trusted_publishers: 4,
            zipf_s: 1.1,
            max_reconcile_interval: 3,
            workload: WorkloadConfig {
                transaction_size: 4,
                key_universe: 400,
                function_pool: 60,
                value_zipf_exponent: 1.5,
                key_zipf_exponent: 0.9,
                xref_mean: 0.0,
            },
            seed: 42,
            service_workers: 4,
            service_inbox_capacity: 64,
            service_max_open_sessions: 48,
            service_max_batch: 16,
            frame_latency_us: 500,
            store_latency_us: 200,
            fabric_shards: 4,
        }
    }

    /// Full scale: 4096 participants × 2 rounds × 26-update transactions
    /// ≈ 213k published updates, with an admission cap below the largest
    /// wave so the service sheds and re-admits load under pressure. The
    /// fabric driver spreads the same confederation over 4 shard services.
    ///
    /// The key universe is huge and uniform (`key_zipf_exponent: 0`) so
    /// that most updates are *inserts*: an insert has no antecedent, which
    /// keeps candidate extension closures small. A skewed universe at this
    /// volume makes nearly every update a modify, each 34-update
    /// transaction then carries ~30 antecedent edges, and closures grow
    /// towards the whole history — quadratic reconciliation that drowns
    /// the service-versus-threads comparison this scenario exists for.
    /// (Relevance skew is still Zipf — it lives in the trust fan-in, not
    /// the keys.)
    pub fn full() -> ScaleConfig {
        ScaleConfig {
            participants: 4096,
            rounds: 2,
            transactions_per_publish: 1,
            trusted_publishers: 8,
            zipf_s: 1.1,
            max_reconcile_interval: 3,
            workload: WorkloadConfig {
                transaction_size: 26,
                key_universe: 4_000_000,
                function_pool: 500,
                value_zipf_exponent: 1.5,
                key_zipf_exponent: 0.0,
                xref_mean: 0.0,
            },
            seed: 42,
            service_workers: 8,
            service_inbox_capacity: 128,
            service_max_open_sessions: 512,
            service_max_batch: 16,
            frame_latency_us: 500,
            store_latency_us: 1_000,
            fabric_shards: 4,
        }
    }

    /// The [`ServiceConfig`] these knobs describe.
    pub fn service_config(&self) -> ServiceConfig {
        ServiceConfig {
            workers: self.service_workers,
            inbox_capacity: self.service_inbox_capacity,
            max_open_sessions: self.service_max_open_sessions,
            max_batch: self.service_max_batch,
            frame_latency_us: self.frame_latency_us,
            store_latency_us: self.store_latency_us,
            ..ServiceConfig::default()
        }
    }

    /// The [`FabricConfig`] these knobs describe: [`ScaleConfig::fabric_shards`]
    /// shard services, each running [`ScaleConfig::service_config`].
    pub fn fabric_config(&self) -> FabricConfig {
        FabricConfig { shards: self.fabric_shards, service: self.service_config() }
    }
}

/// The [`Driver`] of a `churn_scale` run over a caller-supplied store. The
/// fabric is its own entry point ([`run_churn_scale_fabric_observed`]): it
/// constructs the [`StoreFabric`] itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleDriver {
    /// One session after another (decision baseline).
    Sequential,
    /// One OS thread per due participant against the shared store.
    Threads,
    /// Sessions multiplexed through the framed store service.
    Service,
}

/// Aggregate results of one `churn_scale` run.
#[derive(Debug, Clone, Default)]
pub struct ScaleRunResult {
    /// Reconciliation sessions completed.
    pub sessions: u64,
    /// Publishes that assigned an epoch.
    pub publishes: u64,
    /// Transactions generated (= published; every round publishes).
    pub transactions: u64,
    /// Updates generated across all transactions.
    pub updates: u64,
    /// Wall clock of the reconciliation waves alone.
    pub reconcile_wall: Duration,
    /// Wall clock of the whole run.
    pub total_wall: Duration,
    /// Per-session virtual latency (begin to commit, including queueing),
    /// microseconds. Populated by the service driver only.
    pub latencies_us: Vec<u64>,
    /// Service request frames served (service driver only).
    pub requests: u64,
    /// `Begin` frames shed by admission control (service driver only).
    pub busy_rejections: u64,
    /// Worker wake-ups; `requests / batches` is the achieved batching
    /// factor (service driver only).
    pub batches: u64,
    /// Simulated-network messages (service driver only).
    pub net_messages: u64,
    /// Simulated-network bytes (service driver only).
    pub net_bytes: u64,
    /// Virtual time consumed by the service rounds, microseconds.
    pub virtual_elapsed_us: u64,
    /// Frames delivered to each shard's server endpoint (fabric driver
    /// only); the spread across entries is the shard-load skew.
    pub shard_frames: Vec<u64>,
    /// `Begin` frames shed by each shard's admission control (fabric driver
    /// only): a shard sheds only sessions of the participants homed there.
    pub shard_busy: Vec<u64>,
    /// Snapshot of the run's metrics registry: service, network, WAL and
    /// participant counters plus per-shard batch-size histograms.
    pub metrics: MetricsSnapshot,
    /// Order-invariant hash of every participant's accepted and rejected
    /// sets; equal fingerprints ⇒ identical decisions.
    pub decision_fingerprint: u64,
    /// Final state ratio over the `Function` relation.
    pub state_ratio: f64,
}

/// Builds the Zipf-skewed fan-in trust policies: participant popularity
/// follows a Zipf distribution (participant 1 the most popular), and each
/// participant trusts `trusted_publishers` *distinct* publishers, at
/// priority 1, sampled from it.
pub fn zipf_fanin_policies(
    participants: usize,
    trusted_publishers: usize,
    zipf_s: f64,
    seed: u64,
) -> Vec<TrustPolicy> {
    assert!(participants >= 2, "a confederation needs at least 2 participants");
    let sampler = ZipfSampler::new(participants, zipf_s);
    let mut rng = StdRng::seed_from_u64(seed);
    let want = trusted_publishers.min(participants - 1);
    (1..=participants as u32)
        .map(|me| {
            let mut policy = TrustPolicy::new(ParticipantId(me));
            let mut chosen: FxHashSet<u32> = FxHashSet::default();
            // Rejection-sample distinct publishers; under heavy skew the
            // popular ranks repeat, so cap the attempts and top up from the
            // head of the popularity order (never from `me` itself).
            let mut attempts = 0usize;
            while chosen.len() < want && attempts < 64 * want.max(1) {
                attempts += 1;
                let publisher = sampler.sample(&mut rng) as u32 + 1;
                if publisher != me && chosen.insert(publisher) {
                    policy = policy.trusting(ParticipantId(publisher), 1u32);
                }
            }
            let mut rank = 1u32;
            while chosen.len() < want {
                if rank != me && chosen.insert(rank) {
                    policy = policy.trusting(ParticipantId(rank), 1u32);
                }
                rank += 1;
            }
            policy
        })
        .collect()
}

/// Order-invariant fingerprint of every participant's decision record.
pub fn decision_fingerprint<S: UpdateStore>(store: &S, ids: &[ParticipantId]) -> u64 {
    let mut combined = 0u64;
    for &id in ids {
        let mut hasher = FxHasher::default();
        id.as_u32().hash(&mut hasher);
        for decisions in [store.accepted_set(id), store.rejected_set(id)] {
            let mut sorted: Vec<TransactionId> = decisions.iter().copied().collect();
            sorted.sort();
            sorted.hash(&mut hasher);
        }
        combined = combined.wrapping_add(hasher.finish());
    }
    combined
}

/// Runs the `churn_scale` scenario: every round, every participant executes
/// and publishes a workload batch, then the round's due participants (same
/// stagger as the churn scenarios) reconcile as one wave under the chosen
/// [`ScaleDriver`]; a final catch-up wave converges everybody.
pub fn run_churn_scale<S: UpdateStore + Sync>(
    store: S,
    config: &ScaleConfig,
    driver: ScaleDriver,
) -> ScaleRunResult {
    run_churn_scale_observed(store, config, driver, &Obs::disabled())
}

/// [`run_churn_scale`] reporting into a caller-supplied observability sink:
/// the whole stack (service, network, WAL, participants) shares the sink's
/// registry, and — when its tracer is enabled — the service rounds record a
/// trace stamped in deterministic virtual time. The disabled-sink delegate
/// above measures identically (counters are always live).
pub fn run_churn_scale_observed<S: UpdateStore + Sync>(
    store: S,
    config: &ScaleConfig,
    driver: ScaleDriver,
    obs: &Obs,
) -> ScaleRunResult {
    let driver = match driver {
        ScaleDriver::Sequential => Driver::sequential(),
        ScaleDriver::Threads => Driver::threads(),
        ScaleDriver::Service => Driver::service(config.service_config()),
    };
    run_schedule(store, config, obs, &driver)
}

/// Runs the `churn_scale` schedule — the decisions, therefore, of
/// [`run_churn_scale`] — under [`Driver::fabric`] over a fresh
/// [`StoreFabric`] of [`ScaleConfig::fabric_shards`] shards;
/// [`ScaleRunResult::shard_frames`] additionally records the per-shard frame
/// load. The per-shard services label their metrics
/// (`service.requests{shard=N}`) and stamp their trace events with the
/// shard, so a trace captured by `obs` shows each shard's sessions,
/// publishes and admission sheds directly.
pub fn run_churn_scale_fabric_observed(config: &ScaleConfig, obs: &Obs) -> ScaleRunResult {
    let fabric = StoreFabric::new(bioinformatics_schema(), config.fabric_shards);
    run_schedule(fabric, config, obs, &Driver::fabric(config.fabric_config()))
}

/// The waved churn schedule over a Zipf fan-in confederation, under any
/// driver: the fold of its outcomes into a [`ScaleRunResult`].
fn run_schedule<S: UpdateStore>(
    store: S,
    config: &ScaleConfig,
    obs: &Obs,
    driver: &Driver<S>,
) -> ScaleRunResult {
    let policies = zipf_fanin_policies(
        config.participants,
        config.trusted_publishers,
        config.zipf_s,
        config.seed.wrapping_add(0x9e37_79b9),
    );
    let mut conf = Confederation::new(store, policies);
    conf.system.set_observability(obs);
    conf.seed_generators(&config.workload, config.seed, 6151);
    let ids = conf.system.participant_ids();
    let steps = wave_schedule(
        config.rounds,
        config.transactions_per_publish,
        config.max_reconcile_interval,
        0,
        &ids,
    );

    let mut result = ScaleRunResult::default();
    let run_start = Instant::now();
    conf.run(&steps, driver, |outcome| {
        result.transactions += outcome.transactions;
        result.updates += outcome.updates;
        if !outcome.reconciled.is_empty() {
            result.reconcile_wall += outcome.wall;
        }
        result.latencies_us.extend(outcome.latencies_us);
        for stats in &outcome.shard_stats {
            result.requests += stats.requests;
            result.busy_rejections += stats.busy_rejections;
            result.batches += stats.batches;
        }
        result.net_messages += outcome.net_messages;
        result.net_bytes += outcome.net_bytes;
        result.virtual_elapsed_us += outcome.virtual_elapsed_us;
        // Only the fabric reports per-shard load: the spread is its skew.
        let shards = result.shard_frames.len().max(outcome.shard_frames.len());
        result.shard_frames.resize(shards, 0);
        result.shard_busy.resize(shards, 0);
        for (shard, frames) in outcome.shard_frames.iter().enumerate() {
            result.shard_frames[shard] += frames;
            result.shard_busy[shard] += outcome.shard_stats[shard].busy_rejections;
        }
    })
    .expect("churn_scale step succeeds");

    result.sessions = conf.totals.reconciliations as u64;
    result.publishes = conf.totals.publishes as u64;
    result.total_wall = run_start.elapsed();
    result.state_ratio = conf.system.state_ratio_for("Function");
    result.decision_fingerprint = decision_fingerprint(conf.system.store(), &ids);
    result.metrics = obs.metrics.snapshot();
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use orchestra_store::CentralStore;

    fn quick() -> ScaleConfig {
        ScaleConfig::quick()
    }

    #[test]
    fn zipf_fanin_policies_are_distinct_skewed_and_never_self_trusting() {
        use orchestra_model::{Tuple, Update};
        let n = 64;
        let schema = bioinformatics_schema();
        let policies = zipf_fanin_policies(n, 4, 1.1, 7);
        assert_eq!(policies.len(), n);
        let update_from = |p: ParticipantId| {
            Update::insert("Function", Tuple::of_text(&["rat", "prot", "immune"]), p)
        };
        let mut trust_counts = vec![0usize; n + 1];
        for (idx, policy) in policies.iter().enumerate() {
            let me = ParticipantId(idx as u32 + 1);
            assert_eq!(policy.owner(), me);
            let trusted: Vec<ParticipantId> = (1..=n as u32)
                .map(ParticipantId)
                .filter(|&p| {
                    p != me && policy.priority_of_update(&update_from(p), &schema).is_trusted()
                })
                .collect();
            assert_eq!(trusted.len(), 4, "participant {me:?} trusts exactly 4 publishers");
            for p in trusted {
                trust_counts[p.as_u32() as usize] += 1;
            }
        }
        // Zipf skew: the head of the popularity order is trusted far more
        // often than the tail.
        let head: usize = trust_counts[1..=4].iter().sum();
        let tail: usize = trust_counts[n - 3..=n].iter().sum();
        assert!(head > 4 * tail.max(1), "expected skew, head={head} tail={tail}");
    }

    #[test]
    fn all_three_drivers_reach_identical_decisions_at_reduced_scale() {
        let config = quick();
        let sequential = run_churn_scale(
            CentralStore::new(bioinformatics_schema()),
            &config,
            ScaleDriver::Sequential,
        );
        let threads = run_churn_scale(
            CentralStore::new(bioinformatics_schema()),
            &config,
            ScaleDriver::Threads,
        );
        let service = run_churn_scale(
            CentralStore::new(bioinformatics_schema()),
            &config,
            ScaleDriver::Service,
        );

        assert!(sequential.transactions > 0 && sequential.updates > 0);
        assert_eq!(sequential.transactions, threads.transactions);
        assert_eq!(sequential.transactions, service.transactions);
        assert_eq!(sequential.publishes, threads.publishes);
        assert_eq!(sequential.publishes, service.publishes);
        assert_eq!(sequential.sessions, threads.sessions);
        assert_eq!(sequential.sessions, service.sessions);
        assert_eq!(sequential.decision_fingerprint, threads.decision_fingerprint);
        assert_eq!(sequential.decision_fingerprint, service.decision_fingerprint);
        assert_eq!(sequential.state_ratio, threads.state_ratio);
        assert_eq!(sequential.state_ratio, service.state_ratio);

        // Only the service driver reports frame traffic and latencies.
        assert_eq!(sequential.requests, 0);
        assert!(service.requests > 0);
        assert_eq!(service.latencies_us.len() as u64, service.sessions);
        assert!(service.latencies_us.iter().all(|&us| us > 0));
        assert!(service.virtual_elapsed_us > 0);
        assert!(service.net_messages >= service.requests);
    }

    #[test]
    fn fabric_driver_matches_sequential_decisions_at_reduced_scale() {
        let mut config = quick();
        config.participants = 24;
        config.rounds = 2;
        let sequential = run_churn_scale(
            CentralStore::new(bioinformatics_schema()),
            &config,
            ScaleDriver::Sequential,
        );
        let fabric = run_churn_scale_fabric_observed(&config, &Obs::disabled());

        assert_eq!(fabric.transactions, sequential.transactions);
        assert_eq!(fabric.publishes, sequential.publishes);
        assert_eq!(fabric.sessions, sequential.sessions);
        assert_eq!(fabric.decision_fingerprint, sequential.decision_fingerprint);
        assert_eq!(fabric.state_ratio, sequential.state_ratio);

        // Only the fabric driver reports per-shard frame load, and every
        // shard of the confederation serves traffic.
        assert_eq!(sequential.shard_frames.len(), 0);
        assert_eq!(fabric.shard_frames.len(), config.fabric_shards);
        assert!(fabric.shard_frames.iter().all(|&frames| frames > 0));
        assert!(fabric.requests > 0);
        assert_eq!(fabric.latencies_us.len() as u64, fabric.sessions);

        // A store fabric also satisfies the plain in-process driver
        // contract: driving it sequentially reaches the same decisions.
        let in_process = run_churn_scale(
            StoreFabric::new(bioinformatics_schema(), config.fabric_shards),
            &config,
            ScaleDriver::Sequential,
        );
        assert_eq!(in_process.sessions, sequential.sessions);
        assert_eq!(in_process.decision_fingerprint, sequential.decision_fingerprint);
        assert_eq!(in_process.state_ratio, sequential.state_ratio);
    }

    #[test]
    fn service_driver_metrics_snapshot_matches_the_counters() {
        let mut config = quick();
        config.participants = 16;
        config.rounds = 2;
        let service = run_churn_scale(
            CentralStore::new(bioinformatics_schema()),
            &config,
            ScaleDriver::Service,
        );
        // The registry snapshot carries the same totals the per-round
        // absorption accumulated, plus the batch-size histogram.
        assert_eq!(service.metrics.counters["service.requests"], service.requests);
        assert_eq!(service.metrics.counters["service.batches"], service.batches);
        assert_eq!(service.metrics.counters["net.messages"], service.net_messages);
        assert_eq!(service.metrics.histograms["service.batch_frames"].count, service.batches);
        assert!(service.metrics.counters["participant.store_us"] > 0);
    }

    #[test]
    fn fabric_admission_sheds_at_each_participants_home_shard() {
        // A tight admission cap forces sheds. A fabric session is admitted
        // once, at its participant's home shard, so no shard is a gate for
        // the others: with six participants homed at each of the four
        // shards and two slots per shard, every shard turns some away.
        let mut config = quick();
        config.participants = 24;
        config.rounds = 2;
        config.service_max_open_sessions = 2;
        let obs = Obs::enabled();
        let fabric = run_churn_scale_fabric_observed(&config, &obs);

        assert_eq!(fabric.shard_busy.len(), config.fabric_shards);
        assert!(
            fabric.shard_busy.iter().all(|&busy| busy > 0),
            "the cap of 2 must shed at every shard: {:?}",
            fabric.shard_busy
        );
        assert_eq!(fabric.shard_busy.iter().sum::<u64>(), fabric.busy_rejections);
        // The labelled registry keys agree with the per-shard view, and the
        // captured trace shows the sheds carrying their shard label.
        for (shard, &busy) in fabric.shard_busy.iter().enumerate() {
            let key = format!("service.busy_rejections{{shard={shard}}}");
            assert_eq!(obs.metrics.counter(&key).get(), busy, "registry and report must agree");
        }
        let trace = obs.tracer.export();
        assert!(trace.contains("admission.shed"), "sheds must be traced");
        assert!(trace.contains("fabric.publish"), "publish fan-out must be traced");
    }

    #[test]
    fn tight_admission_cap_sheds_load_but_still_converges() {
        let mut config = quick();
        config.participants = 24;
        config.rounds = 2;
        config.service_max_open_sessions = 2;
        let service = run_churn_scale(
            CentralStore::new(bioinformatics_schema()),
            &config,
            ScaleDriver::Service,
        );
        let sequential = run_churn_scale(
            CentralStore::new(bioinformatics_schema()),
            &config,
            ScaleDriver::Sequential,
        );
        assert!(service.busy_rejections > 0, "cap of 2 must shed some Begins");
        assert_eq!(service.sessions, sequential.sessions, "every session still completes");
        assert_eq!(service.decision_fingerprint, sequential.decision_fingerprint);
    }
}
