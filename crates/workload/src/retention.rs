//! The long-horizon retention scenario: the churn schedule with a
//! [`Step::Prune`] every few rounds, sampling the store's **live set** as
//! history grows.
//!
//! The live set is what a bounded-memory store actually has to hold: live
//! transaction-log entries plus live relevance-index entries. Under
//! [`RetentionPolicy::KeepAll`] both grow linearly with history; under
//! [`RetentionPolicy::ConvergedOnly`] the converged prefix is pruned down to
//! the pinned-ancestor set, so the live set tracks the size of the *data*
//! (live value lineage + undecided suffix), not the length of the history.
//! Decisions must be identical between the two policies — pruning is
//! decision-invariant by construction, and this module's tests check both
//! that and the boundedness of the `ConvergedOnly` live set.

use crate::scenario::{churn_confederation, ChurnConfig};
use crate::schedule::{churn_turns, converge, ChurnTotals, Driver, Outcome, Step};
use orchestra::CdssSystem;
use orchestra_store::{CentralStore, RetentionPolicy};

/// Configuration of one retention run.
#[derive(Debug, Clone)]
pub struct RetentionChurnConfig {
    /// The underlying churn schedule (participants, rounds, workload, seed).
    pub churn: ChurnConfig,
    /// The retention policy the store runs under.
    pub retention: RetentionPolicy,
    /// Prune after every this many rounds (0 = never; the final catch-up
    /// prune still runs, and under `KeepAll` every prune is a no-op).
    pub prune_every_rounds: usize,
}

impl RetentionChurnConfig {
    /// A run over the given schedule and policy, pruning roughly a dozen
    /// times over the history.
    pub fn for_churn(churn: ChurnConfig, retention: RetentionPolicy) -> Self {
        RetentionChurnConfig { prune_every_rounds: (churn.rounds / 12).max(1), retention, churn }
    }
}

/// One per-round sample of the store's memory footprint.
#[derive(Debug, Clone, Copy)]
pub struct RetentionSample {
    /// The round just finished.
    pub round: usize,
    /// Transactions ever published (the history-length axis).
    pub total_published: u64,
    /// Live transaction-log entries.
    pub live_log_entries: usize,
    /// Live relevance-index entries, summed over shards: one per
    /// (participant, transaction it trusts) pair — the index stores no
    /// untrusted entries.
    pub live_relevance_entries: usize,
    /// The epoch pruned through so far.
    pub pruned_through: u64,
}

impl RetentionSample {
    /// Log plus relevance entries — the store's live set.
    fn live_set(&self) -> usize {
        self.live_log_entries + self.live_relevance_entries
    }
}

/// Aggregate results of one retention run.
#[derive(Debug, Clone, Default)]
pub struct RetentionChurnResult {
    /// Decision totals (must be identical across retention policies).
    pub totals: ChurnTotals,
    /// Effective (non-no-op) prune passes.
    pub prunes: usize,
    /// Log entries removed across all passes.
    pub pruned_log_entries: u64,
    /// Relevance entries removed across all passes.
    pub pruned_relevance_entries: u64,
    /// Sub-horizon entries retained as pinned ancestors by the last
    /// effective pass.
    pub last_pinned: u64,
    /// Largest live set observed at any sample.
    pub peak_live_set: usize,
    /// Transactions ever published by the end of the run.
    pub total_published: u64,
    /// Per-round samples, in order, plus one final post-catch-up sample.
    pub samples: Vec<RetentionSample>,
}

impl RetentionChurnResult {
    /// The live set at the sample closest to the given fraction of the run
    /// (0.5 = mid-history). A bounded live set stops growing between
    /// mid-history and the end.
    pub fn live_set_at(&self, fraction: f64) -> usize {
        if self.samples.is_empty() {
            return 0;
        }
        let idx = ((self.samples.len() - 1) as f64 * fraction.clamp(0.0, 1.0)).round() as usize;
        self.samples[idx].live_set()
    }

    /// The final live set (after catch-up reconciliation, resolution and the
    /// last prune).
    pub fn final_live_set(&self) -> usize {
        self.samples.last().map(|s| s.live_set()).unwrap_or(0)
    }
}

fn sample(system: &CdssSystem<CentralStore>, round: usize) -> RetentionSample {
    let catalog = system.store().catalog();
    RetentionSample {
        round,
        total_published: catalog.log_total_published(),
        live_log_entries: catalog.log_len(),
        live_relevance_entries: catalog.relevance_len(),
        pruned_through: catalog.pruned_through().as_u64(),
    }
}

fn record(result: &mut RetentionChurnResult, sample: RetentionSample) {
    result.peak_live_set = result.peak_live_set.max(sample.live_set());
    result.samples.push(sample);
}

/// Adds an effective prune's report to the result. Nothing is pruned
/// client-side: a participant's flattenings live on its deferred candidates,
/// so its memory already tracks the deferred set.
fn fold(result: &mut RetentionChurnResult, outcome: Outcome) {
    if let Some(report) = outcome.pruned.filter(|report| !report.is_noop()) {
        result.prunes += 1;
        result.pruned_log_entries += report.pruned_log_entries;
        result.pruned_relevance_entries += report.pruned_relevance_entries;
        result.last_pinned = report.pinned;
    }
}

/// Runs the retention scenario: the interleaved churn schedule with periodic
/// pruning, then a catch-up phase (reconcile all → resolve all → reconcile
/// all → final prune) so the last sample shows the fully converged live set.
pub fn run_retention_scenario(
    store: CentralStore,
    config: &RetentionChurnConfig,
) -> RetentionChurnResult {
    store.set_retention(config.retention);
    let churn = &config.churn;
    assert!(churn.participants >= 1, "a round is one turn per participant");
    let mut conf = churn_confederation(store, churn);
    // Every participant of the run is registered up front: declare the
    // membership closed, otherwise the horizon is pinned at zero forever.
    conf.system.store().catalog().close_membership().expect("close membership");
    let ids = conf.system.participant_ids();
    let driver = Driver::sequential();

    // One batch of steps per sample: each round, with a prune after every
    // `prune_every_rounds`-th, then the catch-up with its prune.
    let every = config.prune_every_rounds;
    let turns = churn_turns(churn, &ids);
    let rounds = turns.chunks(ids.len()).enumerate().map(|(round, turns)| {
        let mut steps = turns.concat();
        if every > 0 && (round + 1) % every == 0 {
            steps.push(Step::Prune);
        }
        steps
    });
    let catch_up = converge(&ids).into_iter().chain([Step::Prune]).collect();

    let mut result = RetentionChurnResult::default();
    for (round, steps) in rounds.chain([catch_up]).enumerate() {
        let folded = |outcome| fold(&mut result, outcome);
        conf.run(&steps, &driver, folded).expect("churn step succeeds");
        record(&mut result, sample(&conf.system, round));
    }
    result.totals = conf.closing_totals();
    result.total_published = conf.system.store().catalog().log_total_published();
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::WorkloadConfig;
    use orchestra_model::schema::bioinformatics_schema;

    fn tiny_churn() -> ChurnConfig {
        ChurnConfig {
            participants: 4,
            rounds: 12,
            transactions_per_publish: 1,
            max_reconcile_interval: 3,
            resolve_every: 3,
            workload: WorkloadConfig {
                transaction_size: 1,
                key_universe: 12,
                function_pool: 6,
                value_zipf_exponent: 1.5,
                key_zipf_exponent: 1.2,
                xref_mean: 7.3,
            },
            seed: 11,
        }
    }

    #[test]
    fn converged_only_prunes_and_matches_keepall_decisions() {
        let keepall = run_retention_scenario(
            CentralStore::new(bioinformatics_schema()),
            &RetentionChurnConfig::for_churn(tiny_churn(), RetentionPolicy::KeepAll),
        );
        let converged = run_retention_scenario(
            CentralStore::new(bioinformatics_schema()),
            &RetentionChurnConfig::for_churn(tiny_churn(), RetentionPolicy::ConvergedOnly),
        );
        // Pruning must be invisible to the algorithm.
        assert_eq!(keepall.totals, converged.totals, "retention changed decisions");
        assert!(keepall.totals.accepted > 0, "churn must share data");
        // KeepAll never prunes; ConvergedOnly actually removed history.
        assert_eq!(keepall.prunes, 0);
        assert_eq!(keepall.final_live_set(), keepall.peak_live_set);
        assert!(converged.prunes > 0, "schedule must converge enough to prune");
        assert!(converged.pruned_log_entries > 0);
        assert!(converged.final_live_set() < keepall.final_live_set());
        // Bounded: the pruned live set stops growing between mid-history and
        // the end and finishes under half of the unpruned one, which grows.
        assert!(converged.final_live_set() <= converged.live_set_at(0.5) * 3 / 2);
        assert!(2 * converged.final_live_set() <= keepall.final_live_set());
        assert!(keepall.final_live_set() > keepall.live_set_at(0.5));
        assert_eq!(converged.total_published, keepall.total_published);
        // Samples cover every round plus the final catch-up.
        assert_eq!(converged.samples.len(), tiny_churn().rounds + 1);
        assert!(converged.samples.last().unwrap().pruned_through > 0);
    }

    #[test]
    fn keep_last_n_prunes_less_than_converged_only() {
        let window = run_retention_scenario(
            CentralStore::new(bioinformatics_schema()),
            &RetentionChurnConfig::for_churn(tiny_churn(), RetentionPolicy::KeepLastN(8)),
        );
        let converged = run_retention_scenario(
            CentralStore::new(bioinformatics_schema()),
            &RetentionChurnConfig::for_churn(tiny_churn(), RetentionPolicy::ConvergedOnly),
        );
        assert_eq!(window.totals, converged.totals);
        assert!(window.final_live_set() >= converged.final_live_set());
        assert!(
            window.samples.last().unwrap().pruned_through
                <= converged.samples.last().unwrap().pruned_through
        );
    }
}
