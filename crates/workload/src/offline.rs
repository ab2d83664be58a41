//! The offline-churn scenario: the interleaved publish/reconcile/resolve
//! schedule with rolling network partitions over a causal-mode store.
//!
//! Two questions are answered here, matching the two halves of the causal
//! epoch refactor:
//!
//! * **Mode invariance** — the *same* unpartitioned schedule is run once over
//!   a scalar-epoch store and once over a causal-DAG store. Client-side stamp
//!   allocation must not change a single decision: the [`ChurnTotals`] of the
//!   two runs must be identical (`decisions_match`).
//! * **Partition tolerance** — a causal-mode run where a rotating subset of
//!   participants goes offline for a window of rounds. Offline participants
//!   keep executing and publishing (their batches buffer client-side with
//!   pre-allocated causal stamps) but cannot reconcile; at the end of each
//!   window they heal, replaying the buffered publications in per-publisher
//!   FIFO order. After the final heal and a catch-up phase the confederation
//!   must fully converge: nobody offline, no buffered batches, and the
//!   store's convergence horizon caught up to the largest stable epoch
//!   (`converged_after_heal`).
//!
//! An exact totals match between the partitioned and unpartitioned runs is
//! *not* expected — the workload generators read each participant's evolving
//! instance, so diverging timelines diverge the workload itself. Convergence
//! of the confederation is the meaningful property, and it is checked against
//! the store's own retention machinery rather than a scenario-side shadow.

use crate::scenario::{churn_confederation, ChurnConfig};
use crate::schedule::{churn_turns, converge, ChurnTotals, Driver, Step};
use orchestra_model::ParticipantId;
use orchestra_store::{CentralStore, UpdateStore};
use std::time::{Duration, Instant};

/// Which epoch allocator the store runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpochMode {
    /// The classic store-side scalar counter.
    Scalar,
    /// Client-side causal stamps reconciled through the store's causal
    /// registry.
    Causal,
}

/// Configuration of one offline-churn run.
#[derive(Debug, Clone)]
pub struct OfflineChurnConfig {
    /// The underlying churn schedule (participants, rounds, workload, seed).
    pub churn: ChurnConfig,
    /// Start a partition window every this many rounds (0 = never partition).
    /// Must be larger than `partition_rounds` so windows cannot overlap.
    pub partition_every: usize,
    /// How many rounds each partition window lasts.
    pub partition_rounds: usize,
    /// How many participants go offline per window. The victims rotate, so
    /// over the run every participant spends time on the wrong side of the
    /// partition.
    pub partition_size: usize,
}

impl OfflineChurnConfig {
    /// A partition cadence proportional to the schedule: a window roughly
    /// every eighth of the run, each lasting a third of the gap, taking a
    /// quarter of the confederation offline.
    pub fn for_churn(churn: ChurnConfig) -> Self {
        let every = (churn.rounds / 8).max(4);
        OfflineChurnConfig {
            partition_every: every,
            partition_rounds: (every / 3).max(1),
            partition_size: (churn.participants / 4).max(1),
            churn,
        }
    }

    /// The same schedule with partitions disabled — the mode-invariance
    /// baseline.
    pub fn unpartitioned(&self) -> Self {
        OfflineChurnConfig { partition_every: 0, ..self.clone() }
    }
}

/// The outcome of one offline-churn run.
#[derive(Debug, Clone)]
pub struct OfflineChurnResult {
    /// Decision totals of the run (online publishes only).
    pub totals: ChurnTotals,
    /// Partition windows opened.
    pub partitions: usize,
    /// Batches published while offline and delivered at heal time.
    pub healed_batches: usize,
    /// Largest stable epoch at the end of the run.
    pub final_epoch: u64,
    /// The store's convergence horizon after the catch-up phase.
    pub convergence_horizon: u64,
    /// Whether the confederation fully converged after the last heal: nobody
    /// offline, no buffered publications, and the convergence horizon caught
    /// up to the largest stable epoch.
    pub converged_after_heal: bool,
    /// The store's causal frontier rendering (empty string in scalar mode).
    pub final_frontier: String,
    /// Wall-clock time of the whole run.
    pub wall: Duration,
}

/// The offline-churn schedule: the interleaved churn rounds with a
/// [`Step::Partition`] of the window's victims (rotating through `ids`) in
/// front of the round that opens a window and a [`Step::Heal`] in front of
/// the round that closes it, then the catch-up. A window opens only if it
/// also closes within the schedule. A partitioned participant's turn is the
/// same steps as anyone's; the interpreter skips its store conversations.
fn offline_schedule(config: &OfflineChurnConfig, ids: &[ParticipantId]) -> Vec<Step> {
    let (churn, every, len) = (&config.churn, config.partition_every, config.partition_rounds);
    let opens =
        |round: usize| every > 0 && round > 0 && round % every == 0 && round + len < churn.rounds;
    let span = config.partition_size.min(ids.len().saturating_sub(1)).max(1);
    let mut steps = Vec::new();
    for (round, turns) in churn_turns(churn, ids).chunks(ids.len()).enumerate() {
        if round >= len && opens(round - len) {
            steps.push(Step::Heal);
        }
        if opens(round) {
            let first = (round / every - 1) * span;
            steps
                .push(Step::Partition((first..first + span).map(|j| ids[j % ids.len()]).collect()));
        }
        steps.extend(turns.concat());
    }
    steps.extend(converge(ids));
    steps
}

/// Runs the offline-churn schedule over the given store in the given mode.
///
/// With `partition_every == 0` this is exactly the plain churn schedule (plus
/// the catch-up phase), usable as the mode-invariance baseline.
pub fn run_offline_scenario(
    store: CentralStore,
    mode: EpochMode,
    config: &OfflineChurnConfig,
) -> OfflineChurnResult {
    assert!(
        config.partition_every == 0
            || (1..config.partition_every).contains(&config.partition_rounds),
        "a partition window lasts at least a round and heals before the next one opens"
    );
    assert!(config.churn.participants >= 1, "a round is one turn per participant");
    if mode == EpochMode::Causal {
        store.enable_causal_mode().expect("fresh store accepts causal mode");
    }
    // Fix the membership up front so the convergence horizon is meaningful at
    // the end of the run.
    store.catalog().close_membership().expect("membership closes");

    let start = Instant::now();
    let mut conf = churn_confederation(store, &config.churn);
    let ids = conf.system.participant_ids();
    let steps = offline_schedule(config, &ids);
    let mut healed_batches = 0usize;
    conf.run(&steps, &Driver::sequential(), |outcome| healed_batches += outcome.healed_batches)
        .expect("churn step succeeds");

    let system = &conf.system;
    let buffered: usize = ids
        .iter()
        .filter_map(|&id| system.participant(id))
        .map(|p| p.buffered_publications().len())
        .sum();
    let catalog = system.store().catalog();
    let final_epoch = catalog.largest_stable_epoch().as_u64();
    let convergence_horizon = catalog.convergence_horizon().as_u64();
    let converged_after_heal = system.offline_ids().is_empty()
        && buffered == 0
        && final_epoch > 0
        && convergence_horizon == final_epoch;
    let final_frontier = match mode {
        EpochMode::Scalar => String::new(),
        EpochMode::Causal => system.store().causal_frontier().to_string(),
    };

    OfflineChurnResult {
        totals: conf.closing_totals(),
        partitions: steps.iter().filter(|step| matches!(step, Step::Partition(_))).count(),
        healed_batches,
        final_epoch,
        convergence_horizon,
        converged_after_heal,
        final_frontier,
        wall: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::WorkloadConfig;
    use orchestra_model::schema::bioinformatics_schema;

    fn mini_churn() -> ChurnConfig {
        ChurnConfig {
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
        }
    }

    #[test]
    fn scalar_and_causal_modes_reach_identical_decisions() {
        let config = OfflineChurnConfig::for_churn(mini_churn()).unpartitioned();
        let scalar = run_offline_scenario(
            CentralStore::new(bioinformatics_schema()),
            EpochMode::Scalar,
            &config,
        );
        let causal = run_offline_scenario(
            CentralStore::new(bioinformatics_schema()),
            EpochMode::Causal,
            &config,
        );
        assert_eq!(scalar.totals, causal.totals);
        assert_eq!(scalar.partitions, 0);
        assert!(causal.final_frontier.contains("p1:"));
        assert!(scalar.converged_after_heal, "unpartitioned runs converge too");
        assert!(causal.converged_after_heal);
    }

    #[test]
    fn partitioned_causal_run_heals_and_converges() {
        let config = OfflineChurnConfig::for_churn(mini_churn());
        let result = run_offline_scenario(
            CentralStore::new(bioinformatics_schema()),
            EpochMode::Causal,
            &config,
        );
        assert!(result.partitions > 0, "schedule long enough to partition");
        assert!(result.healed_batches > 0, "offline publishes were delivered");
        assert!(
            result.converged_after_heal,
            "confederation converges after heal: horizon {} vs stable {}",
            result.convergence_horizon, result.final_epoch
        );
        assert!(result.totals.state_ratio > 0.99);
    }
}
