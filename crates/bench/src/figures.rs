//! Runners that regenerate each evaluation figure.

use orchestra_model::schema::bioinformatics_schema;
use orchestra_store::{CentralStore, DhtStore};
use orchestra_workload::{
    decision_fingerprint, run_scenario, scenario_schedule, Driver, ScenarioConfig, WorkloadConfig,
};

/// How large an experiment to run. `Quick` keeps every figure under a few
/// seconds (for CI); `Full` uses parameter ranges closer to the paper's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FigureScale {
    /// Reduced ranges for fast runs.
    Quick,
    /// The paper's ranges.
    Full,
}

impl FigureScale {
    fn rounds(self) -> usize {
        match self {
            FigureScale::Quick => 2,
            FigureScale::Full => 3,
        }
    }
}

/// Base workload shared by every figure: single-update transactions over a
/// moderately contended key universe, Zipf(1.5) values, 7.3 cross-references
/// per new key, and uniform mutual trust (priority 1) so that conflicts are
/// deferred rather than automatically resolved — exactly the paper's setup.
fn base_workload(transaction_size: usize) -> WorkloadConfig {
    WorkloadConfig {
        transaction_size,
        key_universe: 400,
        function_pool: 200,
        value_zipf_exponent: 1.5,
        key_zipf_exponent: 0.9,
        xref_mean: 7.3,
    }
}

fn base_scenario(
    participants: usize,
    txns_per_recon: usize,
    txn_size: usize,
    scale: FigureScale,
) -> ScenarioConfig {
    ScenarioConfig {
        participants,
        transactions_between_reconciliations: txns_per_recon,
        rounds: scale.rounds(),
        workload: base_workload(txn_size),
        seed: 20060627, // SIGMOD 2006's opening day; any fixed seed works.
    }
}

/// One row of Figure 3's trade-off: one reconciliation mode over the DHT
/// store.
#[derive(Debug, Clone)]
pub struct Fig03Row {
    /// `"client_centric"` or `"network_centric"`.
    pub mode: String,
    /// Messages charged to the simulated network over the run.
    pub messages: u64,
    /// Virtual time charged to the simulated network over the run, in
    /// milliseconds.
    pub network_ms: f64,
    /// Order-invariant fingerprint of every participant's decisions.
    pub decision_fingerprint: u64,
}

/// Figure 3: client-centric against network-centric reconciliation
/// (Section 5) on the DHT store, one schedule run in each mode (10 peers,
/// reconciliation interval 4, single-update transactions). The decisions
/// are the same; the network-centric mode charges more messages for less
/// work at the reconciling peer.
pub fn fig03_reconciliation_modes(scale: FigureScale) -> Vec<Fig03Row> {
    let config = base_scenario(10, 4, 1, scale);
    [("client_centric", Driver::sequential()), ("network_centric", Driver::network_centric())]
        .into_iter()
        .map(|(mode, driver)| {
            let (mut conf, steps) =
                scenario_schedule(DhtStore::new(bioinformatics_schema()), &config);
            conf.run(&steps, &driver, |_| ()).expect("the schedule runs");
            let store = conf.system.store();
            let network = store.network_stats();
            Fig03Row {
                mode: mode.into(),
                messages: network.messages,
                network_ms: network.latency_us as f64 / 1000.0,
                decision_fingerprint: decision_fingerprint(store, &conf.system.participant_ids()),
            }
        })
        .collect()
}

/// One row of Figure 8: transaction size versus state ratio, holding the
/// number of updates between reconciliations constant.
#[derive(Debug, Clone)]
pub struct Fig08Row {
    /// Updates per transaction.
    pub transaction_size: usize,
    /// Transactions per reconciliation (so that size × transactions is
    /// constant).
    pub transactions_per_reconciliation: usize,
    /// Final state ratio over the `Function` relation.
    pub state_ratio: f64,
}

/// Figure 8: the effect of transaction size on state ratio, holding the
/// number of updates between reconciliations constant (10 participants).
pub fn fig08_transaction_size(scale: FigureScale) -> Vec<Fig08Row> {
    let sizes: &[usize] = match scale {
        FigureScale::Quick => &[1, 2, 4, 10],
        FigureScale::Full => &[1, 2, 3, 4, 5, 6, 8, 10],
    };
    const UPDATES_PER_RECON: usize = 20;
    sizes
        .iter()
        .map(|&size| {
            let txns = (UPDATES_PER_RECON / size).max(1);
            let config = base_scenario(10, txns, size, scale);
            let result = run_scenario(CentralStore::new(bioinformatics_schema()), &config);
            Fig08Row {
                transaction_size: size,
                transactions_per_reconciliation: txns,
                state_ratio: result.state_ratio,
            }
        })
        .collect()
}

/// One row of Figure 9: reconciliation interval versus state ratio.
#[derive(Debug, Clone)]
pub struct Fig09Row {
    /// Transactions (of size 1) published between reconciliations.
    pub reconciliation_interval: usize,
    /// Final state ratio over the `Function` relation.
    pub state_ratio: f64,
}

/// Figure 9: the effect of the reconciliation interval on state ratio
/// (10 participants, single-update transactions).
pub fn fig09_recon_interval_ratio(scale: FigureScale) -> Vec<Fig09Row> {
    let intervals: &[usize] = match scale {
        FigureScale::Quick => &[1, 5, 20],
        FigureScale::Full => &[1, 2, 4, 8, 12, 16, 20],
    };
    intervals
        .iter()
        .map(|&ri| {
            let config = base_scenario(10, ri, 1, scale);
            let result = run_scenario(CentralStore::new(bioinformatics_schema()), &config);
            Fig09Row { reconciliation_interval: ri, state_ratio: result.state_ratio }
        })
        .collect()
}

/// One row of Figure 10: reconciliation interval versus execution time,
/// split into store time and local time, for both stores.
#[derive(Debug, Clone)]
pub struct Fig10Row {
    /// Transactions (of size 1) published between reconciliations.
    pub reconciliation_interval: usize,
    /// `"central"` or `"distributed"`.
    pub store_kind: String,
    /// Store-side seconds per participant over the run.
    pub store_time_secs: f64,
    /// Local (client algorithm) seconds per participant over the run.
    pub local_time_secs: f64,
}

/// Figure 10: total reconciliation time per participant for reconciliation
/// intervals 4, 20 and 50, with both the centralised and the DHT-based
/// store.
///
/// As in the paper, every configuration publishes the same total number of
/// transactions per participant; a smaller interval therefore means more,
/// smaller reconciliations, and the figure shows how that overhead differs
/// between the two stores.
pub fn fig10_recon_interval_time(scale: FigureScale) -> Vec<Fig10Row> {
    let intervals: &[usize] = match scale {
        FigureScale::Quick => &[4, 20],
        FigureScale::Full => &[4, 20, 50],
    };
    let total_transactions = match scale {
        FigureScale::Quick => 40,
        FigureScale::Full => 100,
    };
    let mut rows = Vec::new();
    for &ri in intervals {
        let mut config = base_scenario(10, ri, 1, scale);
        config.rounds = (total_transactions / ri).max(1);
        let central = run_scenario(CentralStore::new(bioinformatics_schema()), &config);
        rows.push(Fig10Row {
            reconciliation_interval: ri,
            store_kind: "central".into(),
            store_time_secs: central.store_time_per_participant.as_secs_f64(),
            local_time_secs: central.local_time_per_participant.as_secs_f64(),
        });
        let dht = run_scenario(DhtStore::new(bioinformatics_schema()), &config);
        rows.push(Fig10Row {
            reconciliation_interval: ri,
            store_kind: "distributed".into(),
            store_time_secs: dht.store_time_per_participant.as_secs_f64(),
            local_time_secs: dht.local_time_per_participant.as_secs_f64(),
        });
    }
    rows
}

/// One row of Figure 11: number of participants versus state ratio.
#[derive(Debug, Clone)]
pub struct Fig11Row {
    /// Number of participants.
    pub participants: usize,
    /// Final state ratio over the `Function` relation.
    pub state_ratio: f64,
}

/// Figure 11: the change in state ratio as the confederation grows
/// (reconciliation interval 4, single-update transactions).
pub fn fig11_participants_ratio(scale: FigureScale) -> Vec<Fig11Row> {
    let peer_counts: &[usize] = match scale {
        FigureScale::Quick => &[5, 10, 25],
        FigureScale::Full => &[5, 10, 20, 30, 40, 50],
    };
    peer_counts
        .iter()
        .map(|&n| {
            let config = base_scenario(n, 4, 1, scale);
            let result = run_scenario(CentralStore::new(bioinformatics_schema()), &config);
            Fig11Row { participants: n, state_ratio: result.state_ratio }
        })
        .collect()
}

/// One row of Figure 12: number of participants versus time per
/// reconciliation for each store.
#[derive(Debug, Clone)]
pub struct Fig12Row {
    /// Number of participants.
    pub participants: usize,
    /// `"central"` or `"distributed"`.
    pub store_kind: String,
    /// Store-side seconds per reconciliation.
    pub store_time_secs: f64,
    /// Local seconds per reconciliation.
    pub local_time_secs: f64,
}

/// Figure 12: average time per reconciliation with 10, 25 and 50
/// participants, for both stores.
pub fn fig12_participants_time(scale: FigureScale) -> Vec<Fig12Row> {
    let peer_counts: &[usize] = match scale {
        FigureScale::Quick => &[10, 25],
        FigureScale::Full => &[10, 25, 50],
    };
    let mut rows = Vec::new();
    for &n in peer_counts {
        let config = base_scenario(n, 4, 1, scale);
        let central = run_scenario(CentralStore::new(bioinformatics_schema()), &config);
        let recons = (n * scale.rounds()) as f64;
        rows.push(Fig12Row {
            participants: n,
            store_kind: "central".into(),
            store_time_secs: central.store_time_per_participant.as_secs_f64() * n as f64 / recons,
            local_time_secs: central.local_time_per_participant.as_secs_f64() * n as f64 / recons,
        });
        let dht = run_scenario(DhtStore::new(bioinformatics_schema()), &config);
        rows.push(Fig12Row {
            participants: n,
            store_kind: "distributed".into(),
            store_time_secs: dht.store_time_per_participant.as_secs_f64() * n as f64 / recons,
            local_time_secs: dht.local_time_per_participant.as_secs_f64() * n as f64 / recons,
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig03_network_centric_decides_alike_with_more_messages() {
        let rows = fig03_reconciliation_modes(FigureScale::Quick);
        let [client, network] = &rows[..] else { panic!("two modes, got {rows:?}") };
        assert_eq!(client.decision_fingerprint, network.decision_fingerprint);
        assert!(
            network.messages > client.messages,
            "network-centric {} <= client-centric {} messages",
            network.messages,
            client.messages
        );
    }

    #[test]
    fn fig08_rows_hold_updates_per_reconciliation_constant() {
        let rows = fig08_transaction_size(FigureScale::Quick);
        assert_eq!(rows.len(), 4);
        for row in &rows {
            assert!(row.state_ratio >= 1.0 && row.state_ratio <= 10.0);
            assert!(row.transaction_size * row.transactions_per_reconciliation >= 10);
        }
        // Larger transactions should not *reduce* divergence below the
        // single-update baseline (the paper finds they increase it).
        let single = rows.iter().find(|r| r.transaction_size == 1).unwrap();
        let large = rows.iter().find(|r| r.transaction_size == 10).unwrap();
        assert!(large.state_ratio >= single.state_ratio - 0.25);
    }

    #[test]
    fn fig10_distributed_store_time_exceeds_central() {
        let rows = fig10_recon_interval_time(FigureScale::Quick);
        for ri in [4usize, 20] {
            let central = rows
                .iter()
                .find(|r| r.reconciliation_interval == ri && r.store_kind == "central")
                .unwrap();
            let dht = rows
                .iter()
                .find(|r| r.reconciliation_interval == ri && r.store_kind == "distributed")
                .unwrap();
            assert!(
                dht.store_time_secs > central.store_time_secs,
                "RI {ri}: dht {} <= central {}",
                dht.store_time_secs,
                central.store_time_secs
            );
        }
    }

    #[test]
    fn fig11_state_ratio_grows_sublinearly() {
        let rows = fig11_participants_ratio(FigureScale::Quick);
        assert_eq!(rows.len(), 3);
        let small = &rows[0];
        let large = &rows[rows.len() - 1];
        assert!(large.state_ratio >= small.state_ratio - 0.25);
        // Decidedly sublinear: far below the number of peers.
        assert!(large.state_ratio < large.participants as f64 / 2.0);
    }
}
