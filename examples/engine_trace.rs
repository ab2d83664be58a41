//! Captures a wall-clock trace of the reconciliation engine for `trace_dump`.
//!
//! Runs the benchmark's `deep_conflict` shape (10 mutually trusting
//! participants, 50 rounds of 2 single-update transactions over 800 skewed
//! keys, resolving every 4 rounds) with tracing enabled, and prints the trace
//! (the `orchestra-obs-trace v1` text format) to stdout. Every
//! reconciliation is a `reconcile` span, and so is each resolution's rerun;
//! the engine's Figure 5 phases are its children (`check_state`,
//! `find_conflicts`, `do_group`, `apply`, `update_soft_state`), and
//! `direct_conflicts` splits into `pair_pass` and `shared_member_pairs`.
//! `trace_dump`'s default view ends with the self-time budget per span name:
//! the engine split, in one command.
//!
//! ```text
//! cargo run --release --example engine_trace > engine.trace
//! cargo run --release --bin trace_dump -- engine.trace | tail -n 16
//! ```

use orchestra_model::schema::bioinformatics_schema;
use orchestra_obs::Obs;
use orchestra_store::CentralStore;
use orchestra_workload::{run_churn_scenario_observed, ChurnConfig, WorkloadConfig};

fn main() {
    let config = ChurnConfig {
        participants: 10,
        rounds: 50,
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
        seed: 42,
    };
    let obs = Obs::enabled();
    run_churn_scenario_observed(CentralStore::new(bioinformatics_schema()), &config, &obs);
    print!("{}", obs.tracer.export());
}
