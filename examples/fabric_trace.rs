//! Captures a fabric trace for `trace_dump`.
//!
//! Runs the quick-scale churn schedule through the four-shard store fabric
//! with tracing enabled and prints the trace (the `orchestra-obs-trace v1`
//! text format) to stdout. The tracer is bound to the run's virtual clock,
//! so two captures are byte-identical, and tracing changes no decision
//! (`tests/observability.rs` asserts both).
//!
//! ```text
//! cargo run --release --example fabric_trace > fabric.trace
//! cargo run --release --bin trace_dump -- --timeline fabric.trace
//! ```

use orchestra_obs::Obs;
use orchestra_workload::{run_churn_scale_fabric_observed, ScaleConfig};

fn main() {
    let obs = Obs::enabled();
    run_churn_scale_fabric_observed(&ScaleConfig::quick(), &obs);
    print!("{}", obs.tracer.export());
}
