//! One run: iterations of one workload in this process until `--seconds` of
//! measured time (set-up plus timed region) have accumulated, then the run's
//! metrics.
//!
//! A run reports **medians over its iterations** (and percentiles over the
//! calls pooled from them), so a stall of the shared host lands on one
//! iteration and not on the run. Iteration `i` draws its inputs from a seed
//! derived from `--seed` and `i`, so a run also averages over inputs, and the
//! same `--seed` gives the same inputs. Once the metrics are taken, the first
//! iteration is cross-checked against an independent route to the same
//! decisions ([`crate::verify::cross_check`]).
//!
//! Every iteration is bracketed by the host-speed calibration kernel and its
//! wall-clock durations are reported in reference-speed seconds (see
//! [`crate::calibration`]); the `--seconds` budget counts raw wall clock.
//!
//! With `--trace 1` the run alternates untraced and traced iterations over
//! the same inputs: the traced ones (behind `TimedStore`, spans recorded) give
//! the per-layer budget, the untraced ones give the partial end-to-end
//! metrics and the baseline of `trace.overhead_ratio`. End-to-end metrics
//! never come from a traced iteration.

use crate::calibration::calibrate;
use crate::metrics::{
    budget_shares, end_to_end, peak_rss_mb, per_layer, Metric, END_TO_END, EXACT_ITERATIONS,
};
use crate::probes::{runtime_probes, storage_probes, Probes};
use crate::trace::{self, Recording};
use crate::verify::cross_check;
use crate::workloads::{run_plain, run_traced, Iteration, Size, Workload};
use std::path::Path;
use std::time::Duration;

/// What a run produced.
#[derive(Debug)]
pub struct RunOutput {
    /// The metrics the benchmark driver asked for: every end-to-end metric
    /// (untraced run) or every per-layer metric (traced run).
    pub driver_metrics: Vec<Metric>,
    /// Everything the run measured, for `run` and for people.
    pub all_metrics: Vec<Metric>,
    /// Operations and checks attempted across all iterations.
    pub attempted: u64,
    /// Operations and checks that failed.
    pub failed: u64,
    /// Iterations run.
    pub iterations: usize,
    /// The first traced iteration's spans, if the run traced.
    pub recording: Option<Recording>,
}

/// The inputs of iteration `index` of a run seeded with `seed`.
pub fn iteration_seed(seed: u64, index: u64) -> u64 {
    seed.wrapping_add(index.wrapping_mul(1_000_003))
}

/// Runs `workload` for `seconds` of measured time.
pub fn measure(
    workload: Workload,
    size: Size,
    seed: u64,
    seconds: f64,
    traced: bool,
    scratch: &Path,
) -> RunOutput {
    let budget = Duration::from_secs_f64(seconds.max(0.0));
    let mut untraced: Vec<Iteration> = Vec::new();
    let mut traced_runs: Vec<(Iteration, Recording)> = Vec::new();
    let mut probes = Probes::default();
    let mut measured = Duration::ZERO;

    if traced {
        runtime_probes(&mut probes);
    }
    let mut index = 0u64;
    while measured < budget || untraced.len() < EXACT_ITERATIONS {
        let inputs = iteration_seed(seed, index);
        let dir = scratch.join(format!("iteration-{index}"));
        std::fs::create_dir_all(&dir).expect("scratch directory");

        let before = calibrate();
        let mut it = run_plain(workload, size, inputs, &dir);
        let after = calibrate();
        measured += it.setup + it.timed_wall;
        it.rescale(before, after);
        let reference = (it.fingerprint, it.instance_tuples);
        untraced.push(it);
        std::fs::remove_dir_all(&dir).ok();

        if traced {
            std::fs::create_dir_all(&dir).expect("scratch directory");
            trace::start();
            let mut it = run_traced(workload, size, inputs, &dir);
            let recording = trace::finish();
            measured += it.setup + it.timed_wall;
            it.budget = budget_shares(&it, &recording);
            it.rescale(after, calibrate());
            it.check(
                "traced iteration decides as the untraced one",
                (it.fingerprint, it.instance_tuples) == reference,
            );
            if traced_runs.is_empty() {
                if let Some(durable_dir) = it.durable_dir.clone() {
                    it.check("storage probes", storage_probes(&durable_dir, &mut probes));
                }
            }
            traced_runs.push((it, recording));
            std::fs::remove_dir_all(&dir).ok();
        }
        index += 1;
    }

    // Peak memory is the process's high-water mark, so it is read before the
    // cross-check runs its reference (the library's own driver, or a second
    // confederation) in this process.
    let peak_rss = peak_rss_mb();
    let dir = scratch.join("cross-check");
    std::fs::create_dir_all(&dir).expect("scratch directory");
    cross_check(workload, size, iteration_seed(seed, 0), &dir, &mut untraced[0]);
    std::fs::remove_dir_all(&dir).ok();

    let all: Vec<&Iteration> =
        untraced.iter().chain(traced_runs.iter().map(|(it, _)| it)).collect();
    let attempted = all.iter().map(|it| it.attempted).sum();
    let failed = all.iter().map(|it| it.failed).sum();
    let iterations = all.len();

    let mut all_metrics = end_to_end(&untraced, peak_rss);
    let driver_metrics = if traced {
        let partial = all_metrics.split_off(END_TO_END.len());
        all_metrics = partial;
        all_metrics.extend(per_layer(&untraced, &traced_runs, &probes));
        all_metrics.clone()
    } else {
        all_metrics[..END_TO_END.len()].to_vec()
    };
    RunOutput {
        driver_metrics,
        all_metrics,
        attempted,
        failed,
        iterations,
        recording: traced_runs.into_iter().next().map(|(_, recording)| recording),
    }
}
