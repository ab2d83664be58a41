//! `selftest`: the instrument checks itself, at a smoke size (16 participants,
//! 2 rounds; a few seconds in total).

use crate::metrics::{
    benchmark_json, median, percentile, quartiles, Metric, END_TO_END, END_TO_END_PARTIAL,
    PER_LAYER,
};
use crate::runner::measure;
use crate::trace::{self, self_times, span};
use crate::workloads::{Size, Workload};
use std::path::Path;

struct Report {
    failed: u64,
}

impl Report {
    fn check(&mut self, what: &str, ok: bool) {
        if !ok {
            self.failed += 1;
        }
        println!("{}\t{what}", if ok { "ok" } else { "FAILED" });
    }
}

fn value(metrics: &[Metric], name: &str) -> f64 {
    metrics.iter().find(|m| m.name == name).map_or(f64::NAN, |m| m.value)
}

fn contract_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn contract_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

/// Runs every self-check; returns how many failed.
pub fn selftest(scratch: &Path) -> u64 {
    let mut report = Report { failed: 0 };

    // Statistics helpers.
    let one_to_ten: Vec<f64> = (1..=10).map(f64::from).collect();
    report.check(
        "quartiles match Python's statistics.quantiles(range(1, 11), n=4)",
        quartiles(&one_to_ten) == Some([2.75, 5.5, 8.25]),
    );
    report.check("quartiles of one value are undefined", quartiles(&[1.0]).is_none());
    report.check(
        "median of odd and even samples",
        median(&[3.0, 1.0, 2.0]) == 2.0 && median(&[4.0, 1.0, 2.0, 3.0]) == 2.5,
    );
    let hundred: Vec<u64> = (1..=100).rev().collect();
    report.check(
        "nearest-rank percentiles",
        percentile(&hundred, 0.50) == 50
            && percentile(&hundred, 0.99) == 99
            && percentile(&hundred, 1.0) == 100
            && percentile(&[], 0.99) == 0,
    );

    // Span nesting on a known shape: a(b(c), d).
    trace::start();
    {
        let _a = span("a");
        {
            let _b = span("b");
            let _c = span("c");
        }
        let _d = span("d");
    }
    let recording = trace::finish();
    let own = self_times(&recording.spans);
    let parents: Vec<Option<u32>> = recording.spans.iter().map(|s| s.parent).collect();
    report.check("span parents follow the stack", parents == [None, Some(0), Some(1), Some(0)]);
    let root = &recording.spans[0];
    report.check(
        "self times add up to the root span",
        own.iter().sum::<u64>() == root.end_ns - root.start_ns,
    );
    report.check("recording stops at finish()", trace::finish().spans.is_empty());

    // The catalogue against the benchmark contract.
    let catalogue: Vec<_> =
        END_TO_END.iter().chain(&END_TO_END_PARTIAL).chain(&PER_LAYER).collect();
    report.check(
        "metric names use [A-Za-z0-9_.-], at most 64 characters",
        catalogue.iter().all(|d| contract_name(d.name)),
    );
    report.check("units fit the contract", catalogue.iter().all(|d| contract_unit(d.unit)));
    let mut names: Vec<_> = catalogue.iter().map(|d| d.name).collect();
    names.sort_unstable();
    names.dedup();
    report.check("metric names are unique", names.len() == catalogue.len());
    report.check(
        "metric counts fit the contract",
        END_TO_END.len() <= 16 && END_TO_END_PARTIAL.len() + PER_LAYER.len() <= 128,
    );
    report.check(
        "workload names and reasons fit the contract",
        Workload::ALL.iter().all(|w| {
            contract_name(w.name()) && w.why().len() <= 200 && !w.why().contains(['"', '\\', '\n'])
        }),
    );
    report.check("set-up time is an end-to-end metric", END_TO_END[0].name == "setup_s");
    if let Ok(committed) = std::fs::read_to_string("BENCHMARK.json") {
        report.check("BENCHMARK.json equals the catalogue", committed == benchmark_json());
    }

    // Every workload, untraced and traced.
    for workload in Workload::ALL {
        let name = workload.name();
        let plain = measure(workload, Size::Smoke, 42, 0.0, false, scratch);
        report.check(&format!("{name}: untraced run has no failed operation"), plain.failed == 0);
        report.check(
            &format!("{name}: untraced run reports exactly the end-to-end metrics"),
            plain.driver_metrics.iter().map(|m| m.name).eq(END_TO_END.iter().map(|d| d.name)),
        );
        report.check(
            &format!("{name}: end-to-end metrics are positive"),
            plain.driver_metrics.iter().all(|m| m.value > 0.0 && m.value.is_finite()),
        );
        let expect_positive: &[&str] = match workload {
            Workload::WideInsert | Workload::DeepConflict => {
                &["publish_p50_ms", "publish_p99_ms", "reconcile_p50_ms", "reconcile_p99_ms"]
            }
            Workload::DurableCrash => &[
                "publish_p50_ms",
                "publish_p99_ms",
                "reconcile_p50_ms",
                "reconcile_p99_ms",
                "recover_s",
                "wal_bytes_per_update",
            ],
            Workload::ServiceWave | Workload::FabricWave => {
                &["session_virt_p50_ms", "session_virt_p99_ms"]
            }
        };
        report.check(
            &format!("{name}: its partial end-to-end metrics are measured"),
            expect_positive.iter().all(|metric| value(&plain.all_metrics, metric) > 0.0),
        );

        // The traced run fails an operation if any traced iteration (behind
        // the TimedStore decorator) decides differently from its untraced
        // twin.
        let traced = measure(workload, Size::Smoke, 42, 0.0, true, scratch);
        report.check(
            &format!("{name}: traced run has no failed operation, decorator decides identically"),
            traced.failed == 0,
        );
        report.check(
            &format!("{name}: traced run reports exactly the per-layer metrics"),
            traced
                .driver_metrics
                .iter()
                .map(|m| m.name)
                .eq(END_TO_END_PARTIAL.iter().chain(&PER_LAYER).map(|d| d.name)),
        );
        report.check(
            &format!("{name}: per-layer values are finite and not negative"),
            traced.driver_metrics.iter().all(|m| m.value.is_finite() && m.value >= 0.0),
        );
        let share = value(&traced.driver_metrics, "budget.attributed_share");
        report.check(
            &format!("{name}: budget.attributed_share computed ({share:.3})"),
            share > 0.0 && share <= 1.0,
        );
        let spans = traced.recording.map(|r| r.spans).unwrap_or_default();
        let wall = spans.iter().map(|s| s.end_ns).max().unwrap_or(0)
            - spans.iter().map(|s| s.start_ns).min().unwrap_or(0);
        report.check(
            &format!("{name}: {} spans nest, self times sum to at most the wall", spans.len()),
            !spans.is_empty()
                && spans.iter().all(|s| s.end_ns >= s.start_ns)
                && spans.iter().enumerate().all(|(i, s)| {
                    s.parent.map_or(true, |p| {
                        let parent = &spans[p as usize];
                        (p as usize) < i
                            && parent.start_ns <= s.start_ns
                            && s.end_ns <= parent.end_ns
                    })
                })
                && self_times(&spans).iter().sum::<u64>() <= wall,
        );
        let decorated = workload != Workload::FabricWave;
        report.check(
            &format!("{name}: store calls are {}", if decorated { "timed" } else { "not split" }),
            (value(&traced.driver_metrics, "store.publish_calls") > 0.0) == decorated,
        );
    }
    report.failed
}
