//! The metric catalogue — names, units, directions, bounds — and the
//! derivation of every metric from the iterations of one run.
//!
//! `BENCHMARK.json` is generated from this catalogue ([`benchmark_json`]), so
//! the committed file and the program cannot name different metrics;
//! `selftest` compares the two.

use crate::probes::Probes;
use crate::trace::{totals, Recording, SpanTotals};
use crate::workloads::{Iteration, Workload, TIMED};
use std::collections::BTreeMap;

/// Which way a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// How `compare` judges a metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Check {
    /// The median may worsen by this share of the baseline's median.
    Bound(f64),
    /// A count or a virtual-clock time: equal seeds give equal values, to
    /// the digit.
    Exact,
    /// Reported, not judged (wall-clock layer times and ratios derived from
    /// them).
    Info,
}

/// One entry of the catalogue.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// The metric's name (`[A-Za-z0-9_.-]`).
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// Which way is better.
    pub better: Better,
    /// How `compare` judges it.
    pub check: Check,
}

const fn def(name: &'static str, unit: &'static str, better: Better, check: Check) -> MetricDef {
    MetricDef { name, unit, better, check }
}

use Better::{Higher, Lower};
use Check::{Bound, Exact, Info};

/// The end-to-end metrics every workload reports from its untraced
/// iterations (`BENCHMARK.json`'s `end_to_end`). Each is defined, and never
/// zero, on all five workloads.
pub const END_TO_END: [MetricDef; 5] = [
    def("setup_s", "s", Lower, Bound(0.25)),
    def("updates_per_s", "1/s", Higher, Bound(0.25)),
    def("sessions_per_s", "1/s", Higher, Bound(0.20)),
    def("publishes_per_s", "1/s", Higher, Bound(0.25)),
    def("peak_rss_mb", "MB", Lower, Bound(0.05)),
];

/// The end-to-end metrics that exist on some workloads only (zero elsewhere),
/// also taken from untraced iterations. The benchmark driver wants every
/// end-to-end metric on every workload, so these travel in the per-layer
/// list; `run` and `compare` judge them like the ones above.
pub const END_TO_END_PARTIAL: [MetricDef; 8] = [
    def("publish_p50_ms", "ms", Lower, Bound(0.25)),
    def("publish_p99_ms", "ms", Lower, Bound(0.25)),
    def("reconcile_p50_ms", "ms", Lower, Bound(0.25)),
    def("reconcile_p99_ms", "ms", Lower, Bound(0.25)),
    def("session_virt_p50_ms", "ms", Lower, Exact),
    def("session_virt_p99_ms", "ms", Lower, Exact),
    def("recover_s", "s", Lower, Bound(0.25)),
    def("wal_bytes_per_update", "B", Lower, Exact),
];

/// The per-layer metrics of the traced iterations. `*_s` are self times per
/// iteration (median over traced iterations, in reference-speed seconds like
/// every wall-clock metric; see [`crate::calibration`]); counts are those of the run's
/// first traced iteration and repeat exactly for a seed.
pub const PER_LAYER: [MetricDef; 72] = [
    // workload
    def("workload.gen_s", "s", Lower, Info),
    def("workload.updates", "count", Higher, Exact),
    // orchestra
    def("orchestra.execute_s", "s", Lower, Info),
    def("orchestra.publish_self_s", "s", Lower, Info),
    def("orchestra.reconcile_self_s", "s", Lower, Info),
    def("orchestra.resolve_s", "s", Lower, Info),
    def("orchestra.rebuild_s", "s", Lower, Info),
    def("orchestra.round_self_s", "s", Lower, Info),
    def("orchestra.sessions", "count", Higher, Exact),
    def("orchestra.publishes", "count", Higher, Exact),
    def("orchestra.resolutions", "count", Higher, Exact),
    def("orchestra.failed_ops", "count", Lower, Exact),
    // recon (+ model)
    def("recon.local_s", "s", Lower, Info),
    def("recon.candidates", "count", Lower, Exact),
    def("recon.accepted", "count", Higher, Exact),
    def("recon.rejected", "count", Lower, Exact),
    def("recon.deferred", "count", Lower, Exact),
    def("recon.decided_ratio", "ratio", Higher, Exact),
    // store: catalogue
    def("store.publish_s", "s", Lower, Info),
    def("store.begin_s", "s", Lower, Info),
    def("store.next_batch_s", "s", Lower, Info),
    def("store.commit_s", "s", Lower, Info),
    def("store.record_decisions_s", "s", Lower, Info),
    def("store.lookup_s", "s", Lower, Info),
    def("store.replay_read_s", "s", Lower, Info),
    def("store.publish_calls", "count", Lower, Exact),
    def("store.begin_calls", "count", Lower, Exact),
    def("store.next_batch_calls", "count", Lower, Exact),
    def("store.commit_calls", "count", Lower, Exact),
    def("store.record_decisions_calls", "count", Lower, Exact),
    def("store.lookup_calls", "count", Lower, Exact),
    def("store.candidates_returned", "count", Lower, Exact),
    def("store.candidates_per_batch", "ratio", Higher, Exact),
    def("store.timed_s", "s", Lower, Info),
    def("store.snapshot_s", "s", Lower, Info),
    def("store.recover_s", "s", Lower, Info),
    def("store.live_log_len", "count", Lower, Exact),
    // store: service and fabric
    def("store.requests", "count", Lower, Exact),
    def("store.busy_rejections", "count", Lower, Exact),
    def("store.batches", "count", Lower, Exact),
    def("store.batching_factor", "ratio", Higher, Exact),
    def("store.busy_per_session", "ratio", Lower, Exact),
    def("store.shard_busy_skew", "ratio", Lower, Exact),
    def("store.shard_frames_skew", "ratio", Lower, Exact),
    // storage
    def("storage.wal_records", "count", Lower, Exact),
    def("storage.wal_bytes", "B", Lower, Exact),
    def("storage.segments", "count", Lower, Exact),
    def("storage.snapshot_bytes", "B", Lower, Exact),
    def("storage.sync_s", "s", Lower, Info),
    def("storage.syncs", "count", Lower, Exact),
    def("storage.decode_s", "s", Lower, Info),
    def("storage.encode_s", "s", Lower, Info),
    def("storage.append_s", "s", Lower, Info),
    // net
    def("net.messages", "count", Lower, Exact),
    def("net.bytes", "B", Lower, Exact),
    def("net.frames_per_session", "ratio", Lower, Exact),
    def("net.send_ns", "ns", Lower, Info),
    // rt
    def("rt.virtual_elapsed_ms", "ms", Lower, Exact),
    def("rt.wall_per_virtual", "ratio", Lower, Info),
    def("rt.hop_ns", "ns", Lower, Info),
    def("rt.timer_ns", "ns", Lower, Info),
    // obs and the harness itself
    def("obs.registry_counters", "count", Higher, Exact),
    def("trace.overhead_ratio", "ratio", Lower, Info),
    def("budget.attributed_share", "ratio", Higher, Info),
    def("trace.spans", "count", Lower, Exact),
    // where the timed wall went (shares of it; see `Shares`)
    def("budget.gen_share", "ratio", Lower, Info),
    def("budget.engine_share", "ratio", Lower, Info),
    def("budget.store_share", "ratio", Lower, Info),
    def("budget.durability_share", "ratio", Lower, Info),
    def("budget.serving_share", "ratio", Lower, Info),
    // the host: what the scaled metrics were scaled by, and an unscaled wall
    def("host.calibration_ms", "ms", Lower, Info),
    def("host.timed_wall_s", "s", Lower, Info),
];

/// Looks a metric up in the whole catalogue.
pub fn lookup(name: &str) -> Option<MetricDef> {
    END_TO_END.iter().chain(&END_TO_END_PARTIAL).chain(&PER_LAYER).find(|d| d.name == name).copied()
}

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Catalogue name.
    pub name: &'static str,
    /// The value (a median, a percentile or a count, per the catalogue).
    pub value: f64,
    /// Samples behind the value: iterations for medians, pooled calls or
    /// sessions for percentiles, 1 for counts.
    pub n: usize,
}

/// Median of a sample (mean of the middle two for even sizes); 0 if empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The three quartile cut points, computed as Python's
/// `statistics.quantiles(values, n=4)` computes them (exclusive method), so
/// `run` prints the spread the benchmark driver will see. `None` below two
/// values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    if values.len() < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let len = sorted.len();
    let m = len + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    Some(out)
}

/// Nearest-rank percentile of an unsorted sample of integers; 0 if empty.
pub fn percentile(samples: &[u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn median_of(iterations: &[Iteration], f: impl Fn(&Iteration) -> f64) -> f64 {
    median(&iterations.iter().map(f).collect::<Vec<_>>())
}

/// `VmHWM` of this process, in MB (0 where `/proc` is missing).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end metrics of a run's untraced iterations: the five every
/// workload has, then the eight partial ones. `peak_rss_mb` is the caller's
/// reading of [`peak_rss_mb`], taken when the iterations had finished and
/// before anything else ran in the process.
pub fn end_to_end(iterations: &[Iteration], peak_rss_mb: f64) -> Vec<Metric> {
    let n = iterations.len();
    let per_iteration =
        |name, f: &dyn Fn(&Iteration) -> f64| Metric { name, value: median_of(iterations, f), n };
    let pooled = |name, field: &dyn Fn(&Iteration) -> &Vec<u64>, q: f64, scale: f64| {
        let all: Vec<u64> = iterations.iter().flat_map(|it| field(it).iter().copied()).collect();
        Metric { name, value: percentile(&all, q) as f64 / scale, n: all.len() }
    };
    // Virtual-clock latencies depend on the inputs alone, so they are pooled
    // over a fixed number of iterations (every run makes at least
    // `EXACT_ITERATIONS`) and repeat to the digit for a seed.
    let virtual_pooled = |name, q: f64| {
        let all: Vec<u64> = iterations
            .iter()
            .take(EXACT_ITERATIONS)
            .flat_map(|it| it.virt_us.iter().copied())
            .collect();
        Metric { name, value: percentile(&all, q) as f64 / 1e3, n: all.len() }
    };
    vec![
        per_iteration("setup_s", &|it| it.setup.as_secs_f64()),
        per_iteration("updates_per_s", &|it| ratio(it.updates as f64, it.timed_wall.as_secs_f64())),
        per_iteration("sessions_per_s", &|it| {
            ratio(it.sessions as f64, it.reconcile_wall.as_secs_f64())
        }),
        per_iteration("publishes_per_s", &|it| {
            ratio(it.publishes as f64, it.publish_wall.as_secs_f64())
        }),
        Metric { name: "peak_rss_mb", value: peak_rss_mb, n: 1 },
        pooled("publish_p50_ms", &|it| &it.publish_ns, 0.50, 1e6),
        pooled("publish_p99_ms", &|it| &it.publish_ns, 0.99, 1e6),
        pooled("reconcile_p50_ms", &|it| &it.reconcile_ns, 0.50, 1e6),
        pooled("reconcile_p99_ms", &|it| &it.reconcile_ns, 0.99, 1e6),
        virtual_pooled("session_virt_p50_ms", 0.50),
        virtual_pooled("session_virt_p99_ms", 0.99),
        per_iteration("recover_s", &|it| it.recover.as_secs_f64()),
        // Equal for every iteration of a seed only if taken from one; the
        // first iteration's inputs depend on the run's seed alone.
        Metric {
            name: "wal_bytes_per_update",
            value: iterations
                .first()
                .map_or(0.0, |it| ratio(it.disk_bytes_at_sync as f64, it.updates_at_sync as f64)),
            n: 1,
        },
    ]
}

/// Where one traced iteration's timed wall went, as shares of it: the
/// budget lines `verify` holds each workload's stated reason against.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Shares {
    /// `WorkloadGenerator::next_batch`.
    pub gen: f64,
    /// The participant and its engine: self time of `CdssSystem::{execute,
    /// publish, reconcile, resolve_conflicts}`; through a service or a fabric,
    /// where those calls run inside client futures, Σ `timing.local` of the
    /// returned reports.
    pub engine: f64,
    /// The catalogue behind `TimedStore`: publish, begin, next_batch, commit,
    /// record_decisions, lookups. On a durable store these include the WAL
    /// appends they make.
    pub store: f64,
    /// What exists only because the store is durable and crashed: WAL syncs,
    /// the snapshot, `CentralStore::recover`, `rebuild_from_store` and its
    /// replay reads.
    pub durability: f64,
    /// A service or fabric round outside the engine: executor, simulated
    /// network, service tasks, client futures — and, on the fabric, the
    /// shards' own stores, which cannot be decorated.
    pub serving: f64,
}

/// The budget shares of one traced iteration, from its spans and its reports.
/// Call it before [`Iteration::rescale`]: spans are raw nanoseconds.
pub fn budget_shares(it: &Iteration, recording: &Recording) -> Shares {
    let totals = totals(&recording.spans);
    let wall = totals.get(TIMED).map_or(0.0, |s| s.total_ns as f64);
    let own = |names: &[&str]| -> f64 {
        names.iter().filter_map(|name| totals.get(name)).fold(0.0, |sum, s| sum + s.self_ns as f64)
    };
    let round = own(&["orchestra.round"]);
    let in_round = if round > 0.0 { it.recon_local.as_nanos() as f64 } else { 0.0 };
    Shares {
        gen: ratio(own(&["workload.gen"]), wall),
        engine: ratio(
            own(&[
                "orchestra.execute",
                "orchestra.publish",
                "orchestra.reconcile",
                "orchestra.resolve",
            ]) + in_round,
            wall,
        ),
        store: ratio(
            own(&[
                "store.publish",
                "store.begin",
                "store.next_batch",
                "store.commit",
                "store.record_decisions",
                "store.lookup",
            ]),
            wall,
        ),
        durability: ratio(
            own(&[
                "storage.sync",
                "store.snapshot",
                "store.recover",
                "store.replay_read",
                "orchestra.rebuild",
            ]),
            wall,
        ),
        serving: ratio((round - in_round).max(0.0), wall),
    }
}

fn max_over_mean(values: &[u64]) -> f64 {
    let total: u64 = values.iter().sum();
    let max = values.iter().copied().max().unwrap_or(0);
    ratio(max as f64 * values.len() as f64, total as f64)
}

/// The per-layer metrics of a run: self times from the traced iterations'
/// recordings, counts from the first traced iteration, the probes, and the
/// instrument's own guards (overhead against the run's untraced iterations,
/// attributed share of the timed region).
pub fn per_layer(
    untraced: &[Iteration],
    traced: &[(Iteration, Recording)],
    probes: &Probes,
) -> Vec<Metric> {
    let n = traced.len();
    let span_totals: Vec<BTreeMap<&'static str, SpanTotals>> =
        traced.iter().map(|(_, rec)| totals(&rec.spans)).collect();
    // Span times are raw nanoseconds; scale each iteration's by the factor
    // its other durations were scaled by.
    let self_s = |span: &str| {
        let per_iteration: Vec<f64> = span_totals
            .iter()
            .zip(traced)
            .map(|(t, (it, _))| t.get(span).map_or(0.0, |s| s.self_ns as f64 / 1e9 * it.speed))
            .collect();
        median(&per_iteration)
    };
    let first = traced.first();
    let calls =
        |span: &str| span_totals.first().and_then(|t| t.get(span)).map_or(0.0, |s| s.calls as f64);
    let counter =
        |name: &str| first.and_then(|(_, rec)| rec.counts.get(name)).copied().unwrap_or(0) as f64;
    let it0 = |f: &dyn Fn(&Iteration) -> f64| first.map_or(0.0, |(it, _)| f(it));
    let traced_median = |f: &dyn Fn(&Iteration) -> f64| {
        median(&traced.iter().map(|(it, _)| f(it)).collect::<Vec<_>>())
    };
    // The timed regions are the `harness.timed` spans; whatever they do not
    // spend inside a named child span is the harness's own, unattributed.
    let attributed: Vec<f64> = span_totals
        .iter()
        .map(|t| {
            t.get(TIMED).map_or(0.0, |s| ratio((s.total_ns - s.self_ns) as f64, s.total_ns as f64))
        })
        .collect();
    let timed_median = |its: &mut dyn Iterator<Item = &Iteration>| {
        median(&its.map(|it| it.timed_wall.as_secs_f64()).collect::<Vec<_>>())
    };
    let overhead = ratio(
        timed_median(&mut traced.iter().map(|(it, _)| it)),
        timed_median(&mut untraced.iter()),
    );

    let mut out = Vec::with_capacity(PER_LAYER.len());
    let mut push = |name: &'static str, value: f64, n: usize| out.push(Metric { name, value, n });
    push("workload.gen_s", self_s("workload.gen"), n);
    push("workload.updates", it0(&|it| it.updates as f64), 1);
    push("orchestra.execute_s", self_s("orchestra.execute"), n);
    push("orchestra.publish_self_s", self_s("orchestra.publish"), n);
    push("orchestra.reconcile_self_s", self_s("orchestra.reconcile"), n);
    push("orchestra.resolve_s", self_s("orchestra.resolve"), n);
    push("orchestra.rebuild_s", self_s("orchestra.rebuild"), n);
    push("orchestra.round_self_s", self_s("orchestra.round"), n);
    push("orchestra.sessions", it0(&|it| it.sessions as f64), 1);
    push("orchestra.publishes", it0(&|it| it.publishes as f64), 1);
    push("orchestra.resolutions", it0(&|it| it.resolutions as f64), 1);
    push("orchestra.failed_ops", it0(&|it| it.failed as f64), 1);
    push("recon.local_s", traced_median(&|it| it.recon_local.as_secs_f64()), n);
    push("recon.candidates", it0(&|it| it.recon_candidates as f64), 1);
    push("recon.accepted", it0(&|it| it.recon_accepted as f64), 1);
    push("recon.rejected", it0(&|it| it.recon_rejected as f64), 1);
    push("recon.deferred", it0(&|it| it.recon_deferred as f64), 1);
    push(
        "recon.decided_ratio",
        it0(&|it| {
            ratio((it.recon_accepted + it.recon_rejected) as f64, it.recon_candidates as f64)
        }),
        1,
    );
    push("store.publish_s", self_s("store.publish"), n);
    push("store.begin_s", self_s("store.begin"), n);
    push("store.next_batch_s", self_s("store.next_batch"), n);
    push("store.commit_s", self_s("store.commit"), n);
    push("store.record_decisions_s", self_s("store.record_decisions"), n);
    push("store.lookup_s", self_s("store.lookup"), n);
    push("store.replay_read_s", self_s("store.replay_read"), n);
    push("store.publish_calls", calls("store.publish"), 1);
    push("store.begin_calls", calls("store.begin"), 1);
    push("store.next_batch_calls", calls("store.next_batch"), 1);
    push("store.commit_calls", calls("store.commit"), 1);
    push("store.record_decisions_calls", calls("store.record_decisions"), 1);
    push("store.lookup_calls", calls("store.lookup"), 1);
    push("store.candidates_returned", counter("store.candidates_returned"), 1);
    push(
        "store.candidates_per_batch",
        ratio(counter("store.candidates_returned"), calls("store.next_batch")),
        1,
    );
    let timed_s: Vec<f64> = traced
        .iter()
        .map(|(it, rec)| {
            rec.counts.get("store.timed_ns").copied().unwrap_or(0) as f64 / 1e9 * it.speed
        })
        .collect();
    push("store.timed_s", median(&timed_s), n);
    push("store.snapshot_s", self_s("store.snapshot"), n);
    push("store.recover_s", self_s("store.recover"), n);
    push("store.live_log_len", it0(&|it| it.live_log_len as f64), 1);
    push("store.requests", it0(&|it| it.requests as f64), 1);
    push("store.busy_rejections", it0(&|it| it.busy_rejections as f64), 1);
    push("store.batches", it0(&|it| it.batches as f64), 1);
    push("store.batching_factor", it0(&|it| ratio(it.requests as f64, it.batches as f64)), 1);
    push(
        "store.busy_per_session",
        it0(&|it| ratio(it.busy_rejections as f64, it.virt_us.len() as f64)),
        1,
    );
    push("store.shard_busy_skew", it0(&|it| max_over_mean(&it.shard_busy)), 1);
    push("store.shard_frames_skew", it0(&|it| max_over_mean(&it.shard_frames)), 1);
    push("storage.wal_records", it0(&|it| it.wal_records as f64), 1);
    push("storage.wal_bytes", it0(&|it| it.wal_bytes as f64), 1);
    push("storage.segments", it0(&|it| it.wal_segments as f64), 1);
    push("storage.snapshot_bytes", it0(&|it| it.snapshot_bytes as f64), 1);
    push("storage.sync_s", self_s("storage.sync"), n);
    push("storage.syncs", it0(&|it| it.syncs as f64), 1);
    push("storage.decode_s", probes.decode_s, 1);
    push("storage.encode_s", probes.encode_s, 1);
    push("storage.append_s", probes.append_s, 1);
    push("net.messages", it0(&|it| it.net_messages as f64), 1);
    push("net.bytes", it0(&|it| it.net_bytes as f64), 1);
    push(
        "net.frames_per_session",
        it0(&|it| ratio(it.net_messages as f64, it.virt_us.len() as f64)),
        1,
    );
    push("net.send_ns", probes.send_ns, 1);
    push("rt.virtual_elapsed_ms", it0(&|it| it.virtual_elapsed_us as f64 / 1e3), 1);
    push(
        "rt.wall_per_virtual",
        traced_median(&|it| {
            ratio(
                (it.publish_wall + it.reconcile_wall).as_secs_f64(),
                it.virtual_elapsed_us as f64 / 1e6,
            )
        }),
        n,
    );
    push("rt.hop_ns", probes.hop_ns, 1);
    push("rt.timer_ns", probes.timer_ns, 1);
    push("obs.registry_counters", it0(&|it| it.obs_counters as f64), 1);
    push("trace.overhead_ratio", overhead, n);
    push("budget.attributed_share", median(&attributed), n);
    push("trace.spans", first.map_or(0.0, |(_, rec)| rec.spans.len() as f64), 1);
    push("budget.gen_share", traced_median(&|it| it.budget.gen), n);
    push("budget.engine_share", traced_median(&|it| it.budget.engine), n);
    push("budget.store_share", traced_median(&|it| it.budget.store), n);
    push("budget.durability_share", traced_median(&|it| it.budget.durability), n);
    push("budget.serving_share", traced_median(&|it| it.budget.serving), n);
    push("host.calibration_ms", median_of(untraced, |it| it.calibration * 1e3), untraced.len());
    push(
        "host.timed_wall_s",
        median_of(untraced, |it| it.raw_timed_wall.as_secs_f64()),
        untraced.len(),
    );
    out
}

fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

/// The result line the benchmark driver reads: one JSON object with exactly
/// the keys `correct`, `attempted`, `failed` and `metrics`.
pub fn result_json(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let unit = lookup(m.name).map_or("", |d| d.unit);
            format!("\"{}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", m.name, number(m.value))
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}

/// One human-readable line per metric: `workload⇥metric⇥value⇥unit⇥n`.
pub fn tsv_lines(workload: Workload, metrics: &[Metric]) -> String {
    let mut out = String::new();
    for m in metrics {
        let unit = lookup(m.name).map_or("", |d| d.unit);
        out.push_str(&format!(
            "{}\t{}\t{}\t{unit}\t{}\n",
            workload.name(),
            m.name,
            number(m.value),
            m.n
        ));
    }
    out
}

/// How long one run measures.
pub const RUN_SECONDS: u64 = 15;

/// The untraced iterations every run makes, however short `--seconds` is;
/// metrics that must repeat exactly for a seed are taken from these.
pub const EXACT_ITERATIONS: usize = 3;

/// `BENCHMARK.json`, generated from the catalogue.
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = Workload::ALL
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name(), w.why()))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|d| {
            let Check::Bound(bound) = d.check else {
                unreachable!("every end-to-end metric has a bound");
            };
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {bound}}}",
                d.name,
                d.unit,
                d.better.label()
            )
        })
        .collect();
    let per_layer: Vec<String> = END_TO_END_PARTIAL
        .iter()
        .chain(&PER_LAYER)
        .map(|d| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                d.name,
                d.unit,
                d.better.label()
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \
         \"examples/benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"examples/benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}
