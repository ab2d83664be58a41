//! Unified observability for the CDSS stack: structured tracing and a
//! metrics registry, with zero dependencies.
//!
//! Every layer of the system — runtime, simnet, WAL, store service, fabric,
//! participants, workload drivers — reports into the two sinks this crate
//! provides:
//!
//! * [`Tracer`] records hierarchical spans and instant events. Timestamps
//!   come from a pluggable [`TimeSource`]: either wall-clock (for plain
//!   drivers) or a **virtual-clock cell** shared with the `orchestra-rt`
//!   executor, so traces captured under simulation are byte-for-byte
//!   deterministic and cost no simulated time. A [`Tracer::disabled`] tracer
//!   reduces every call to a single `Option` check.
//! * [`MetricsRegistry`] holds named [`Counter`]s, [`Gauge`]s and
//!   fixed-bucket [`Histogram`]s. Handles are resolved once (a map lookup +
//!   `Arc` clone) and then cost one relaxed atomic op per update, so hot
//!   paths never touch the registry map. Histograms use power-of-two
//!   buckets: recording is a single atomic increment and p50/p99 are
//!   derived from the buckets without any floating point in the hot path.
//!
//! The [`Obs`] bundle groups one tracer and one registry so call sites can
//! thread a single handle. Traces are exported in a line-oriented text
//! format ([`export`]) that the `trace_dump` binary pretty-prints,
//! JSON-exports, or renders as a per-shard timeline; its default view ends
//! with the trace's self-time [`budget`].

pub mod budget;
pub mod export;
pub mod metrics;
pub mod trace;

pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot};
pub use trace::{EventKind, Span, TimeSource, TraceEvent, Tracer};

/// One tracer plus one metrics registry: the handle instrumented layers
/// accept. Cloning is cheap (two `Arc` clones) and clones share the sinks.
#[derive(Clone, Debug, Default)]
pub struct Obs {
    /// The trace sink. Defaults to [`Tracer::disabled`].
    pub tracer: Tracer,
    /// The metrics sink. Always live: counters cost one relaxed atomic op
    /// whether or not anything ever snapshots them.
    pub metrics: MetricsRegistry,
}

impl Obs {
    /// A bundle with a disabled tracer and a fresh private registry — the
    /// default every component starts from.
    pub fn disabled() -> Self {
        Obs::default()
    }

    /// A bundle with an enabled wall-clock tracer and a fresh registry.
    /// Bind the tracer to a virtual clock with [`Tracer::bind_virtual`]
    /// before driving simulated work.
    pub fn enabled() -> Self {
        Obs { tracer: Tracer::new(), metrics: MetricsRegistry::new() }
    }
}

/// Formats a metric key with a `{label=value}` suffix, e.g.
/// `key_with("service.requests", "shard", 0)` → `service.requests{shard=0}`.
/// Intended for setup-time key construction, not hot paths.
pub fn key_with(name: &str, label: &str, value: u64) -> String {
    format!("{name}{{{label}={value}}}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_with_formats_labels() {
        assert_eq!(key_with("service.requests", "shard", 3), "service.requests{shard=3}");
    }

    #[test]
    fn obs_bundles_share_sinks_across_clones() {
        let obs = Obs::enabled();
        let clone = obs.clone();
        clone.metrics.counter("x").add(2);
        assert_eq!(obs.metrics.counter("x").get(), 2);
        let _span = clone.tracer.span("s", &[]);
        assert!(!obs.tracer.events().is_empty());
    }
}
