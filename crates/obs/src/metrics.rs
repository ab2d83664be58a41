//! Named counters, gauges and fixed-bucket histograms behind one registry.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are resolved from the
//! [`MetricsRegistry`] once, at setup time, and shared via `Arc`; updating
//! one is a single relaxed atomic operation. The registry map is only
//! locked on resolution and on [`MetricsRegistry::snapshot`], never on the
//! hot path.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing (in normal use) 64-bit counter.
///
/// Default counters (`Counter::default()`) are not registered anywhere —
/// components use them as their default sink so the counting code path is
/// identical whether or not a registry is attached.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Overwrites the value (used by view types that clone-by-value).
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }
}

/// A signed gauge (current level rather than cumulative count).
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Sets the level.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative).
    #[inline]
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: bucket `i` counts values whose bit length
/// is `i` (i.e. `[2^(i-1), 2^i)`), bucket 0 counts zeros, bucket 64 the
/// top half of the `u64` range.
pub const HISTOGRAM_BUCKETS: usize = 65;

#[derive(Debug)]
struct HistogramInner {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for HistogramInner {
    fn default() -> Self {
        HistogramInner {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// A fixed-bucket (power-of-two bounds) histogram. Recording is three
/// relaxed atomic adds and involves no floating point; quantiles are
/// derived from the buckets at snapshot time.
#[derive(Clone, Debug, Default)]
pub struct Histogram(Arc<HistogramInner>);

impl Histogram {
    #[inline]
    fn bucket_of(value: u64) -> usize {
        (u64::BITS - value.leading_zeros()) as usize
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, value: u64) {
        self.0.buckets[Self::bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the buckets.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.0.count.load(Ordering::Relaxed),
            sum: self.0.sum.load(Ordering::Relaxed),
            buckets: self.0.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
        }
    }
}

/// A point-in-time copy of one histogram's buckets.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Per-bucket counts ([`HISTOGRAM_BUCKETS`] entries; bucket `i` holds
    /// values of bit length `i`).
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Upper bound (inclusive) of bucket `i`.
    fn bucket_upper(i: usize) -> u64 {
        match i {
            0 => 0,
            64 => u64::MAX,
            _ => (1u64 << i) - 1,
        }
    }

    /// The quantile `num/den` as the inclusive upper bound of the bucket
    /// containing the nearest-rank observation. Integer arithmetic only.
    fn quantile(&self, num: u64, den: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (self.count * num).div_ceil(den).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Self::bucket_upper(i);
            }
        }
        Self::bucket_upper(HISTOGRAM_BUCKETS - 1)
    }

    /// Median (bucket upper bound).
    pub fn p50(&self) -> u64 {
        self.quantile(1, 2)
    }

    /// 99th percentile (bucket upper bound).
    pub fn p99(&self) -> u64 {
        self.quantile(99, 100)
    }

    /// Mean of the exact recorded values (not bucket-quantised).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Folds another snapshot in (bucket-wise sum).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count += other.count;
        self.sum += other.sum;
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
    }
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

/// The handle named `name` in `map`, created on first use: the name is
/// copied into a key only then.
fn resolve<T: Clone + Default>(map: &Mutex<BTreeMap<String, T>>, name: &str) -> T {
    let mut map = map.lock().expect("metrics lock poisoned");
    if let Some(handle) = map.get(name) {
        return handle.clone();
    }
    map.entry(name.to_string()).or_default().clone()
}

/// A shared sink of named metrics. Cloning shares the underlying maps.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    inner: Arc<RegistryInner>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Resolves (creating on first use) the counter named `name`. Call at
    /// setup time and keep the returned handle for the hot path.
    pub fn counter(&self, name: &str) -> Counter {
        resolve(&self.inner.counters, name)
    }

    /// Resolves (creating on first use) the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        resolve(&self.inner.gauges, name)
    }

    /// Resolves (creating on first use) the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        resolve(&self.inner.histograms, name)
    }

    /// A point-in-time copy of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .inner
            .counters
            .lock()
            .expect("metrics lock poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let gauges = self
            .inner
            .gauges
            .lock()
            .expect("metrics lock poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let histograms = self
            .inner
            .histograms
            .lock()
            .expect("metrics lock poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect();
        MetricsSnapshot { counters, gauges, histograms }
    }
}

/// A point-in-time copy of a whole registry.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge levels by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Folds another snapshot in: counters and histograms sum, gauges take
    /// the other side's (more recent) level.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_default() += v;
        }
        for (k, v) in &other.gauges {
            self.gauges.insert(k.clone(), *v);
        }
        for (k, v) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_round_trip_through_the_registry() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("a");
        c.inc();
        c.add(4);
        reg.gauge("g").set(-3);
        // Re-resolving yields the same underlying cell.
        assert_eq!(reg.counter("a").get(), 5);
        let snap = reg.snapshot();
        assert_eq!(snap.counters["a"], 5);
        assert_eq!(snap.gauges["g"], -3);
    }

    #[test]
    fn histogram_buckets_values_by_bit_length() {
        let h = Histogram::default();
        for v in [0, 1, 2, 3, 4, 1000, u64::MAX] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 7);
        assert_eq!(snap.buckets[0], 1); // 0
        assert_eq!(snap.buckets[1], 1); // 1
        assert_eq!(snap.buckets[2], 2); // 2, 3
        assert_eq!(snap.buckets[3], 1); // 4
        assert_eq!(snap.buckets[10], 1); // 1000
        assert_eq!(snap.buckets[64], 1); // u64::MAX
    }

    #[test]
    fn quantiles_walk_buckets_without_floats() {
        let h = Histogram::default();
        for _ in 0..99 {
            h.record(10); // bucket 4, upper bound 15
        }
        h.record(1 << 20); // bucket 21
        let snap = h.snapshot();
        assert_eq!(snap.p50(), 15);
        assert_eq!(snap.p99(), 15);
        assert_eq!(snap.quantile(100, 100), (1u64 << 21) - 1);
        assert_eq!(snap.mean(), (99 * 10 + (1 << 20)) / 100);
        assert_eq!(HistogramSnapshot::default().p99(), 0);
    }

    #[test]
    fn snapshots_merge_by_summing() {
        let reg = MetricsRegistry::new();
        reg.counter("c").add(2);
        reg.histogram("h").record(7);
        let mut a = reg.snapshot();
        reg.counter("c").add(3);
        reg.gauge("g").set(9);
        let b = reg.snapshot();
        a.merge(&b);
        assert_eq!(a.counters["c"], 7);
        assert_eq!(a.gauges["g"], 9);
        assert_eq!(a.histograms["h"].count, 2);
        assert!(!a.is_empty());
        assert!(MetricsSnapshot::default().is_empty());
    }
}
