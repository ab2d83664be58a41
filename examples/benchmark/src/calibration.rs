//! Host-speed calibration: the benchmark's one answer to a host whose speed
//! drifts.
//!
//! The hosts this benchmark runs on are small shared virtual machines. For
//! minutes at a time everything on them — wall clock *and* on-CPU time — runs
//! 30 to 100 % slower, and no statistic taken inside a fifteen-second run can see
//! through a slowdown that outlasts the run. So every iteration is bracketed
//! by a fixed kernel, and the iteration's wall-clock durations are reported in
//! **reference-speed seconds**: `wall × REFERENCE_S / kernel time`. On a quiet
//! host of the reference speed the factor is 1 and the numbers are plain
//! seconds; in a slow period they are what the clock would have read had the
//! host kept its speed.
//!
//! What that buys, on the same ten ten-second runs per workload (seeds
//! 201–210, round robin, an ordinary afternoon on the host the benchmark was
//! written on) —
//! inter-quartile spread of `updates_per_s` / `sessions_per_s` /
//! `publishes_per_s` as a share of the median:
//!
//! | workload | raw | scaled |
//! |---|---|---|
//! | `wide_insert` | 15.4 / 13.3 / 16.7 % | 2.4 / 2.7 / 5.5 % |
//! | `service_wave` | 13.9 / 12.5 / 18.1 % | 3.8 / 3.2 / 7.4 % |
//! | `fabric_wave` | 9.7 / 11.5 / 9.6 % | 5.8 / 5.0 / 6.5 % |
//! | `deep_conflict` | 7.7 / 4.1 / 4.6 % | 10.9 / 4.4 / 7.2 % |
//! | `durable_crash` (timed wall, 12 runs) | 13.2 % | 3.7 % |
//!
//! The memory-bound workloads gain a factor of three to six. `deep_conflict`,
//! whose hot set fits the L2, gains nothing: the slow spells are contention
//! for memory, the kernel feels them and `deep_conflict` hardly does, so it is
//! over-corrected a little. One rule for all five is still the better trade —
//! raw, one run in ten on the wide shapes read 35 to 45 % low.
//!
//! The metric bounds in [`crate::metrics`] follow from the scaled spreads by
//! one rule — three times the largest ten-seed spread seen for the metric on
//! any workload, rounded up to 5 %, capped at the 25 % the driver allows — so
//! scaling is the only allowance made for the host.
//!
//! Limits. The kernel is benchmark code built with the program, so a parent
//! commit and a change are always scaled by the same rule; but it is made of
//! `std`'s `HashMap`, `BTreeMap`, `format!` and the allocator, so a change of
//! toolchain, allocator or optimisation settings moves the kernel too and is
//! partly divided out — measure such a change on the raw numbers. Those are
//! always reported beside the scaled ones (`host.calibration_ms`,
//! `host.timed_wall_s`); virtual-clock times and counts are never scaled, and
//! span dumps keep raw nanoseconds.

use crate::metrics::median;
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// The kernel's time on the quiet reference host (2 vCPU Xeon @ 2.1 GHz).
pub const REFERENCE_S: f64 = 0.003;

const PASSES: usize = 5;

/// One pass of the kernel: the mix the workloads spend their time in —
/// string formatting and hashing, hash-map and B-tree inserts, allocation,
/// a sort — over a working set of a few hundred kilobytes.
fn kernel() -> usize {
    let mut map: HashMap<String, Vec<u64>> = HashMap::with_capacity(4096);
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..20_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.entry(format!("key-{}", x % 4096)).or_default().push(x);
    }
    let mut tree = BTreeMap::new();
    for (key, values) in &map {
        tree.insert(key.clone(), values.len());
    }
    let mut all: Vec<u64> = map.values().flatten().copied().collect();
    all.sort_unstable();
    tree.len() + all.len()
}

/// Times the kernel: the median of a few passes, in seconds. (The median,
/// because the iteration between two calibrations ran at the host's typical
/// speed of the moment, not at its best; over 36 runs in a period when raw
/// times swung by a factor of two, median, fastest and trimmed mean all left
/// a spread of 6 % on average, the median with the smallest maximum.)
pub fn calibrate() -> f64 {
    let passes: Vec<f64> = (0..PASSES)
        .map(|_| {
            let start = Instant::now();
            black_box(kernel());
            start.elapsed().as_secs_f64()
        })
        .collect();
    median(&passes)
}

/// The factor that turns a wall-clock duration measured between two
/// calibrations into reference-speed seconds.
pub fn speed_factor(before: f64, after: f64) -> f64 {
    REFERENCE_S / ((before + after) / 2.0)
}
