//! Micro-probes: the unit cost of the primitives the service and storage
//! layers are built from, measured once per traced run so a change in a
//! workload's budget line can be told apart from a change in the primitive
//! under it. Probe results are per-layer metrics only; no end-to-end metric
//! is derived from them.

use orchestra_net::{NodeId, SimNetwork};
use orchestra_rt::{channel, LocalExecutor, VirtualClock};
use orchestra_storage::codec::{encode_record, Codec};
use orchestra_storage::segment::parse_stamp;
use orchestra_storage::{FrameLog, WalRecord};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// What the probes measured (zero where a probe did not apply).
#[derive(Debug, Clone, Copy, Default)]
pub struct Probes {
    /// One bounded-channel send→recv hop between two `LocalExecutor` tasks.
    pub hop_ns: f64,
    /// One `sleep_us` timer registration, clock jump and wake.
    pub timer_ns: f64,
    /// One `SimNetwork::send_direct`.
    pub send_ns: f64,
    /// `FrameLog::open` plus `WalRecord::decode` over every frame of the
    /// crash copy.
    pub decode_s: f64,
    /// `encode_record` over the same records.
    pub encode_s: f64,
    /// `FrameLog::append` of the same payloads to a scratch log, plus one
    /// sync.
    pub append_s: f64,
}

const HOPS: u64 = 100_000;
const TIMERS: u64 = 100_000;
const SENDS: u64 = 200_000;

fn per_op_ns(start: Instant, ops: u64) -> f64 {
    start.elapsed().as_nanos() as f64 / ops as f64
}

/// The runtime and network primitives under `service_wave` and `fabric_wave`.
pub fn runtime_probes(probes: &mut Probes) {
    // Capacity 1 forces a task switch per message: the sender parks until
    // the receiver has drained the slot.
    let clock = VirtualClock::new();
    let mut ex = LocalExecutor::new(clock.clone());
    let (tx, mut rx) = channel::<u64>(1);
    ex.spawn(async move {
        for i in 0..HOPS {
            if tx.send(i).await.is_err() {
                break;
            }
        }
    });
    ex.spawn(async move {
        let mut sum = 0u64;
        while let Some(value) = rx.recv().await {
            sum = sum.wrapping_add(value);
        }
        black_box(sum);
    });
    let start = Instant::now();
    let blocked = ex.run();
    probes.hop_ns = per_op_ns(start, HOPS);
    assert_eq!(blocked, 0, "channel probe tasks must finish");

    let mut ex = LocalExecutor::new(clock.clone());
    let timer_clock = clock.clone();
    ex.spawn(async move {
        for _ in 0..TIMERS {
            timer_clock.sleep_us(1).await;
        }
    });
    let start = Instant::now();
    let blocked = ex.run();
    probes.timer_ns = per_op_ns(start, TIMERS);
    assert_eq!(blocked, 0, "timer probe task must finish");

    let server = NodeId::hash_str("probe-server");
    let client = NodeId::hash_str("probe-client");
    let net = SimNetwork::new(vec![server]);
    let start = Instant::now();
    for _ in 0..SENDS {
        net.send_direct(black_box(client), black_box(server), black_box(96));
    }
    probes.send_ns = per_op_ns(start, SENDS);
    black_box(net.stats());
}

/// The storage primitives under `durable_crash`, over the real frames of the
/// durability directory the iteration ended on: read and decode them, encode
/// the decoded records again, and append the original payloads to a scratch
/// log. Returns `false` if a frame fails to parse.
pub fn storage_probes(dir: &Path, probes: &mut Probes) -> bool {
    let mut segments: Vec<_> = match std::fs::read_dir(dir) {
        Ok(entries) => entries
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|ext| ext == "log"))
            .collect(),
        Err(_) => return false,
    };
    segments.sort();

    let start = Instant::now();
    let mut payloads: Vec<Vec<u8>> = Vec::new();
    let mut records: Vec<WalRecord> = Vec::new();
    for path in &segments {
        let Ok((_log, frames)) = FrameLog::open(path) else {
            return false;
        };
        for frame in frames {
            let Ok((_stamp, body)) = parse_stamp(&frame) else {
                return false;
            };
            let Ok(record) = WalRecord::decode(body) else {
                return false;
            };
            records.push(record);
            payloads.push(frame);
        }
    }
    probes.decode_s = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let mut encoded = 0usize;
    for record in &records {
        encoded += black_box(encode_record(record, Codec::Binary)).len();
    }
    probes.encode_s = start.elapsed().as_secs_f64();
    black_box(encoded);

    let scratch = dir.join("probe.scratch");
    let start = Instant::now();
    let Ok(mut log) = FrameLog::create(&scratch) else {
        return false;
    };
    let ok = payloads.iter().all(|payload| log.append(payload).is_ok()) && log.sync().is_ok();
    probes.append_s = start.elapsed().as_secs_f64();
    drop(log);
    std::fs::remove_file(&scratch).ok();
    ok && !records.is_empty()
}
