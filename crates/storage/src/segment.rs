//! Per-shard WAL segments with deterministic merge recovery.
//!
//! PR 4's durability layer serialised every durable commit through one
//! mutex-guarded [`FrameLog`]. That is correct but collapses the store's
//! shard parallelism at the moment it matters most — the `fsync` (or at
//! least the write) at the end of a commit. This module splits one WAL
//! *generation* into independent append-only segments:
//!
//! ```text
//! wal.<gen>.log        the log-shard segment (Init, RegisterPolicy,
//!                      Publish, MembershipFrontier, RetireParticipant,
//!                      Prune)
//! wal.<gen>.p<id>.log  one segment per participant shard
//!                      (CommitReconciliation, Decisions), created when the
//!                      participant registers or a new generation starts
//! ```
//!
//! Durable commits on different shards now append to different files under
//! different mutexes, so they proceed in parallel; group commit
//! ([`FlushPolicy`]) applies per segment.
//!
//! # Stamps and the merge rule
//!
//! Replay order across segments must be recovered without a shared cursor.
//! Every frame payload therefore carries a stamp ahead of the record bytes:
//!
//! ```text
//! varint(epoch) | varint(seq) | varint(publisher+1) | varint(pubseq) | record
//! ```
//!
//! `seq` comes from one atomic counter, so it is unique and any two appends
//! ordered by happens-before (through the catalogue's lock order) get
//! increasing values. `epoch` is the segment manager's *epoch watermark*:
//! publishes (scalar and causal) raise it to their own arrival epoch, every
//! other record reads it. The watermark is monotone, and a record's stamp
//! dominates the stamps of every record it causally depends on — a
//! reconciliation pinned to epoch `e` is only possible after the publishes
//! through `e` were appended, so its stamp epoch is `≥ e` and its `seq`
//! larger than theirs.
//!
//! The last two varints carry the *causal* identity of a causal-mode publish
//! (`publisher + 1` so that `0` means "no causal stamp", `pubseq` its
//! per-publisher sequence). Recovery opens all segments of the generation and
//! replays the union sorted by `(epoch, seq)` with ties broken by the
//! deterministic causal tie-break ([`StampId::tie_break`]: deeper
//! per-publisher chain first, then the smaller publisher). Within one
//! manager's lifetime `seq` never collides, so the tie-break only decides
//! between segments written by independent sequencers — and it decides them
//! identically on every replica, which is what makes the merged replay a
//! deterministic linear extension of the causal order rather than an
//! arrival-order accident.

use crate::codec::{read_varint, write_varint};
use crate::error::{Result, StorageError};
use crate::snapshot::{shard_wal_path, wal_path};
use crate::wal::{FlushPolicy, FrameLog, WalRecord};
use orchestra_model::{ParticipantId, StampId};
use orchestra_obs::Obs;
use rustc_hash::FxHashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The replay-ordering stamp carried ahead of every frame payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameStamp {
    /// The epoch watermark at append time (a publish's own arrival epoch).
    pub epoch: u64,
    /// The manager's global append sequence.
    pub seq: u64,
    /// The causal identity of a causal-mode publish (`None` for scalar-mode
    /// and non-publish records).
    pub stamp: Option<StampId>,
}

impl FrameStamp {
    /// The deterministic merge order: `(epoch, seq)` first, causal tie-break
    /// ([`StampId::tie_break`]) on collisions, stamped records ahead of
    /// stampless ones so the order is total either way.
    fn merge_cmp(&self, other: &FrameStamp) -> std::cmp::Ordering {
        (self.epoch, self.seq).cmp(&(other.epoch, other.seq)).then_with(|| {
            match (self.stamp, other.stamp) {
                (Some(a), Some(b)) => a.tie_break(b),
                (Some(_), None) => std::cmp::Ordering::Less,
                (None, Some(_)) => std::cmp::Ordering::Greater,
                (None, None) => std::cmp::Ordering::Equal,
            }
        })
    }
}

/// Splits a stamped frame payload into its [`FrameStamp`] and record bytes.
pub fn parse_stamp(payload: &[u8]) -> Result<(FrameStamp, &[u8])> {
    let mut pos = 0;
    let epoch = read_varint(payload, &mut pos)?;
    let seq = read_varint(payload, &mut pos)?;
    let publisher_plus_1 = read_varint(payload, &mut pos)?;
    let pubseq = read_varint(payload, &mut pos)?;
    let stamp = if publisher_plus_1 == 0 {
        None
    } else {
        let publisher = u32::try_from(publisher_plus_1 - 1)
            .map_err(|_| StorageError::Persistence("frame stamp publisher overflow".to_string()))?;
        Some(StampId::new(ParticipantId(publisher), pubseq))
    };
    Ok((FrameStamp { epoch, seq, stamp }, &payload[pos..]))
}

fn stamp_payload(stamp: FrameStamp, record: &[u8]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(record.len() + 24);
    write_varint(&mut payload, stamp.epoch);
    write_varint(&mut payload, stamp.seq);
    match stamp.stamp {
        Some(id) => {
            write_varint(&mut payload, u64::from(id.publisher.as_u32()) + 1);
            write_varint(&mut payload, id.seq);
        }
        None => {
            write_varint(&mut payload, 0);
            write_varint(&mut payload, 0);
        }
    }
    payload.extend_from_slice(record);
    payload
}

/// Which segment a record belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SegmentId {
    /// The log-shard segment (`wal.<gen>.log`).
    Log,
    /// A participant shard's segment (`wal.<gen>.p<id>.log`).
    Participant(ParticipantId),
}

fn route(record: &WalRecord) -> SegmentId {
    match record {
        WalRecord::CommitReconciliation { participant, .. }
        | WalRecord::Decisions { participant, .. }
        | WalRecord::InstanceCheckpoint { participant, .. } => SegmentId::Participant(*participant),
        // Causal publishes carry their own ordering identity, so they need
        // no log-shard serialisation: they append to the publisher's own
        // segment, which is what lets distinct publishers commit in parallel.
        WalRecord::PublishCausal { stamp, .. } => SegmentId::Participant(stamp.publisher),
        _ => SegmentId::Log,
    }
}

/// A write-ahead log generation split into per-shard segments.
///
/// Appends take `&self`: the shared state (segment map, flush policy) is
/// behind short-lived locks, and the file write happens under the target
/// segment's own mutex — commits on different shards do not serialise on
/// each other.
#[derive(Debug)]
pub struct SegmentedWal {
    dir: PathBuf,
    generation: u64,
    seq: AtomicU64,
    /// Largest epoch ever carried by a publish append; stamps every
    /// non-publish record without touching the log shard's lock.
    epoch_watermark: AtomicU64,
    flush: Mutex<FlushPolicy>,
    log: Arc<Mutex<FrameLog>>,
    shards: Mutex<FxHashMap<u32, Arc<Mutex<FrameLog>>>>,
    /// The sink every current and future segment reports into
    /// (disabled/private by default; see [`SegmentedWal::set_observability`]).
    obs: Mutex<Obs>,
}

impl SegmentedWal {
    /// Creates a fresh, empty generation (truncating any existing log-shard
    /// segment file of the same name).
    pub fn create(dir: &Path, generation: u64) -> Result<Self> {
        std::fs::create_dir_all(dir)
            .map_err(|e| StorageError::Persistence(format!("create {}: {e}", dir.display())))?;
        let log = FrameLog::create(&wal_path(dir, generation))?;
        Ok(SegmentedWal {
            dir: dir.to_path_buf(),
            generation,
            seq: AtomicU64::new(0),
            epoch_watermark: AtomicU64::new(0),
            flush: Mutex::new(FlushPolicy::default()),
            log: Arc::new(Mutex::new(log)),
            shards: Mutex::new(FxHashMap::default()),
            obs: Mutex::new(Obs::disabled()),
        })
    }

    /// Opens every segment of a generation, truncating torn tails, and
    /// returns the manager positioned for appends together with the merged
    /// record sequence in `(epoch, seq)` order — the deterministic replay
    /// order.
    pub fn open(dir: &Path, generation: u64) -> Result<(Self, Vec<WalRecord>)> {
        let mut stamped: Vec<(FrameStamp, WalRecord)> = Vec::new();
        let mut max_seq = 0u64;
        let mut max_epoch = 0u64;
        let mut read_segment = |path: &Path| -> Result<FrameLog> {
            let (log, frames) = FrameLog::open(path)?;
            for frame in &frames {
                let (stamp, record_bytes) = parse_stamp(frame)?;
                let record = WalRecord::decode(record_bytes)?;
                max_seq = max_seq.max(stamp.seq + 1);
                max_epoch = max_epoch.max(stamp.epoch);
                stamped.push((stamp, record));
            }
            Ok(log)
        };
        let log = read_segment(&wal_path(dir, generation))?;
        let mut shards = FxHashMap::default();
        for id in list_shard_segments(dir, generation)? {
            let shard_log = read_segment(&shard_wal_path(dir, generation, id))?;
            shards.insert(id.as_u32(), Arc::new(Mutex::new(shard_log)));
        }
        stamped.sort_by(|(a, _), (b, _)| a.merge_cmp(b));
        let records = stamped.into_iter().map(|(_, record)| record).collect();
        Ok((
            SegmentedWal {
                dir: dir.to_path_buf(),
                generation,
                seq: AtomicU64::new(max_seq),
                epoch_watermark: AtomicU64::new(max_epoch),
                flush: Mutex::new(FlushPolicy::default()),
                log: Arc::new(Mutex::new(log)),
                shards: Mutex::new(shards),
                obs: Mutex::new(Obs::disabled()),
            },
            records,
        ))
    }

    /// [`SegmentedWal::open`] with observability bound from the start: every
    /// segment reports into `obs`, the merged replay is counted under
    /// `wal.replayed_frames`, and a `wal.replay` trace event records it.
    pub fn open_observed(dir: &Path, generation: u64, obs: &Obs) -> Result<(Self, Vec<WalRecord>)> {
        let (wal, records) = SegmentedWal::open(dir, generation)?;
        wal.set_observability(obs);
        obs.metrics.counter("wal.replayed_frames").add(records.len() as u64);
        obs.tracer
            .event("wal.replay", &[("frames", records.len() as u64), ("generation", generation)]);
        Ok((wal, records))
    }

    /// Binds every current and future segment of this generation to a shared
    /// observability sink (see [`FrameLog::set_observability`]).
    pub fn set_observability(&self, obs: &Obs) {
        *self.obs.lock().expect("wal obs lock") = obs.clone();
        let _ = self.for_each_segment(|log| {
            log.set_observability(obs);
            Ok(())
        });
    }

    /// The sink this generation's segments report into.
    pub fn observability(&self) -> Obs {
        self.obs.lock().expect("wal obs lock").clone()
    }

    /// Appends one record to its segment: publishes and other log-shard
    /// records to `wal.<gen>.log`, reconciliation commits and decisions to
    /// the owning participant's segment. The stamp is taken before the write;
    /// the write itself holds only the target segment's mutex.
    ///
    /// A policy registration also creates the participant's segment, so its
    /// commits append to a file that already exists: creating a file is a
    /// file-system metadata operation whose latency swings with the state of
    /// the file system, and it belongs to set-up, not to a reconciliation.
    /// (A segment missing anyway — a directory written before registration
    /// created segments — is created on first use.)
    pub fn append(&self, record: &WalRecord) -> Result<()> {
        let (epoch, causal) = match record {
            WalRecord::Publish { epoch, .. } => {
                self.epoch_watermark.fetch_max(epoch.as_u64(), Ordering::SeqCst);
                (epoch.as_u64(), None)
            }
            WalRecord::PublishCausal { epoch, stamp, .. } => {
                self.epoch_watermark.fetch_max(epoch.as_u64(), Ordering::SeqCst);
                (epoch.as_u64(), Some(stamp.id()))
            }
            _ => (self.epoch_watermark.load(Ordering::SeqCst), None),
        };
        let seq = self.seq.fetch_add(1, Ordering::SeqCst);
        let payload = stamp_payload(FrameStamp { epoch, seq, stamp: causal }, &record.encode());
        let segment = match route(record) {
            SegmentId::Participant(p) => self.shard_segment(p)?,
            SegmentId::Log => Arc::clone(&self.log),
        };
        segment.lock().expect("segment lock").append(&payload)?;
        if let WalRecord::RegisterPolicy { policy } = record {
            self.shard_segment(policy.owner())?;
        }
        Ok(())
    }

    /// Starts the next generation in the same directory: a fresh log-shard
    /// segment and an empty segment for every participant that has one in
    /// this generation, under this generation's flush policy and
    /// observability sink — so a snapshot, not the first commit after it,
    /// creates the files. Retiring this generation's files is the caller's
    /// ([`delete_generation`]).
    pub fn next_generation(&self) -> Result<SegmentedWal> {
        let next = SegmentedWal::create(&self.dir, self.generation + 1)?;
        next.set_flush_policy(self.flush_policy());
        next.set_observability(&self.observability());
        let participants: Vec<u32> =
            self.shards.lock().expect("shard segment map lock").keys().copied().collect();
        for id in participants {
            next.shard_segment(ParticipantId(id))?;
        }
        Ok(next)
    }

    /// The segment of a participant shard, created (empty, with the current
    /// flush policy) on first use.
    fn shard_segment(&self, participant: ParticipantId) -> Result<Arc<Mutex<FrameLog>>> {
        let mut shards = self.shards.lock().expect("shard segment map lock");
        if let Some(segment) = shards.get(&participant.as_u32()) {
            return Ok(Arc::clone(segment));
        }
        let mut log = FrameLog::create(&shard_wal_path(&self.dir, self.generation, participant))?;
        log.set_flush_policy(*self.flush.lock().expect("flush policy lock"));
        log.set_observability(&self.obs.lock().expect("wal obs lock"));
        let segment = Arc::new(Mutex::new(log));
        shards.insert(participant.as_u32(), Arc::clone(&segment));
        Ok(segment)
    }

    fn for_each_segment<T>(&self, mut f: impl FnMut(&mut FrameLog) -> Result<T>) -> Result<Vec<T>> {
        let mut segments = vec![Arc::clone(&self.log)];
        segments.extend(self.shards.lock().expect("shard segment map lock").values().cloned());
        let mut out = Vec::with_capacity(segments.len());
        for segment in segments {
            out.push(f(&mut segment.lock().expect("segment lock"))?);
        }
        Ok(out)
    }

    /// Flushes every segment to stable storage.
    pub fn sync(&self) -> Result<()> {
        self.for_each_segment(|log| log.sync())?;
        Ok(())
    }

    /// Sets when appends `fsync`, on every current and future segment.
    pub fn set_flush_policy(&self, policy: FlushPolicy) {
        *self.flush.lock().expect("flush policy lock") = policy;
        let _ = self.for_each_segment(|log| {
            log.set_flush_policy(policy);
            Ok(())
        });
    }

    /// The flush policy new appends run under.
    pub fn flush_policy(&self) -> FlushPolicy {
        *self.flush.lock().expect("flush policy lock")
    }

    /// Records in this generation, across all segments.
    pub fn records(&self) -> u64 {
        self.for_each_segment(|log| Ok(log.records())).map(|v| v.iter().sum()).unwrap_or(0)
    }

    /// Bytes in this generation, across all segments.
    pub fn bytes(&self) -> u64 {
        self.for_each_segment(|log| Ok(log.bytes())).map(|v| v.iter().sum()).unwrap_or(0)
    }

    /// Records appended since the last `fsync`, across all segments.
    pub fn unsynced_records(&self) -> u64 {
        self.for_each_segment(|log| Ok(log.unsynced_records())).map(|v| v.iter().sum()).unwrap_or(0)
    }

    /// Number of live segments (1 log shard + participant shards).
    pub fn segment_count(&self) -> usize {
        1 + self.shards.lock().expect("shard segment map lock").len()
    }

    /// The generation this manager appends to.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The directory holding the segments.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

/// Participant ids with a shard segment on disk for this generation, in
/// ascending order.
pub fn list_shard_segments(dir: &Path, generation: u64) -> Result<Vec<ParticipantId>> {
    let mut ids = Vec::new();
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(ids),
        Err(e) => return Err(StorageError::Persistence(format!("read {}: {e}", dir.display()))),
    };
    let prefix = format!("wal.{generation}.p");
    for entry in entries {
        let entry =
            entry.map_err(|e| StorageError::Persistence(format!("read {}: {e}", dir.display())))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(id) = name
            .strip_prefix(&prefix)
            .and_then(|rest| rest.strip_suffix(".log"))
            .and_then(|digits| digits.parse::<u32>().ok())
        {
            ids.push(ParticipantId(id));
        }
    }
    ids.sort();
    Ok(ids)
}

/// Deletes every segment file of a generation (used after a snapshot has
/// superseded it). Missing files are fine; other I/O errors are reported.
pub fn delete_generation(dir: &Path, generation: u64) -> Result<()> {
    let mut paths = vec![wal_path(dir, generation)];
    for id in list_shard_segments(dir, generation)? {
        paths.push(shard_wal_path(dir, generation, id));
    }
    for path in paths {
        match std::fs::remove_file(&path) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => {
                return Err(StorageError::Persistence(format!("remove {}: {e}", path.display())))
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use orchestra_model::{Epoch, ReconciliationId, TransactionId};

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("orchestra-segment-test-{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn publish(p: u32, epoch: u64) -> WalRecord {
        WalRecord::Publish {
            participant: ParticipantId(p),
            epoch: Epoch(epoch),
            transactions: vec![],
        }
    }

    fn commit(p: u32, recno: u64, epoch: u64) -> WalRecord {
        WalRecord::CommitReconciliation {
            participant: ParticipantId(p),
            recno: ReconciliationId(recno),
            epoch: Epoch(epoch),
            accepted: vec![TransactionId::new(ParticipantId(p), recno)],
            rejected: vec![],
        }
    }

    #[test]
    fn stamps_round_trip() {
        let bare = FrameStamp { epoch: 300, seq: 7, stamp: None };
        let payload = stamp_payload(bare, b"record");
        let (stamp, rest) = parse_stamp(&payload).unwrap();
        assert_eq!(stamp, bare);
        assert_eq!(rest, b"record");
        let causal =
            FrameStamp { epoch: 2, seq: 9, stamp: Some(StampId::new(ParticipantId(4), 3)) };
        let payload = stamp_payload(causal, b"x");
        let (stamp, rest) = parse_stamp(&payload).unwrap();
        assert_eq!(stamp, causal);
        assert_eq!(rest, b"x");
        assert!(parse_stamp(&[0x80]).is_err());
    }

    #[test]
    fn merge_cmp_breaks_ties_causally_and_deterministically() {
        let base = FrameStamp { epoch: 3, seq: 5, stamp: None };
        let a = FrameStamp { epoch: 3, seq: 5, stamp: Some(StampId::new(ParticipantId(1), 4)) };
        let b = FrameStamp { epoch: 3, seq: 5, stamp: Some(StampId::new(ParticipantId(2), 9)) };
        // Epoch, then seq, dominate.
        assert!(FrameStamp { epoch: 2, seq: 9, stamp: None }.merge_cmp(&base).is_lt());
        assert!(FrameStamp { epoch: 3, seq: 4, stamp: None }.merge_cmp(&base).is_lt());
        // On a full collision the deeper chain wins, stamped before
        // stampless, and the order is antisymmetric.
        assert!(b.merge_cmp(&a).is_lt());
        assert!(a.merge_cmp(&b).is_gt());
        assert!(a.merge_cmp(&base).is_lt());
        assert!(base.merge_cmp(&a).is_gt());
        assert!(base.merge_cmp(&base).is_eq());
    }

    #[test]
    fn causal_publishes_route_to_the_publisher_segment() {
        let dir = tmp_dir("causal-routing");
        let wal = SegmentedWal::create(&dir, 0).unwrap();
        let stamp = orchestra_model::CausalStamp::new(
            ParticipantId(3),
            1,
            orchestra_model::AntichainClock::new(),
        );
        let record = WalRecord::PublishCausal { epoch: Epoch(1), stamp, transactions: vec![] };
        wal.append(&record).unwrap();
        assert!(dir.join("wal.0.p3.log").exists());
        drop(wal);
        let (_, replay) = SegmentedWal::open(&dir, 0).unwrap();
        assert_eq!(replay, vec![record]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn records_route_to_their_shard_segment() {
        let dir = tmp_dir("routing");
        let wal = SegmentedWal::create(&dir, 0).unwrap();
        wal.append(&publish(1, 1)).unwrap();
        wal.append(&commit(1, 1, 1)).unwrap();
        wal.append(&commit(2, 1, 1)).unwrap();
        wal.append(&WalRecord::Prune { horizon: Epoch(0) }).unwrap();
        assert_eq!(wal.segment_count(), 3);
        assert_eq!(wal.records(), 4);
        assert!(dir.join("wal.0.log").exists());
        assert!(dir.join("wal.0.p1.log").exists());
        assert!(dir.join("wal.0.p2.log").exists());
        assert_eq!(list_shard_segments(&dir, 0).unwrap(), vec![ParticipantId(1), ParticipantId(2)]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn registration_and_the_next_generation_create_the_participant_segments() {
        let dir = tmp_dir("registration");
        let wal = SegmentedWal::create(&dir, 0).unwrap();
        let register = WalRecord::RegisterPolicy {
            policy: orchestra_model::TrustPolicy::new(ParticipantId(5)),
        };
        wal.append(&register).unwrap();
        // The record lands in the log shard; the segment exists, empty.
        assert!(dir.join("wal.0.p5.log").exists());
        assert_eq!(wal.segment_count(), 2);
        assert_eq!(wal.records(), 1);
        wal.set_flush_policy(FlushPolicy::EveryAppend);

        let next = wal.next_generation().unwrap();
        assert_eq!(next.generation(), 1);
        assert_eq!(next.segment_count(), 2);
        assert_eq!(next.records(), 0);
        assert!(dir.join("wal.1.log").exists());
        assert!(dir.join("wal.1.p5.log").exists());
        // The flush policy came along, for the segment made ahead of use.
        assert_eq!(next.flush_policy(), FlushPolicy::EveryAppend);
        next.append(&commit(5, 1, 0)).unwrap();
        assert_eq!(next.unsynced_records(), 0);
        drop((wal, next));
        let (_, replay) = SegmentedWal::open(&dir, 0).unwrap();
        assert_eq!(replay, vec![register]);
        let (_, replay) = SegmentedWal::open(&dir, 1).unwrap();
        assert_eq!(replay, vec![commit(5, 1, 0)]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn merged_open_replays_in_stamp_order() {
        let records = vec![
            publish(1, 1),
            commit(2, 1, 1),
            publish(3, 2),
            commit(2, 2, 2),
            commit(4, 1, 2),
            WalRecord::MembershipFrontier { epoch: Epoch(2) },
        ];
        let dir = tmp_dir("merge");
        let wal = SegmentedWal::create(&dir, 0).unwrap();
        for record in &records {
            wal.append(record).unwrap();
        }
        assert_eq!(wal.segment_count(), 3);
        drop(wal);
        let (reopened, replay) = SegmentedWal::open(&dir, 0).unwrap();
        assert_eq!(replay, records);
        assert_eq!(reopened.records(), records.len() as u64);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn appends_continue_after_reopen_without_stamp_collisions() {
        let dir = tmp_dir("reopen");
        {
            let wal = SegmentedWal::create(&dir, 0).unwrap();
            wal.append(&publish(1, 1)).unwrap();
            wal.append(&commit(2, 1, 1)).unwrap();
        }
        let (wal, replay) = SegmentedWal::open(&dir, 0).unwrap();
        assert_eq!(replay.len(), 2);
        wal.append(&commit(2, 2, 1)).unwrap();
        wal.append(&publish(1, 2)).unwrap();
        drop(wal);
        let (_, replay) = SegmentedWal::open(&dir, 0).unwrap();
        assert_eq!(replay, vec![publish(1, 1), commit(2, 1, 1), commit(2, 2, 1), publish(1, 2)]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_in_one_segment_does_not_hurt_the_others() {
        let dir = tmp_dir("torn");
        {
            let wal = SegmentedWal::create(&dir, 0).unwrap();
            wal.append(&publish(1, 1)).unwrap();
            wal.append(&commit(2, 1, 1)).unwrap();
            wal.append(&commit(2, 2, 1)).unwrap();
        }
        // Tear the tail of participant 2's segment mid-frame.
        let shard = dir.join("wal.0.p2.log");
        let bytes = std::fs::read(&shard).unwrap();
        std::fs::write(&shard, &bytes[..bytes.len() - 3]).unwrap();
        let (wal, replay) = SegmentedWal::open(&dir, 0).unwrap();
        assert_eq!(replay, vec![publish(1, 1), commit(2, 1, 1)]);
        assert_eq!(wal.records(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn delete_generation_removes_all_segments() {
        let dir = tmp_dir("delete");
        let wal = SegmentedWal::create(&dir, 4).unwrap();
        wal.append(&commit(1, 1, 0)).unwrap();
        wal.append(&commit(2, 1, 0)).unwrap();
        drop(wal);
        delete_generation(&dir, 4).unwrap();
        assert!(std::fs::read_dir(&dir).unwrap().next().is_none());
        // Deleting again is a no-op.
        delete_generation(&dir, 4).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flush_policy_reaches_every_segment() {
        let dir = tmp_dir("flush");
        let wal = SegmentedWal::create(&dir, 0).unwrap();
        wal.set_flush_policy(FlushPolicy::EveryN(10));
        wal.append(&commit(1, 1, 0)).unwrap();
        assert_eq!(wal.flush_policy(), FlushPolicy::EveryN(10));
        assert_eq!(wal.unsynced_records(), 1);
        wal.sync().unwrap();
        assert_eq!(wal.unsynced_records(), 0);
        // A shard created after the policy was set inherits it.
        wal.append(&commit(2, 1, 0)).unwrap();
        assert_eq!(wal.unsynced_records(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn observability_reaches_every_segment_including_lazy_shards() {
        let dir = tmp_dir("observed");
        let obs = Obs::enabled();
        {
            let wal = SegmentedWal::create(&dir, 0).unwrap();
            wal.set_observability(&obs);
            wal.append(&publish(1, 1)).unwrap();
            // A shard segment created after the bind inherits the sink.
            wal.append(&commit(2, 1, 1)).unwrap();
            wal.sync().unwrap();
        }
        assert_eq!(obs.metrics.counter("wal.appends").get(), 2);
        assert!(obs.metrics.counter("wal.append_bytes").get() > 0);
        // One sync per live segment (log shard + participant 2's shard).
        assert_eq!(obs.metrics.counter("wal.syncs").get(), 2);

        // Observed reopen counts the merged replay once.
        let (wal, replay) = SegmentedWal::open_observed(&dir, 0, &obs).unwrap();
        assert_eq!(replay.len(), 2);
        assert_eq!(obs.metrics.counter("wal.replayed_frames").get(), 2);
        assert!(wal.observability().tracer.is_enabled());
        assert!(obs.tracer.export().contains("wal.replay\tframes=2"));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A sync flushes the segments written since the last one, a freshly
    /// created empty segment included, and skips the rest.
    #[test]
    fn a_sync_skips_the_segments_with_nothing_new() {
        let dir = tmp_dir("clean-sync");
        let obs = Obs::enabled();
        let syncs = obs.metrics.counter("wal.syncs");
        let wal = SegmentedWal::create(&dir, 0).unwrap();
        wal.set_observability(&obs);
        wal.append(&commit(1, 1, 0)).unwrap();
        wal.sync().unwrap();
        assert_eq!(syncs.get(), 2, "the created log segment and participant 1's");

        wal.append(&publish(2, 1)).unwrap();
        wal.append(&commit(2, 1, 1)).unwrap();
        wal.shard_segment(ParticipantId(3)).unwrap();
        assert_eq!(wal.segment_count(), 4);
        wal.sync().unwrap();
        assert_eq!(syncs.get(), 5, "the log, participant 2 and participant 3; not participant 1");
        assert_eq!(wal.unsynced_records(), 0);

        wal.sync().unwrap();
        assert_eq!(syncs.get(), 5, "nothing was written since");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parallel_appends_on_distinct_shards_interleave_safely() {
        let dir = tmp_dir("parallel");
        let wal = std::sync::Arc::new(SegmentedWal::create(&dir, 0).unwrap());
        let threads: Vec<_> = (1..=4u32)
            .map(|p| {
                let wal = std::sync::Arc::clone(&wal);
                std::thread::spawn(move || {
                    for i in 0..50 {
                        wal.append(&commit(p, i, 0)).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(wal.records(), 200);
        drop(wal);
        let (_, replay) = SegmentedWal::open(&dir, 0).unwrap();
        assert_eq!(replay.len(), 200);
        // Per-shard order is preserved within the merged order.
        for p in 1..=4u32 {
            let recnos: Vec<u64> = replay
                .iter()
                .filter_map(|r| match r {
                    WalRecord::CommitReconciliation { participant, recno, .. }
                        if participant.as_u32() == p =>
                    {
                        Some(recno.0)
                    }
                    _ => None,
                })
                .collect();
            assert_eq!(recnos, (0..50).collect::<Vec<_>>());
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
