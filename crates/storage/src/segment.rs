//! One WAL file per generation, with stamped frames and a deterministic
//! replay order.
//!
//! A WAL *generation* is the single append-only file `wal.<gen>.log` in the
//! durability directory. Every record of the generation — `Init`, policy
//! registrations, publishes (scalar and causal), reconciliation commits,
//! decisions, instance checkpoints and the retention records — appends to it
//! through one [`FrameLog`]. A round boundary therefore makes the whole store
//! durable with one `fdatasync`, a snapshot creates one file and deletes one,
//! and recovery opens one.
//!
//! The file's mutex is a leaf lock: an append takes it while the catalogue
//! holds the lock guarding the state the record describes, and takes no
//! other lock under it. Group commit ([`FlushPolicy`]) applies to the file.
//!
//! # Stamps and the replay order
//!
//! Every frame payload carries a stamp ahead of the record bytes:
//!
//! ```text
//! varint(epoch) | varint(seq) | varint(publisher+1) | varint(pubseq) | record
//! ```
//!
//! `seq` comes from one atomic counter, so it is unique and any two appends
//! ordered by happens-before (through the catalogue's lock order) get
//! increasing values. `epoch` is the generation's *epoch watermark*:
//! publishes (scalar and causal) raise it to their own arrival epoch, every
//! other record reads it. The watermark is monotone, and a record's stamp
//! dominates the stamps of every record it causally depends on — a
//! reconciliation pinned to epoch `e` is only possible after the publishes
//! through `e` were appended, so its stamp epoch is `≥ e` and its `seq`
//! larger than theirs.
//!
//! The last two varints carry the *causal* identity of a causal-mode publish
//! (`publisher + 1` so that `0` means "no causal stamp", `pubseq` its
//! per-publisher sequence). Recovery replays the file's records sorted by
//! `(epoch, seq)` with ties broken by the deterministic causal tie-break
//! ([`StampId::tie_break`]: deeper per-publisher chain first, then the
//! smaller publisher). The stamp is taken before the file's mutex, so two
//! concurrent appends may reach the file out of `seq` order; the sort puts
//! them back. Within one manager's lifetime `seq` never collides, so the
//! tie-break only decides between frames written by independent sequencers
//! — and it decides them identically on every replica.

use crate::codec::{read_varint, write_varint};
use crate::error::{Result, StorageError};
use crate::snapshot::wal_path;
use crate::wal::{FlushPolicy, FrameLog, WalRecord};
use orchestra_model::{ParticipantId, StampId};
use orchestra_obs::Obs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

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

/// A write-ahead log generation: the one file `wal.<gen>.log` of stamped
/// frames.
///
/// Appends take `&self`: the stamp comes from atomics, and the file write
/// holds only the file's own (leaf) mutex.
#[derive(Debug)]
pub struct SegmentedWal {
    dir: PathBuf,
    generation: u64,
    seq: AtomicU64,
    /// Largest epoch ever carried by a publish append; stamps every
    /// non-publish record without touching the log shard's lock.
    epoch_watermark: AtomicU64,
    /// Boxed so the durability enum that holds a generation stays small.
    log: Box<Mutex<FrameLog>>,
    /// The sink the file reports into, carried over to the next generation
    /// (disabled by default; see [`SegmentedWal::set_observability`]).
    obs: Mutex<Obs>,
}

impl SegmentedWal {
    fn with_log(dir: &Path, generation: u64, log: FrameLog, seq: u64, epoch: u64) -> Self {
        SegmentedWal {
            dir: dir.to_path_buf(),
            generation,
            seq: AtomicU64::new(seq),
            epoch_watermark: AtomicU64::new(epoch),
            log: Box::new(Mutex::new(log)),
            obs: Mutex::new(Obs::disabled()),
        }
    }

    /// Creates a fresh, empty generation (truncating any existing file of
    /// the same name).
    pub fn create(dir: &Path, generation: u64) -> Result<Self> {
        std::fs::create_dir_all(dir)
            .map_err(|e| StorageError::Persistence(format!("create {}: {e}", dir.display())))?;
        let log = FrameLog::create(&wal_path(dir, generation))?;
        Ok(SegmentedWal::with_log(dir, generation, log, 0, 0))
    }

    /// Opens a generation's file, truncating a torn tail, and returns the
    /// manager positioned for appends together with the records in
    /// `(epoch, seq)` order — the deterministic replay order.
    pub fn open(dir: &Path, generation: u64) -> Result<(Self, Vec<WalRecord>)> {
        let (log, frames) = FrameLog::open(&wal_path(dir, generation))?;
        let mut stamped = Vec::with_capacity(frames.len());
        let mut max_seq = 0u64;
        let mut max_epoch = 0u64;
        for frame in &frames {
            let (stamp, record_bytes) = parse_stamp(frame)?;
            max_seq = max_seq.max(stamp.seq + 1);
            max_epoch = max_epoch.max(stamp.epoch);
            stamped.push((stamp, WalRecord::decode(record_bytes)?));
        }
        stamped.sort_by(|(a, _), (b, _)| a.merge_cmp(b));
        let records = stamped.into_iter().map(|(_, record)| record).collect();
        Ok((SegmentedWal::with_log(dir, generation, log, max_seq, max_epoch), records))
    }

    /// [`SegmentedWal::open`] with observability bound from the start: the
    /// file reports into `obs`, the replay is counted under
    /// `wal.replayed_frames`, and a `wal.replay` trace event records it.
    pub fn open_observed(dir: &Path, generation: u64, obs: &Obs) -> Result<(Self, Vec<WalRecord>)> {
        let (wal, records) = SegmentedWal::open(dir, generation)?;
        wal.set_observability(obs);
        obs.metrics.counter("wal.replayed_frames").add(records.len() as u64);
        obs.tracer
            .event("wal.replay", &[("frames", records.len() as u64), ("generation", generation)]);
        Ok((wal, records))
    }

    /// Binds this generation's file, and the generations started from it,
    /// to a shared observability sink (see [`FrameLog::set_observability`]).
    pub fn set_observability(&self, obs: &Obs) {
        *self.obs.lock().expect("wal obs lock") = obs.clone();
        self.log.lock().expect("wal file lock").set_observability(obs);
    }

    /// The sink this generation's file reports into.
    pub fn observability(&self) -> Obs {
        self.obs.lock().expect("wal obs lock").clone()
    }

    /// Appends one stamped record to the generation's file. The stamp is
    /// taken before the write; the write itself holds only the file's mutex.
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
        self.log.lock().expect("wal file lock").append(&payload)
    }

    /// Starts the next generation in the same directory: a fresh file under
    /// this generation's flush policy and observability sink. Retiring this
    /// generation's file is the caller's ([`delete_generation`]).
    pub fn next_generation(&self) -> Result<SegmentedWal> {
        let next = SegmentedWal::create(&self.dir, self.generation + 1)?;
        next.set_flush_policy(self.flush_policy());
        next.set_observability(&self.observability());
        Ok(next)
    }

    /// Flushes the generation's file to stable storage: one `fdatasync`, or
    /// none if nothing was written since the last one.
    pub fn sync(&self) -> Result<()> {
        self.log.lock().expect("wal file lock").sync()
    }

    /// Sets when appends `fsync`.
    pub fn set_flush_policy(&self, policy: FlushPolicy) {
        self.log.lock().expect("wal file lock").set_flush_policy(policy);
    }

    /// The flush policy appends run under.
    pub fn flush_policy(&self) -> FlushPolicy {
        self.log.lock().expect("wal file lock").flush_policy()
    }

    /// Records in this generation.
    pub fn records(&self) -> u64 {
        self.log.lock().expect("wal file lock").records()
    }

    /// Bytes in this generation.
    pub fn bytes(&self) -> u64 {
        self.log.lock().expect("wal file lock").bytes()
    }

    /// Records appended since the last `fsync`.
    pub fn unsynced_records(&self) -> u64 {
        self.log.lock().expect("wal file lock").unsynced_records()
    }

    /// The generation this manager appends to.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The directory holding the generation's file.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

/// Deletes a generation's file (used after a snapshot has superseded it). A
/// missing file is fine; other I/O errors are reported.
pub fn delete_generation(dir: &Path, generation: u64) -> Result<()> {
    let path = wal_path(dir, generation);
    match std::fs::remove_file(&path) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            Err(StorageError::Persistence(format!("remove {}: {e}", path.display())))
        }
        _ => Ok(()),
    }
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

    /// The file names in a directory, sorted.
    fn files(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
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
    fn merged_open_replays_in_stamp_order() {
        let causal = WalRecord::PublishCausal {
            epoch: Epoch(3),
            stamp: orchestra_model::CausalStamp::new(
                ParticipantId(3),
                1,
                orchestra_model::AntichainClock::new(),
            ),
            transactions: vec![],
        };
        let records = vec![
            publish(1, 1),
            commit(2, 1, 1),
            publish(3, 2),
            commit(2, 2, 2),
            commit(4, 1, 2),
            WalRecord::MembershipFrontier { epoch: Epoch(2) },
            causal,
        ];
        let dir = tmp_dir("merge");
        let wal = SegmentedWal::create(&dir, 0).unwrap();
        for record in &records {
            wal.append(record).unwrap();
        }
        drop(wal);
        assert_eq!(files(&dir), ["wal.0.log"]);
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

    /// A crash mid-append tears the one file's last frame; reopening keeps
    /// every record before it, from every participant.
    #[test]
    fn torn_tail_in_one_segment_does_not_hurt_the_others() {
        let dir = tmp_dir("torn");
        {
            let wal = SegmentedWal::create(&dir, 0).unwrap();
            wal.append(&publish(1, 1)).unwrap();
            wal.append(&commit(2, 1, 1)).unwrap();
            wal.append(&commit(3, 1, 1)).unwrap();
            wal.append(&commit(2, 2, 1)).unwrap();
        }
        let file = dir.join("wal.0.log");
        let bytes = std::fs::read(&file).unwrap();
        std::fs::write(&file, &bytes[..bytes.len() - 3]).unwrap();
        let (wal, replay) = SegmentedWal::open(&dir, 0).unwrap();
        assert_eq!(replay, vec![publish(1, 1), commit(2, 1, 1), commit(3, 1, 1)]);
        assert_eq!(wal.records(), 3);
        // The writer resumes at the end of the last intact frame.
        wal.append(&commit(2, 2, 1)).unwrap();
        drop(wal);
        let (_, replay) = SegmentedWal::open(&dir, 0).unwrap();
        assert_eq!(replay.len(), 4);
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
        assert!(files(&dir).is_empty());
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
        wal.append(&commit(2, 1, 0)).unwrap();
        assert_eq!(wal.flush_policy(), FlushPolicy::EveryN(10));
        assert_eq!(wal.unsynced_records(), 2);
        wal.sync().unwrap();
        assert_eq!(wal.unsynced_records(), 0);
        // The next generation inherits the policy.
        wal.set_flush_policy(FlushPolicy::EveryAppend);
        let next = wal.next_generation().unwrap();
        assert_eq!(next.generation(), 1);
        assert_eq!(next.flush_policy(), FlushPolicy::EveryAppend);
        next.append(&commit(1, 2, 0)).unwrap();
        assert_eq!(next.unsynced_records(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn observability_reaches_the_generation_file_and_the_next() {
        let dir = tmp_dir("observed");
        let obs = Obs::enabled();
        let syncs = obs.metrics.counter("wal.syncs");
        {
            let wal = SegmentedWal::create(&dir, 0).unwrap();
            wal.set_observability(&obs);
            wal.append(&publish(1, 1)).unwrap();
            wal.append(&commit(2, 1, 1)).unwrap();
            wal.sync().unwrap();
            assert_eq!(syncs.get(), 1);
            // The next generation reports into the same sink.
            let next = wal.next_generation().unwrap();
            next.append(&commit(2, 2, 1)).unwrap();
            next.sync().unwrap();
            assert_eq!(syncs.get(), 2);
        }
        assert_eq!(obs.metrics.counter("wal.appends").get(), 3);
        assert!(obs.metrics.counter("wal.append_bytes").get() > 0);

        // Observed reopen counts the replay once.
        let (wal, replay) = SegmentedWal::open_observed(&dir, 0, &obs).unwrap();
        assert_eq!(replay.len(), 2);
        assert_eq!(obs.metrics.counter("wal.replayed_frames").get(), 2);
        assert!(wal.observability().tracer.is_enabled());
        assert!(obs.tracer.export().contains("wal.replay\tframes=2"));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// However many participants wrote since the last sync, a round boundary
    /// is one `fdatasync`; a sync with nothing new is none.
    #[test]
    fn one_sync_covers_every_participants_records() {
        let dir = tmp_dir("one-sync");
        let obs = Obs::enabled();
        let syncs = obs.metrics.counter("wal.syncs");
        let wal = SegmentedWal::create(&dir, 0).unwrap();
        wal.set_observability(&obs);
        wal.sync().unwrap();
        let participants = 8u32;
        for p in 1..=participants {
            let policy = orchestra_model::TrustPolicy::new(ParticipantId(p));
            wal.append(&WalRecord::RegisterPolicy { policy }).unwrap();
        }
        for p in 1..=participants {
            wal.append(&publish(p, u64::from(p))).unwrap();
        }
        for p in 1..=participants {
            wal.append(&commit(p, 1, u64::from(participants))).unwrap();
        }
        let before = syncs.get();
        wal.sync().unwrap();
        assert_eq!(syncs.get(), before + 1, "one fdatasync for {participants} participants");
        assert_eq!(wal.unsynced_records(), 0);
        wal.sync().unwrap();
        assert_eq!(syncs.get(), before + 1, "nothing was written since");
        assert_eq!(files(&dir), ["wal.0.log"]);
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
        assert_eq!(files(&dir), ["wal.0.log"]);
        let (_, replay) = SegmentedWal::open(&dir, 0).unwrap();
        assert_eq!(replay.len(), 200);
        // Each thread's records replay in its append order.
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
