//! The write side of a durability directory: one WAL file per generation,
//! behind one lock.
//!
//! A WAL *generation* is the single append-only file `wal.<gen>.log` in the
//! durability directory. Every record of the generation — `Init`, policy
//! registrations, publishes (scalar and causal), reconciliation commits,
//! decisions and the retention records — appends to it through one
//! [`FrameLog`]. A round boundary therefore makes the whole store
//! durable with one `fdatasync`, a snapshot creates one file and deletes one,
//! and recovery opens one.
//!
//! [`FileWalBackend`] holds the generation — its file, its number, its
//! append counter, its epoch watermark and its observability sink — behind
//! one mutex, and that mutex is a leaf lock: an append takes it while the
//! store catalogue holds the lock guarding the state the record describes,
//! and takes no other lock under it. Two records whose states depend on
//! each other are therefore appended in dependency order, and **file order is
//! the replay order**: recovery applies the records exactly as it reads them.
//!
//! # Stamps
//!
//! Every frame payload carries a stamp ahead of the record bytes:
//!
//! ```text
//! varint(epoch) | varint(seq) | varint(publisher+1) | varint(pubseq) | record
//! ```
//!
//! `seq` counts the generation's appends and `epoch` is its *epoch
//! watermark*: publishes (scalar and causal) raise it to their own arrival
//! epoch, every other record reads it. Both are taken under the generation's
//! mutex, so `seq` strictly increases in file order. The last two varints
//! carry the causal identity of a causal-mode publish (`publisher + 1` so
//! that `0` means "no causal stamp", `pubseq` its per-publisher sequence).
//! Replay does not read the stamp; it is there for inspection (`wal_dump`).

use crate::codec::{read_varint, write_varint};
use crate::error::{Result, StorageError};
use crate::snapshot::{self, wal_path, StoreSnapshot};
use crate::wal::{FlushPolicy, FrameLog, WalRecord};
use orchestra_model::{ParticipantId, Schema, StampId};
use orchestra_obs::Obs;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

/// The stamp carried ahead of every frame payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameStamp {
    /// The epoch watermark at append time (a publish's own arrival epoch).
    pub epoch: u64,
    /// The generation's append sequence.
    pub seq: u64,
    /// The causal identity of a causal-mode publish (`None` for scalar-mode
    /// and non-publish records).
    pub stamp: Option<StampId>,
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

/// One WAL generation: everything an append reads or writes.
#[derive(Debug)]
struct Generation {
    log: FrameLog,
    number: u64,
    /// The next append's `seq`.
    seq: u64,
    /// Largest epoch carried by a publish appended to this generation.
    epoch: u64,
    /// The sink the file reports into, carried over to the next generation.
    obs: Obs,
}

impl Generation {
    fn create(dir: &Path, number: u64, obs: Obs) -> Result<Generation> {
        let mut log = FrameLog::create(&wal_path(dir, number))?;
        log.set_observability(&obs);
        Ok(Generation { log, number, seq: 0, epoch: 0, obs })
    }
}

/// The write side of a file-backed durability directory: the current WAL
/// generation behind one mutex.
///
/// A durability directory holds two files: `wal.<generation>.log`, every
/// record of the current generation, and `snapshot.orc`, the most recent
/// compacting [`StoreSnapshot`], which names the generation that continues
/// after it. The store catalogue (`orchestra_store::StoreCatalog`) appends
/// through this type and recovers with [`FileWalBackend::open`].
#[derive(Debug)]
pub struct FileWalBackend {
    dir: PathBuf,
    wal: Mutex<Generation>,
}

impl FileWalBackend {
    /// Starts a *fresh* durability directory for a new store: creates the
    /// directory, refuses to clobber existing durable state (recover that
    /// instead), and writes the [`WalRecord::Init`] record pinning the
    /// schema, then syncs the directory so the new file's name is durable.
    pub fn create(dir: &Path, schema: &Schema) -> Result<Self> {
        std::fs::create_dir_all(dir)
            .map_err(|e| StorageError::Persistence(format!("create {}: {e}", dir.display())))?;
        if snapshot::snapshot_path(dir).exists() {
            return Err(StorageError::Persistence(format!(
                "{} already holds a snapshot; recover the existing store instead",
                dir.display()
            )));
        }
        let wal_file = wal_path(dir, 0);
        if wal_file.exists() && std::fs::metadata(&wal_file).map(|m| m.len()).unwrap_or(0) > 0 {
            return Err(StorageError::Persistence(format!(
                "{} already holds a WAL; recover the existing store instead",
                dir.display()
            )));
        }
        let backend = FileWalBackend {
            dir: dir.to_path_buf(),
            wal: Mutex::new(Generation::create(dir, 0, Obs::disabled())?),
        };
        backend.append(&WalRecord::Init { schema: schema.clone() })?;
        snapshot::sync_dir(dir)?;
        Ok(backend)
    }

    /// Opens a generation's file for recovery, truncating a torn tail, and
    /// returns the backend positioned for appends together with the records
    /// in file order — the replay order.
    pub fn open(dir: &Path, generation: u64) -> Result<(Self, Vec<WalRecord>)> {
        let (log, frames) = FrameLog::open(&wal_path(dir, generation))?;
        let mut records = Vec::with_capacity(frames.len());
        let (mut seq, mut epoch) = (0, 0);
        for frame in &frames {
            let (stamp, record_bytes) = parse_stamp(frame)?;
            seq = stamp.seq + 1;
            epoch = epoch.max(stamp.epoch);
            records.push(WalRecord::decode(record_bytes)?);
        }
        let generation = Generation { log, number: generation, seq, epoch, obs: Obs::disabled() };
        Ok((FileWalBackend { dir: dir.to_path_buf(), wal: Mutex::new(generation) }, records))
    }

    fn lock(&self) -> MutexGuard<'_, Generation> {
        self.wal.lock().expect("wal lock")
    }

    /// The durability directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The current WAL generation.
    pub fn generation(&self) -> u64 {
        self.lock().number
    }

    /// Number of WAL files in the current generation: always 1. Kept because
    /// `examples/benchmark` reports it (`storage.segments`).
    pub fn segment_count(&self) -> usize {
        1
    }

    /// Binds the WAL — current and future generations — to a shared
    /// observability sink: appends and syncs count under the `wal.*`
    /// metrics, and snapshot installs emit a `snapshot.install` trace event
    /// plus the `snapshot.installs` counter.
    pub fn set_observability(&self, obs: &Obs) {
        let mut wal = self.lock();
        wal.obs = obs.clone();
        wal.log.set_observability(obs);
    }

    /// Accepts the one [`FlushPolicy`] there is and changes nothing: appends
    /// reach the operating system, and [`FileWalBackend::sync`] makes them
    /// durable. Kept only because `examples/benchmark` calls it; the next
    /// change to the benchmark removes both.
    pub fn set_flush_policy(&self, _policy: FlushPolicy) {}

    /// Records appended since the WAL's last `fsync`.
    pub fn unsynced_records(&self) -> u64 {
        self.lock().log.unsynced_records()
    }

    /// Records appended to the current generation (including the `Init`
    /// record on generation 0).
    pub fn wal_records(&self) -> u64 {
        self.lock().log.records()
    }

    /// Bytes in the current generation.
    pub fn wal_bytes(&self) -> u64 {
        self.lock().log.bytes()
    }

    /// Appends one stamped record to the current generation. The record is
    /// encoded before the lock is taken; the stamp and the write happen
    /// under it, so `seq` order is file order.
    pub fn append(&self, record: &WalRecord) -> Result<()> {
        let bytes = record.encode();
        let mut wal = self.lock();
        let (epoch, causal) = match record {
            WalRecord::Publish { epoch, .. } => (epoch.as_u64(), None),
            WalRecord::PublishCausal { epoch, stamp, .. } => (epoch.as_u64(), Some(stamp.id())),
            _ => (wal.epoch, None),
        };
        wal.epoch = wal.epoch.max(epoch);
        let stamp = FrameStamp { epoch, seq: wal.seq, stamp: causal };
        wal.seq += 1;
        wal.log.append(&stamp_payload(stamp, &bytes))
    }

    /// Flushes the current generation to stable storage: one `fdatasync`,
    /// or none if nothing was written since the last one.
    pub fn sync(&self) -> Result<()> {
        self.lock().log.sync()
    }

    /// Installs a compacting snapshot: writes `snapshot` (stamped with the
    /// *next* generation) atomically, starts that generation's file, syncs
    /// the directory so both are durable, and only then deletes the old
    /// generation's file. The caller must hold whatever locks make
    /// `snapshot` a consistent cut — records appended after this call belong
    /// to the new generation and replay on top of the snapshot.
    pub fn install_snapshot(&self, mut snapshot: StoreSnapshot) -> Result<u64> {
        let mut wal = self.lock();
        let old = wal.number;
        let next = old + 1;
        snapshot.wal_generation = next;
        snapshot::write_snapshot(&self.dir, &snapshot)?;
        // The observability sink belongs to the backend, not to one
        // generation's file: the next generation carries it over.
        *wal = Generation::create(&self.dir, next, wal.obs.clone())?;
        wal.obs.metrics.counter("snapshot.installs").inc();
        wal.obs.tracer.event("snapshot.install", &[("generation", next)]);
        drop(wal);
        // The snapshot's rename and the new file survive a crash only once
        // the directory is synced; until then a crash may bring back the old
        // snapshot, which still needs the old generation.
        snapshot::sync_dir(&self.dir)?;
        // Best-effort: the old generation is unreachable (the snapshot names
        // the new one), so a failed delete only wastes disk.
        delete_generation(&self.dir, old).ok();
        Ok(next)
    }
}

/// Deletes a generation's file (after a snapshot has superseded it). A
/// missing file is fine; other I/O errors are reported.
fn delete_generation(dir: &Path, generation: u64) -> Result<()> {
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
    use crate::epoch::EpochRegistry;
    use crate::log::TransactionLog;
    use crate::retention::RetentionPolicy;
    use crate::wal::decode_frames;
    use orchestra_model::schema::bioinformatics_schema;
    use orchestra_model::{Epoch, ReconciliationId, TransactionId};
    use std::sync::Arc;

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

    fn fresh(dir: &Path) -> FileWalBackend {
        FileWalBackend::create(dir, &bioinformatics_schema()).unwrap()
    }

    /// The records of generation `generation`, without generation 0's
    /// leading `Init`.
    fn replay(dir: &Path, generation: u64) -> Vec<WalRecord> {
        let (_, mut records) = FileWalBackend::open(dir, generation).unwrap();
        if generation == 0 {
            assert!(matches!(records.remove(0), WalRecord::Init { .. }));
        }
        records
    }

    fn empty_snapshot() -> StoreSnapshot {
        StoreSnapshot {
            schema: bioinformatics_schema(),
            registry: EpochRegistry::new(),
            log: TransactionLog::new(),
            membership_frontier: Epoch::ZERO,
            pruned_through: Epoch::ZERO,
            retention: RetentionPolicy::KeepAll,
            participants: vec![],
            wal_generation: 0,
        }
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
    fn appends_continue_after_reopen_without_stamp_collisions() {
        let dir = tmp_dir("reopen");
        {
            let wal = fresh(&dir);
            wal.append(&publish(1, 1)).unwrap();
            wal.append(&commit(2, 1, 1)).unwrap();
        }
        let (wal, records) = FileWalBackend::open(&dir, 0).unwrap();
        assert_eq!(records.len(), 3);
        wal.append(&commit(2, 2, 1)).unwrap();
        wal.append(&publish(1, 2)).unwrap();
        drop(wal);
        assert_eq!(
            replay(&dir, 0),
            vec![publish(1, 1), commit(2, 1, 1), commit(2, 2, 1), publish(1, 2)]
        );
        // The reopened backend continued the sequence and the watermark.
        let (_, frames) = FrameLog::open(&wal_path(&dir, 0)).unwrap();
        let stamps: Vec<(u64, u64)> =
            frames.iter().map(|f| parse_stamp(f).map(|(s, _)| (s.seq, s.epoch)).unwrap()).collect();
        assert_eq!(stamps, [(0, 0), (1, 1), (2, 1), (3, 1), (4, 2)]);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A crash mid-append tears the file's last frame; reopening keeps every
    /// record before it, from every participant.
    #[test]
    fn a_torn_tail_keeps_every_record_before_it() {
        let dir = tmp_dir("torn");
        {
            let wal = fresh(&dir);
            wal.append(&publish(1, 1)).unwrap();
            wal.append(&commit(2, 1, 1)).unwrap();
            wal.append(&commit(3, 1, 1)).unwrap();
            wal.append(&commit(2, 2, 1)).unwrap();
        }
        let file = dir.join("wal.0.log");
        let bytes = std::fs::read(&file).unwrap();
        std::fs::write(&file, &bytes[..bytes.len() - 3]).unwrap();
        let (wal, records) = FileWalBackend::open(&dir, 0).unwrap();
        assert_eq!(records[1..], [publish(1, 1), commit(2, 1, 1), commit(3, 1, 1)]);
        assert_eq!(wal.wal_records(), 4);
        // The writer resumes at the end of the last intact frame.
        wal.append(&commit(2, 2, 1)).unwrap();
        drop(wal);
        assert_eq!(replay(&dir, 0).len(), 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn delete_generation_removes_the_generation_file() {
        let dir = tmp_dir("delete");
        let (wal, _) = FileWalBackend::open(&dir, 4).unwrap();
        wal.append(&commit(1, 1, 0)).unwrap();
        wal.append(&commit(2, 1, 0)).unwrap();
        drop(wal);
        assert_eq!(files(&dir), ["wal.4.log"]);
        delete_generation(&dir, 4).unwrap();
        assert!(files(&dir).is_empty());
        // Deleting again is a no-op.
        delete_generation(&dir, 4).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_snapshot_install_starts_an_empty_generation_and_retires_the_old() {
        let dir = tmp_dir("install");
        let wal = fresh(&dir);
        wal.append(&publish(1, 3)).unwrap();
        wal.append(&commit(2, 1, 3)).unwrap();
        assert_eq!(wal.unsynced_records(), 3);
        wal.sync().unwrap();
        assert_eq!(wal.unsynced_records(), 0);
        assert_eq!(wal.install_snapshot(empty_snapshot()).unwrap(), 1);
        assert_eq!(wal.generation(), 1);
        assert_eq!(files(&dir), ["snapshot.orc", "wal.1.log"]);
        let snap = snapshot::read_snapshot(&dir).unwrap().unwrap();
        assert_eq!(snap.wal_generation, 1);
        // The new generation starts its stamps afresh.
        wal.append(&commit(2, 2, 3)).unwrap();
        assert_eq!((wal.wal_records(), wal.unsynced_records()), (1, 1));
        drop(wal);
        let (_, frames) = FrameLog::open(&wal_path(&dir, 1)).unwrap();
        let (stamp, _) = parse_stamp(&frames[0]).unwrap();
        assert_eq!((stamp.seq, stamp.epoch), (0, 0));
        assert_eq!(replay(&dir, 1), [commit(2, 2, 3)]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn observability_reaches_the_generation_file_and_the_next() {
        let dir = tmp_dir("observed");
        let obs = Obs::enabled();
        let syncs = obs.metrics.counter("wal.syncs");
        let wal = fresh(&dir);
        wal.set_observability(&obs);
        wal.append(&publish(1, 1)).unwrap();
        wal.append(&commit(2, 1, 1)).unwrap();
        wal.sync().unwrap();
        assert_eq!(syncs.get(), 1);
        // The next generation reports into the same sink.
        wal.install_snapshot(empty_snapshot()).unwrap();
        wal.append(&commit(2, 2, 1)).unwrap();
        wal.sync().unwrap();
        assert_eq!(syncs.get(), 2);
        assert_eq!(obs.metrics.counter("wal.appends").get(), 3);
        assert!(obs.metrics.counter("wal.append_bytes").get() > 0);
        assert_eq!(obs.metrics.counter("snapshot.installs").get(), 1);
        let trace = obs.tracer.export();
        assert!(trace.contains("snapshot.install\tgeneration=1"), "{trace}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// However many participants wrote since the last sync, a round boundary
    /// is one `fdatasync`; a sync with nothing new is none.
    #[test]
    fn one_sync_covers_every_participants_records() {
        let dir = tmp_dir("one-sync");
        let obs = Obs::enabled();
        let syncs = obs.metrics.counter("wal.syncs");
        let wal = fresh(&dir);
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
        let wal = Arc::new(fresh(&dir));
        let threads: Vec<_> = (1..=4u32)
            .map(|p| {
                let wal = Arc::clone(&wal);
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
        assert_eq!(wal.wal_records(), 201);
        drop(wal);
        assert_eq!(files(&dir), ["wal.0.log"]);
        let records = replay(&dir, 0);
        assert_eq!(records.len(), 200);
        // Each thread's records replay in its append order.
        for p in 1..=4u32 {
            let recnos: Vec<u64> = records
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

    /// Eight threads append through one generation: the stamp is taken under
    /// the file's lock, so `seq` strictly increases in file order, and
    /// `open` hands the records back in that order.
    #[test]
    fn concurrent_appends_stamp_seq_in_file_order() {
        let dir = tmp_dir("stamp-order");
        let wal = Arc::new(fresh(&dir));
        let threads: Vec<_> = (1..=8u32)
            .map(|p| {
                let wal = Arc::clone(&wal);
                std::thread::spawn(move || {
                    for i in 0..50 {
                        let record = if i % 5 == 0 {
                            publish(p, u64::from(p) * 100 + i)
                        } else {
                            commit(p, i, 0)
                        };
                        wal.append(&record).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(wal.wal_records(), 401);
        drop(wal);
        assert_eq!(files(&dir), ["wal.0.log"]);

        let bytes = std::fs::read(wal_path(&dir, 0)).unwrap();
        let (frames, _) = decode_frames(&bytes);
        let mut in_file_order = Vec::new();
        let mut watermark = 0;
        for (i, frame) in frames.iter().enumerate() {
            let (stamp, body) = parse_stamp(frame).unwrap();
            assert_eq!(stamp.seq, i as u64, "seq follows file order");
            let record = WalRecord::decode(body).unwrap();
            if let WalRecord::Publish { epoch, .. } = record {
                watermark = watermark.max(epoch.as_u64());
            } else {
                assert_eq!(stamp.epoch, watermark, "non-publishes carry the watermark");
            }
            in_file_order.push(record);
        }
        let (_, records) = FileWalBackend::open(&dir, 0).unwrap();
        assert_eq!(records, in_file_order);
        std::fs::remove_dir_all(&dir).ok();
    }
}
