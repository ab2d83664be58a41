//! The write-ahead log: an append-only file of CRC-checked, length-prefixed
//! frames, plus the typed records the update store writes into it.
//!
//! The paper's update store is backed by a commercial RDBMS, which makes
//! published transactions and decision records durable for free. Our
//! catalogue is in-memory, so durability is layered underneath it: every
//! state-changing store operation appends one [`WalRecord`] to a
//! [`FrameLog`], and recovery replays the records in order to rebuild the
//! exact durable state (see `orchestra_store::StoreCatalog::recover`).
//!
//! # Frame format
//!
//! ```text
//! ┌───────────┬───────────┬──────────────┐
//! │ len: u32  │ crc: u32  │ payload      │   (both integers little-endian)
//! └───────────┴───────────┴──────────────┘
//! ```
//!
//! `crc` is the CRC-32 (IEEE) of the payload. A reader stops at the first
//! frame whose length or checksum does not hold — a crash mid-append leaves a
//! *torn tail*, which is truncated on the next open, exactly like a database
//! WAL. Payloads are written by the binary codec ([`crate::codec`]); the
//! `wal_dump` tool renders them for inspection.
//!
//! The default crash model is process death: appends reach the operating
//! system before the call returns (one `write` syscall per frame), but the
//! log is not `fsync`ed per record. Callers that need media-failure
//! durability pick a [`FlushPolicy`]: `EveryAppend` syncs each record (the
//! classic one-fsync-per-commit), while the **group-commit** policies
//! (`EveryN`, `Interval`) batch many appends behind one `fsync`, amortising
//! the dominant cost without changing the record order — WAL order still
//! equals apply order, and a torn tail past the last intact frame is
//! truncated on the next open exactly as before.

use crate::error::{Result, StorageError};
use crate::snapshot::InstanceCheckpoint;
use orchestra_model::{
    CausalStamp, Epoch, ParticipantId, ReconciliationId, Schema, Transaction, TransactionId,
    TrustPolicy,
};
use orchestra_obs::{Counter, Obs, Tracer};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Upper bound on a single frame payload (guards against interpreting a
/// corrupt length prefix as a multi-gigabyte allocation).
const MAX_FRAME_LEN: u32 = 256 * 1024 * 1024;

/// Slicing-by-8 lookup tables: `CRC_TABLES[0]` is the classic byte-at-a-time
/// table; `CRC_TABLES[t]` advances a byte `t` positions further. Eight table
/// lookups then fold eight input bytes per step, which matters because every
/// WAL byte is checksummed twice (once on append, once on replay).
const CRC_TABLES: [[u32; 256]; 8] = build_crc_tables();

const fn build_crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

/// CRC-32 (IEEE 802.3) of a byte slice — the checksum guarding every frame.
/// Slicing-by-8: eight bytes per iteration, byte-at-a-time on the tail.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes(chunk[0..4].try_into().expect("4 bytes")) ^ crc;
        let hi = u32::from_le_bytes(chunk[4..8].try_into().expect("4 bytes"));
        crc = CRC_TABLES[7][(lo & 0xFF) as usize]
            ^ CRC_TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[4][(lo >> 24) as usize]
            ^ CRC_TABLES[3][(hi & 0xFF) as usize]
            ^ CRC_TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// Encodes one frame (length prefix, checksum, payload) into a byte vector.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Decodes every valid frame of a byte buffer. Returns the payloads and the
/// number of bytes consumed by valid frames; decoding stops (without error)
/// at a torn or corrupt tail.
pub fn decode_frames(bytes: &[u8]) -> (Vec<Vec<u8>>, usize) {
    let mut frames = Vec::new();
    let mut pos = 0usize;
    while let Some(header) = bytes.get(pos..pos + 8) {
        let len = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
        if len as u64 > u64::from(MAX_FRAME_LEN) {
            break;
        }
        let Some(payload) = bytes.get(pos + 8..pos + 8 + len) else { break };
        if crc32(payload) != crc {
            break;
        }
        frames.push(payload.to_vec());
        pos += 8 + len;
    }
    (frames, pos)
}

/// When the log `fsync`s what it has appended.
///
/// The knob behind group commit: `EveryN` and `Interval` batch many appends
/// behind one `fsync`. A policy only adds syncs — it never delays or reorders
/// the appends themselves, so replay order is identical under every policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FlushPolicy {
    /// Never `fsync` on append (the default): frames reach the operating
    /// system per append, surviving process death but not media failure.
    /// Callers may still [`FrameLog::sync`] explicitly.
    #[default]
    OsBuffered,
    /// `fsync` after every append — one sync per record, the classic
    /// durability/latency trade.
    EveryAppend,
    /// Group commit by count: `fsync` once every `n` appends (`n` is clamped
    /// to at least 1).
    EveryN(u64),
    /// Group commit by time: `fsync` on the first append after this much
    /// time has passed since the last sync.
    Interval(Duration),
}

/// Observability handles of one frame log: detached (free-standing
/// counters, disabled tracer) until [`FrameLog::set_observability`] binds
/// them to a shared sink, so an unobserved log pays only relaxed atomic
/// increments.
#[derive(Debug, Default)]
struct WalObs {
    appends: Counter,
    append_bytes: Counter,
    syncs: Counter,
    replayed: Counter,
    tracer: Tracer,
}

impl WalObs {
    fn resolved(obs: &Obs) -> WalObs {
        WalObs {
            appends: obs.metrics.counter("wal.appends"),
            append_bytes: obs.metrics.counter("wal.append_bytes"),
            syncs: obs.metrics.counter("wal.syncs"),
            replayed: obs.metrics.counter("wal.replayed_frames"),
            tracer: obs.tracer.clone(),
        }
    }
}

/// An append-only, file-backed log of CRC-checked frames.
///
/// Opening an existing file validates every frame and truncates a torn tail,
/// so the writer always resumes at the end of the last intact record.
#[derive(Debug)]
pub struct FrameLog {
    file: File,
    path: PathBuf,
    records: u64,
    bytes: u64,
    flush: FlushPolicy,
    /// Records appended since the last sync (drives the group-commit
    /// policies).
    unsynced: u64,
    /// Whether the file was created or appended to since the last sync:
    /// [`FrameLog::sync`] skips the `fsync` when it was not.
    dirty: bool,
    last_sync: Instant,
    obs: WalObs,
}

impl FrameLog {
    /// Opens (or creates) a frame log, returning the log positioned for
    /// appends together with the payloads of every intact frame already in
    /// the file. A torn or corrupt tail is truncated away.
    pub fn open(path: &Path) -> Result<(FrameLog, Vec<Vec<u8>>)> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(|e| StorageError::Persistence(format!("open {}: {e}", path.display())))?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)
            .map_err(|e| StorageError::Persistence(format!("read {}: {e}", path.display())))?;
        let (frames, valid) = decode_frames(&bytes);
        let torn = valid < bytes.len();
        if torn {
            file.set_len(valid as u64)
                .map_err(|e| StorageError::Persistence(format!("truncate torn tail: {e}")))?;
        }
        file.seek(SeekFrom::Start(valid as u64))
            .map_err(|e| StorageError::Persistence(format!("seek: {e}")))?;
        let log = FrameLog {
            file,
            path: path.to_path_buf(),
            records: frames.len() as u64,
            bytes: valid as u64,
            flush: FlushPolicy::default(),
            unsynced: 0,
            // Cutting a torn tail changed the file.
            dirty: torn,
            last_sync: Instant::now(),
            obs: WalObs::default(),
        };
        Ok((log, frames))
    }

    /// [`FrameLog::open`] with observability bound from the start: the
    /// recovered frames are counted under `wal.replayed_frames` and a
    /// `wal.replay` trace event records the replay.
    pub fn open_observed(path: &Path, obs: &Obs) -> Result<(FrameLog, Vec<Vec<u8>>)> {
        let (mut log, frames) = FrameLog::open(path)?;
        log.set_observability(obs);
        log.obs.replayed.add(frames.len() as u64);
        log.obs
            .tracer
            .event("wal.replay", &[("frames", frames.len() as u64), ("bytes", log.bytes)]);
        Ok((log, frames))
    }

    /// Creates a fresh, empty frame log, truncating any existing file.
    pub fn create(path: &Path) -> Result<FrameLog> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(|e| StorageError::Persistence(format!("create {}: {e}", path.display())))?;
        Ok(FrameLog {
            file,
            path: path.to_path_buf(),
            records: 0,
            bytes: 0,
            flush: FlushPolicy::default(),
            unsynced: 0,
            dirty: true,
            last_sync: Instant::now(),
            obs: WalObs::default(),
        })
    }

    /// Binds the log's counters (`wal.appends`, `wal.append_bytes`,
    /// `wal.syncs`, `wal.replayed_frames`) and trace events to a shared
    /// sink. Until this is called the counters are free-standing and the
    /// tracer is disabled, so an unobserved log costs only relaxed atomics.
    pub fn set_observability(&mut self, obs: &Obs) {
        self.obs = WalObs::resolved(obs);
    }

    /// Sets when appends `fsync` (see [`FlushPolicy`]).
    pub fn set_flush_policy(&mut self, policy: FlushPolicy) {
        self.flush = policy;
    }

    /// The current flush policy.
    pub fn flush_policy(&self) -> FlushPolicy {
        self.flush
    }

    /// Records appended since the last `fsync` (0 under `EveryAppend`).
    pub fn unsynced_records(&self) -> u64 {
        self.unsynced
    }

    /// Appends one frame. The frame is handed to the operating system in a
    /// single write before the call returns, and `fsync`ed when the flush
    /// policy says so.
    pub fn append(&mut self, payload: &[u8]) -> Result<()> {
        let frame = encode_frame(payload);
        self.file.write_all(&frame).map_err(|e| {
            StorageError::Persistence(format!("append {}: {e}", self.path.display()))
        })?;
        self.records += 1;
        self.bytes += frame.len() as u64;
        self.unsynced += 1;
        self.dirty = true;
        self.obs.appends.inc();
        self.obs.append_bytes.add(frame.len() as u64);
        let due = match self.flush {
            FlushPolicy::OsBuffered => false,
            FlushPolicy::EveryAppend => true,
            FlushPolicy::EveryN(n) => self.unsynced >= n.max(1),
            FlushPolicy::Interval(window) => self.last_sync.elapsed() >= window,
        };
        if due {
            self.sync()?;
        }
        Ok(())
    }

    /// Flushes the log to stable storage (`fsync`) and resets the
    /// group-commit counters. Called by `append` per the flush policy, or
    /// explicitly by the owner. A log that was neither created nor appended
    /// to since its last sync has nothing to flush: the call returns without
    /// an `fsync` and without counting one under `wal.syncs`.
    pub fn sync(&mut self) -> Result<()> {
        if !self.dirty {
            return Ok(());
        }
        let _span = self.obs.tracer.span("wal.sync", &[("unsynced", self.unsynced)]);
        self.file.sync_data().map_err(|e| StorageError::Persistence(format!("sync: {e}")))?;
        self.obs.syncs.inc();
        self.dirty = false;
        self.unsynced = 0;
        self.last_sync = Instant::now();
        Ok(())
    }

    /// Number of intact records in the log.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Size of the log in bytes (valid frames only).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// The file the log appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// One durable store operation, in the order it was applied.
///
/// The records mirror the catalogue's four state-changing entry points; a
/// replay that applies them in order over the snapshot state reproduces the
/// durable catalogue byte for byte.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// First record of a generation-zero log: pins the schema so that
    /// recovery is self-contained even before the first snapshot exists.
    Init {
        /// The schema the store serves.
        schema: Schema,
    },
    /// A trust policy was registered (or replaced).
    RegisterPolicy {
        /// The registered policy (its owner names the participant).
        policy: TrustPolicy,
    },
    /// A batch of transactions was published as one epoch.
    Publish {
        /// The publishing participant.
        participant: ParticipantId,
        /// The epoch the store allocated — replay asserts it re-derives the
        /// same one.
        epoch: Epoch,
        /// The published transactions, in batch order.
        transactions: Vec<Transaction>,
    },
    /// A reconciliation session committed: decisions, the reconciliation
    /// record and the epoch cursor move together.
    CommitReconciliation {
        /// The reconciling participant.
        participant: ParticipantId,
        /// The reconciliation number recorded.
        recno: ReconciliationId,
        /// The epoch the session was pinned to (becomes the new cursor).
        epoch: Epoch,
        /// Root and member transactions accepted by the session.
        accepted: Vec<TransactionId>,
        /// Root transactions rejected by the session.
        rejected: Vec<TransactionId>,
    },
    /// Out-of-session decisions (conflict resolution between
    /// reconciliations).
    Decisions {
        /// The deciding participant.
        participant: ParticipantId,
        /// Transactions accepted by the resolution.
        accepted: Vec<TransactionId>,
        /// Transactions rejected by the resolution.
        rejected: Vec<TransactionId>,
    },
    /// The membership frontier advanced: the operator declared that no
    /// participant registering after this point needs relevance entries at
    /// or below `epoch` (late joiners see only post-frontier history).
    MembershipFrontier {
        /// The new frontier (monotone; `u64::MAX` means membership closed).
        epoch: Epoch,
    },
    /// A participant was retired: it stops pinning the convergence horizon
    /// and receives no further candidates. Its decision record stays.
    RetireParticipant {
        /// The retired participant.
        participant: ParticipantId,
    },
    /// Converged history at or below `horizon` was pruned. The pinned
    /// ancestors are not recorded: replay re-derives them with the same
    /// deterministic closure over the same state, so recover-then-prune and
    /// prune-then-recover are byte-identical.
    Prune {
        /// The epoch pruned through.
        horizon: Epoch,
    },
    /// The store switched epoch modes. Durable so that replay re-derives the
    /// same allocation behaviour (causal mode is one-way; see
    /// [`crate::epoch::CausalRegistry`]).
    EpochMode {
        /// True when the store entered causal mode.
        causal: bool,
    },
    /// A batch of transactions published under a causal stamp (causal mode's
    /// [`WalRecord::Publish`]). The stamp is the publisher-allocated ground
    /// truth; `epoch` is the arrival slot the store assigned on ingest.
    PublishCausal {
        /// The arrival epoch — the stamp's slot in the store's linear
        /// extension of the causal order.
        epoch: Epoch,
        /// The publisher-allocated causal stamp (its `publisher` names the
        /// participant).
        stamp: CausalStamp,
        /// The published transactions, in batch order.
        transactions: Vec<Transaction>,
    },
    /// A participant checkpointed its materialised local instance into the
    /// store, so `rebuild_from_store` survives ConvergedOnly pruning.
    InstanceCheckpoint {
        /// The checkpointing participant.
        participant: ParticipantId,
        /// The materialised instance (replaces any earlier checkpoint).
        checkpoint: InstanceCheckpoint,
    },
}

impl WalRecord {
    /// Serialises the record to its frame payload (see [`crate::codec`]).
    pub fn encode(&self) -> Vec<u8> {
        crate::codec::encode_record(self, crate::codec::Codec::Binary)
    }

    /// Deserialises a record from a frame payload.
    pub fn decode(payload: &[u8]) -> Result<WalRecord> {
        crate::codec::decode_record(payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orchestra_model::schema::bioinformatics_schema;
    use orchestra_model::{Tuple, Update};

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("orchestra-wal-test-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("wal.log")
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frames_round_trip_and_stop_at_torn_tail() {
        let a = encode_frame(b"first");
        let b = encode_frame(b"second");
        let mut bytes = [a.clone(), b.clone()].concat();
        let (frames, consumed) = decode_frames(&bytes);
        assert_eq!(frames, vec![b"first".to_vec(), b"second".to_vec()]);
        assert_eq!(consumed, bytes.len());

        // A torn third frame (half a header, then half a payload) is ignored.
        bytes.extend_from_slice(&[7, 0, 0, 0, 1]);
        let (frames, consumed) = decode_frames(&bytes);
        assert_eq!(frames.len(), 2);
        assert_eq!(consumed, a.len() + b.len());

        // A corrupt checksum also stops the reader.
        let mut corrupt = a.clone();
        corrupt[4] ^= 0xFF;
        let (frames, consumed) = decode_frames(&corrupt);
        assert!(frames.is_empty());
        assert_eq!(consumed, 0);
    }

    #[test]
    fn absurd_length_prefixes_are_rejected() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        let (frames, consumed) = decode_frames(&bytes);
        assert!(frames.is_empty());
        assert_eq!(consumed, 0);
    }

    #[test]
    fn file_log_appends_and_reopens() {
        let path = tmp("append");
        std::fs::remove_file(&path).ok();
        {
            let (mut log, frames) = FrameLog::open(&path).unwrap();
            assert!(frames.is_empty());
            log.append(b"one").unwrap();
            log.append(b"two").unwrap();
            assert_eq!(log.records(), 2);
            log.sync().unwrap();
        }
        // Reopen: both records are intact, appends continue at the end.
        let (mut log, frames) = FrameLog::open(&path).unwrap();
        assert_eq!(frames, vec![b"one".to_vec(), b"two".to_vec()]);
        log.append(b"three").unwrap();
        let (log2, frames) = FrameLog::open(&path).unwrap();
        assert_eq!(frames.len(), 3);
        assert_eq!(log2.records(), 3);
        assert_eq!(log2.bytes(), (8 + 3) + (8 + 3) + (8 + 5));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let path = tmp("torn");
        std::fs::remove_file(&path).ok();
        {
            let (mut log, _) = FrameLog::open(&path).unwrap();
            log.append(b"intact").unwrap();
        }
        // Simulate a crash mid-append: garbage after the valid frame.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[9, 0, 0, 0, 1, 2]).unwrap();
        }
        let (log, frames) = FrameLog::open(&path).unwrap();
        assert_eq!(frames, vec![b"intact".to_vec()]);
        assert_eq!(log.records(), 1);
        // The torn bytes are gone from the file itself.
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 8 + 6);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn group_commit_batches_fsyncs_without_reordering() {
        let path = tmp("group-commit");
        std::fs::remove_file(&path).ok();
        {
            let (mut log, _) = FrameLog::open(&path).unwrap();
            assert_eq!(log.flush_policy(), FlushPolicy::OsBuffered);
            log.set_flush_policy(FlushPolicy::EveryN(3));
            for i in 0..7u8 {
                log.append(&[i]).unwrap();
            }
            // Two batches of three synced; one record still buffered.
            assert_eq!(log.unsynced_records(), 1);
        }
        // Reopen: every record is intact and in append order regardless of
        // which sync batch it fell into — WAL order equals apply order.
        let (mut log, frames) = FrameLog::open(&path).unwrap();
        assert_eq!(frames, (0..7u8).map(|i| vec![i]).collect::<Vec<_>>());

        // EveryAppend leaves nothing unsynced; an explicit sync resets the
        // counter under any policy.
        log.set_flush_policy(FlushPolicy::EveryAppend);
        log.append(b"synced").unwrap();
        assert_eq!(log.unsynced_records(), 0);
        log.set_flush_policy(FlushPolicy::OsBuffered);
        log.append(b"buffered").unwrap();
        assert_eq!(log.unsynced_records(), 1);
        log.sync().unwrap();
        assert_eq!(log.unsynced_records(), 0);

        // A zero-length interval syncs on the next append.
        log.set_flush_policy(FlushPolicy::Interval(Duration::ZERO));
        log.append(b"interval").unwrap();
        assert_eq!(log.unsynced_records(), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_truncation_survives_group_commit() {
        let path = tmp("group-torn");
        std::fs::remove_file(&path).ok();
        {
            let (mut log, _) = FrameLog::open(&path).unwrap();
            log.set_flush_policy(FlushPolicy::EveryN(2));
            log.append(b"a").unwrap();
            log.append(b"b").unwrap();
            log.append(b"c").unwrap(); // unsynced tail record
        }
        // A crash mid-append leaves garbage past the last intact frame.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[42, 0, 0, 0, 9]).unwrap();
        }
        let (log, frames) = FrameLog::open(&path).unwrap();
        assert_eq!(frames, vec![b"a".to_vec(), b"b".to_vec(), b"c".to_vec()]);
        assert_eq!(log.records(), 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn observed_logs_report_appends_syncs_and_replay() {
        let path = tmp("observed");
        std::fs::remove_file(&path).ok();
        let obs = Obs::enabled();
        {
            let (mut log, _) = FrameLog::open_observed(&path, &obs).unwrap();
            log.append(b"one").unwrap();
            log.append(b"four").unwrap();
            log.sync().unwrap();
        }
        assert_eq!(obs.metrics.counter("wal.appends").get(), 2);
        assert_eq!(obs.metrics.counter("wal.append_bytes").get(), (8 + 3) + (8 + 4));
        assert_eq!(obs.metrics.counter("wal.syncs").get(), 1);
        assert_eq!(obs.metrics.counter("wal.replayed_frames").get(), 0);

        // Reopen: the two intact frames count as replayed, and the sync
        // span plus the replay event land in the trace.
        let (_, frames) = FrameLog::open_observed(&path, &obs).unwrap();
        assert_eq!(frames.len(), 2);
        assert_eq!(obs.metrics.counter("wal.replayed_frames").get(), 2);
        let trace = obs.tracer.export();
        assert!(trace.contains("wal.sync"), "missing sync span: {trace}");
        assert!(trace.contains("wal.replay\tframes=2"), "missing replay event: {trace}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn create_truncates_an_existing_log() {
        let path = tmp("create");
        {
            let (mut log, _) = FrameLog::open(&path).unwrap();
            log.append(b"old").unwrap();
        }
        let log = FrameLog::create(&path).unwrap();
        assert_eq!(log.records(), 0);
        let (_, frames) = FrameLog::open(&path).unwrap();
        assert!(frames.is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wal_records_round_trip() {
        let p = ParticipantId(3);
        let txn = Transaction::from_parts(
            p,
            0,
            vec![Update::insert("Function", Tuple::of_text(&["rat", "prot1", "a"]), p)],
        )
        .unwrap();
        let records = vec![
            WalRecord::Init { schema: bioinformatics_schema() },
            WalRecord::RegisterPolicy {
                policy: TrustPolicy::new(p).trusting(ParticipantId(2), 1u32),
            },
            WalRecord::Publish { participant: p, epoch: Epoch(1), transactions: vec![txn.clone()] },
            WalRecord::CommitReconciliation {
                participant: ParticipantId(2),
                recno: ReconciliationId(1),
                epoch: Epoch(1),
                accepted: vec![txn.id()],
                rejected: vec![],
            },
            WalRecord::Decisions {
                participant: ParticipantId(2),
                accepted: vec![],
                rejected: vec![txn.id()],
            },
            WalRecord::MembershipFrontier { epoch: Epoch(u64::MAX) },
            WalRecord::RetireParticipant { participant: ParticipantId(2) },
            WalRecord::Prune { horizon: Epoch(7) },
            WalRecord::EpochMode { causal: true },
            WalRecord::PublishCausal {
                epoch: Epoch(2),
                stamp: CausalStamp::new(
                    p,
                    1,
                    orchestra_model::AntichainClock::from_stamps([orchestra_model::StampId::new(
                        ParticipantId(1),
                        3,
                    )]),
                ),
                transactions: vec![txn.clone()],
            },
            WalRecord::InstanceCheckpoint {
                participant: p,
                checkpoint: InstanceCheckpoint {
                    relations: std::collections::BTreeMap::from([(
                        "Function".to_string(),
                        vec![Tuple::of_text(&["rat", "prot1", "a"])],
                    )]),
                    next_local: 2,
                    epoch: Epoch(1),
                    accepted_through: 2,
                },
            },
        ];
        for record in records {
            assert_eq!(WalRecord::decode(&record.encode()).unwrap(), record);
        }
        assert!(WalRecord::decode(b"{not binary").is_err());
        assert!(WalRecord::decode(&[0xFF, 0xFE]).is_err());
    }
}
