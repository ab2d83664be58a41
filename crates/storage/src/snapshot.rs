//! Compacting snapshots of the update store's durable state.
//!
//! A write-ahead log grows without bound, and replaying a long history on
//! every restart defeats the point of an incremental store. A snapshot
//! captures the full durable state — schema, epoch registry, publication log
//! and per-participant records — in one CRC-checked frame, and names the WAL
//! *generation* that continues after it: recovery loads the snapshot, then
//! replays only that generation's one file, `wal.<generation>.log`. Taking a
//! snapshot starts a fresh (empty) generation file and deletes the old one,
//! so the on-disk footprint is bounded by one snapshot plus the records
//! since it.
//!
//! Derived state (the log's lookup indexes, the decision records'
//! accepted/rejected `Arc` sets, the store's relevance index) is *not*
//! serialised — it is re-derived after loading, exactly as the in-memory
//! structures were first built.
//!
//! Snapshots are written to a temporary file and atomically renamed into
//! place, so a crash mid-snapshot leaves the previous snapshot (and its WAL
//! generation) intact. The old generation may be deleted only after a
//! [`sync_dir`] has made the rename and the new generation's file durable.

use crate::decisions::ParticipantRecord;
use crate::epoch::EpochRegistry;
use crate::error::{Result, StorageError};
use crate::log::TransactionLog;
use crate::retention::RetentionPolicy;
use crate::wal::{decode_frames, encode_frame};
use orchestra_model::{Epoch, ParticipantId, Schema, TrustPolicy, Tuple};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};

/// File name of the snapshot inside a durability directory.
pub const SNAPSHOT_FILE: &str = "snapshot.orc";

/// Path of a generation's WAL file, `wal.<generation>.log`, inside a
/// durability directory. It holds every record of the generation.
pub fn wal_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("wal.{generation}.log"))
}

/// Path of the snapshot inside a durability directory.
pub fn snapshot_path(dir: &Path) -> PathBuf {
    dir.join(SNAPSHOT_FILE)
}

/// Makes a durability directory's entries durable. Under POSIX a rename into
/// the directory, or a file created in it, survives a crash only once the
/// directory itself has been synced.
pub fn sync_dir(dir: &Path) -> Result<()> {
    std::fs::File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| StorageError::Persistence(format!("sync directory {}: {e}", dir.display())))
}

/// A participant's materialised instance at one reconciliation point. No
/// store records one: a rebuild replays the acceptance order, and refuses
/// once retention pruned part of it.
///
/// Kept only because the benchmark's `TimedStore` names it; ROADMAP item 1's
/// debts drop it.
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceCheckpoint {
    /// Materialised tuples per relation name.
    pub relations: BTreeMap<String, Vec<Tuple>>,
    /// The participant's next local transaction number.
    pub next_local: u64,
    /// The reconciliation epoch the instance reflects.
    pub epoch: Epoch,
    /// How many entries of the acceptance order the instance folds in.
    pub accepted_through: u64,
}

/// One participant's durable slice of the store: policy, registration flag,
/// epoch cursor and decision record. The relevance index is derived state and
/// is rebuilt from the log after loading.
#[derive(Debug, Clone)]
pub struct ParticipantSnapshot {
    /// The participant.
    pub id: ParticipantId,
    /// Its trust policy (empty for shards auto-created for bare publishers).
    pub policy: TrustPolicy,
    /// Whether the participant explicitly registered the policy.
    pub registered: bool,
    /// Whether the participant has been retired (it keeps its decision
    /// record but no longer pins the convergence horizon).
    pub retired: bool,
    /// The epoch cursor of its last committed reconciliation, if any.
    pub cursor: Option<Epoch>,
    /// Relevance-index entries exist only for epochs strictly above this
    /// floor (raised by the membership frontier at registration time and by
    /// every prune). Recovery rebuilds the index from the log restricted to
    /// the floor, reproducing the live slice exactly.
    pub relevance_floor: Epoch,
    /// Its durable decision and reconciliation record.
    pub record: ParticipantRecord,
}

/// The complete durable state of an update store at one point in time.
#[derive(Debug, Clone)]
pub struct StoreSnapshot {
    /// The schema the store serves.
    pub schema: Schema,
    /// The epoch registry (allocation counter and publication records).
    pub registry: EpochRegistry,
    /// The published-transaction log (indexes re-derived after loading).
    pub log: TransactionLog,
    /// The membership frontier: late registrants see only history above it.
    pub membership_frontier: Epoch,
    /// Epochs at or below this have been pruned by retention.
    pub pruned_through: Epoch,
    /// The retention policy the store prunes under.
    pub retention: RetentionPolicy,
    /// Every participant shard, in participant order.
    pub participants: Vec<ParticipantSnapshot>,
    /// The WAL generation that continues after this snapshot: recovery
    /// replays `wal.<wal_generation>.log` on top of the snapshot state.
    pub wal_generation: u64,
}

/// Writes a snapshot as a single CRC-checked frame, atomically: the temp file
/// is synced, then renamed into place. The rename is durable once the caller
/// syncs the directory ([`sync_dir`]).
pub fn write_snapshot(dir: &Path, snapshot: &StoreSnapshot) -> Result<()> {
    std::fs::create_dir_all(dir)
        .map_err(|e| StorageError::Persistence(format!("create {}: {e}", dir.display())))?;
    let payload = crate::codec::encode_snapshot(snapshot);
    let frame = encode_frame(&payload);
    let tmp = dir.join(format!("{SNAPSHOT_FILE}.tmp"));
    {
        let mut file = std::fs::File::create(&tmp)
            .map_err(|e| StorageError::Persistence(format!("create {}: {e}", tmp.display())))?;
        file.write_all(&frame)
            .map_err(|e| StorageError::Persistence(format!("write snapshot: {e}")))?;
        file.sync_data().map_err(|e| StorageError::Persistence(format!("sync snapshot: {e}")))?;
    }
    std::fs::rename(&tmp, snapshot_path(dir))
        .map_err(|e| StorageError::Persistence(format!("rename snapshot: {e}")))
}

/// Loads the snapshot of a durability directory, if one exists. The returned
/// state still carries un-derived indexes — callers rebuild them (the store
/// does so inside `recover`).
pub fn read_snapshot(dir: &Path) -> Result<Option<StoreSnapshot>> {
    let path = snapshot_path(dir);
    let bytes = match std::fs::read(&path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(StorageError::Persistence(format!("read {}: {e}", path.display()))),
    };
    let (frames, consumed) = decode_frames(&bytes);
    if frames.len() != 1 || consumed != bytes.len() {
        return Err(StorageError::Persistence(format!(
            "snapshot {} is corrupt ({} intact frame(s) over {consumed} of {} bytes)",
            path.display(),
            frames.len(),
            bytes.len()
        )));
    }
    crate::codec::decode_snapshot(&frames[0]).map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;
    use orchestra_model::schema::bioinformatics_schema;
    use orchestra_model::{ParticipantId, ReconciliationId, Transaction, Tuple, Update};

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("orchestra-snapshot-test-{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_snapshot() -> StoreSnapshot {
        let p = ParticipantId(1);
        let mut registry = EpochRegistry::new();
        let epoch = registry.begin_publish(p);
        registry.finish_publish(epoch).unwrap();
        let mut log = TransactionLog::new();
        let txn = Transaction::from_parts(
            p,
            0,
            vec![Update::insert("Function", Tuple::of_text(&["rat", "prot1", "a"]), p)],
        )
        .unwrap();
        log.publish(epoch, txn.clone()).unwrap();
        let mut record = ParticipantRecord::new();
        record.record(txn.id(), crate::decisions::Decision::Accepted);
        record.record_reconciliation(ReconciliationId(1), epoch);
        StoreSnapshot {
            schema: bioinformatics_schema(),
            registry,
            log,
            membership_frontier: Epoch(2),
            pruned_through: Epoch::ZERO,
            retention: RetentionPolicy::KeepLastN(4),
            participants: vec![ParticipantSnapshot {
                id: p,
                policy: TrustPolicy::new(p).trusting(ParticipantId(2), 1u32),
                registered: true,
                retired: false,
                cursor: Some(epoch),
                relevance_floor: Epoch::ZERO,
                record,
            }],
            wal_generation: 3,
        }
    }

    #[test]
    fn snapshot_round_trips_through_disk() {
        let dir = tmp_dir("roundtrip");
        assert!(read_snapshot(&dir).unwrap().is_none());
        let snapshot = sample_snapshot();
        write_snapshot(&dir, &snapshot).unwrap();
        let mut back = read_snapshot(&dir).unwrap().unwrap();
        assert_eq!(back.wal_generation, 3);
        assert_eq!(back.schema, snapshot.schema);
        assert_eq!(back.registry.largest_stable_epoch(), Epoch(1));
        assert_eq!(back.membership_frontier, Epoch(2));
        assert_eq!(back.pruned_through, Epoch::ZERO);
        assert_eq!(back.retention, RetentionPolicy::KeepLastN(4));
        back.log.rebuild_indexes();
        assert_eq!(back.log.len(), 1);
        let participant = &mut back.participants[0];
        assert!(participant.registered);
        assert!(!participant.retired);
        assert_eq!(participant.cursor, Some(Epoch(1)));
        assert_eq!(participant.relevance_floor, Epoch::ZERO);
        participant.record.rebuild_sets();
        assert_eq!(participant.record.accepted_set().len(), 1);
        assert_eq!(participant.record.last_reconciliation(), Some((ReconciliationId(1), Epoch(1))));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rewriting_replaces_atomically() {
        let dir = tmp_dir("rewrite");
        let mut snapshot = sample_snapshot();
        write_snapshot(&dir, &snapshot).unwrap();
        snapshot.wal_generation = 9;
        write_snapshot(&dir, &snapshot).unwrap();
        assert_eq!(read_snapshot(&dir).unwrap().unwrap().wal_generation, 9);
        // No stray temp file is left behind.
        assert!(!dir.join(format!("{SNAPSHOT_FILE}.tmp")).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_snapshots_are_reported_not_half_loaded() {
        let dir = tmp_dir("corrupt");
        write_snapshot(&dir, &sample_snapshot()).unwrap();
        let path = snapshot_path(&dir);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(read_snapshot(&dir), Err(StorageError::Persistence(_))));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn directory_syncs_report_typed_errors() {
        let dir = tmp_dir("dir-sync");
        sync_dir(&dir).unwrap();
        assert!(matches!(sync_dir(&dir.join("missing")), Err(StorageError::Persistence(_))));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wal_paths_follow_the_generation() {
        let dir = Path::new("/x");
        assert_eq!(wal_path(dir, 0), Path::new("/x/wal.0.log"));
        assert_eq!(wal_path(dir, 12), Path::new("/x/wal.12.log"));
        assert_eq!(snapshot_path(dir), Path::new("/x/snapshot.orc"));
    }
}
