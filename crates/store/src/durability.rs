//! Pluggable durability backends for the store catalogue.
//!
//! The catalogue logs every state-changing operation through a
//! [`Durability`] value: [`Durability::Ephemeral`] (the default) drops the
//! records and keeps the store purely in-memory, while
//! [`Durability::FileWal`] appends them to the current WAL generation
//! ([`orchestra_storage::SegmentedWal`]) inside a durability directory, from
//! which [`crate::StoreCatalog::recover`] rebuilds the exact durable state.
//!
//! A durability directory holds two files:
//!
//! * `wal.<generation>.log` — every record of the current generation:
//!   publishes, policy registrations, reconciliation commits, decisions,
//!   checkpoints and retention records;
//! * `snapshot.orc` — the most recent compacting snapshot
//!   ([`orchestra_storage::StoreSnapshot`]), which names the generation that
//!   continues after it.
//!
//! Appends happen while the catalogue holds the lock guarding the state the
//! record describes (the log shard's write lock for publishes, the
//! participant shard's write lock for decision commits); the file's own
//! mutex is taken innermost. A round boundary's [`FileWalBackend::sync`] is
//! one `fdatasync`. Recovery replays the file in `(epoch, seq)` stamp order
//! (see [`orchestra_storage::segment`]).
//!
//! Records and snapshots are written by the binary codec
//! ([`orchestra_storage::codec`]) — the only durable encoding there is.

use orchestra_obs::Obs;
use orchestra_storage::segment::{self, SegmentedWal};
use orchestra_storage::snapshot::{self, StoreSnapshot};
use orchestra_storage::wal::WalRecord;
use orchestra_storage::{Result, StorageError};
use std::path::{Path, PathBuf};
use std::sync::RwLock;

/// The write side of a file-backed durability directory.
#[derive(Debug)]
pub struct FileWalBackend {
    dir: PathBuf,
    /// The current generation. Appends hold the read side (they serialise on
    /// the file's mutex inside); only snapshot installation takes the write
    /// side to swap generations.
    wal: RwLock<SegmentedWal>,
}

impl FileWalBackend {
    /// Starts a *fresh* durability directory for a new store: creates the
    /// directory, refuses to clobber existing durable state (use
    /// [`crate::StoreCatalog::recover`] for that), and writes the
    /// [`WalRecord::Init`] record pinning the schema, then syncs the
    /// directory so the new file's name is durable.
    pub fn create(dir: &Path, schema: &orchestra_model::Schema) -> Result<Self> {
        std::fs::create_dir_all(dir)
            .map_err(|e| StorageError::Persistence(format!("create {}: {e}", dir.display())))?;
        if snapshot::snapshot_path(dir).exists() {
            return Err(StorageError::Persistence(format!(
                "{} already holds a snapshot; recover the existing store instead",
                dir.display()
            )));
        }
        let wal_path = snapshot::wal_path(dir, 0);
        if wal_path.exists() && std::fs::metadata(&wal_path).map(|m| m.len()).unwrap_or(0) > 0 {
            return Err(StorageError::Persistence(format!(
                "{} already holds a WAL; recover the existing store instead",
                dir.display()
            )));
        }
        let wal = SegmentedWal::create(dir, 0)?;
        wal.append(&WalRecord::Init { schema: schema.clone() })?;
        snapshot::sync_dir(dir)?;
        Ok(FileWalBackend { dir: dir.to_path_buf(), wal: RwLock::new(wal) })
    }

    /// Reattaches the write side to a directory whose state has just been
    /// recovered: continues appending to the file recovery opened
    /// (positioned at its end, stamps continuing where they left off).
    pub(crate) fn reattach(dir: &Path, wal: SegmentedWal) -> Self {
        FileWalBackend { dir: dir.to_path_buf(), wal: RwLock::new(wal) }
    }

    /// The durability directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The current WAL generation.
    pub fn generation(&self) -> u64 {
        self.wal.read().expect("wal lock").generation()
    }

    /// Number of WAL files in the current generation: always 1.
    pub fn segment_count(&self) -> usize {
        1
    }

    /// Binds the WAL — current and future generations — to a
    /// shared observability sink: appends, syncs and replays count under the
    /// `wal.*` metrics, and snapshot installs emit a `snapshot.install`
    /// trace event plus the `snapshot.installs` counter.
    pub fn set_observability(&self, obs: &Obs) {
        self.wal.read().expect("wal lock").set_observability(obs);
    }

    /// Sets when WAL appends `fsync` (see
    /// [`orchestra_storage::FlushPolicy`]): `EveryAppend` for one sync per
    /// record, `EveryN`/`Interval` for group commit, which batches the
    /// commits of every participant behind one `fsync`. The policy survives
    /// snapshot compaction (each new generation inherits it).
    pub fn set_flush_policy(&self, policy: orchestra_storage::FlushPolicy) {
        self.wal.read().expect("wal lock").set_flush_policy(policy);
    }

    /// The WAL's current flush policy.
    pub fn flush_policy(&self) -> orchestra_storage::FlushPolicy {
        self.wal.read().expect("wal lock").flush_policy()
    }

    /// Records appended since the WAL's last `fsync` (the group-commit
    /// window still at risk under media failure).
    pub fn unsynced_records(&self) -> u64 {
        self.wal.read().expect("wal lock").unsynced_records()
    }

    /// Records appended to the current generation (including the `Init`
    /// record on generation 0).
    pub fn wal_records(&self) -> u64 {
        self.wal.read().expect("wal lock").records()
    }

    /// Bytes in the current generation.
    pub fn wal_bytes(&self) -> u64 {
        self.wal.read().expect("wal lock").bytes()
    }

    /// Appends one record to the current generation.
    pub(crate) fn append(&self, record: &WalRecord) -> Result<()> {
        self.wal.read().expect("wal lock").append(record)
    }

    /// Flushes the current generation to stable storage: one `fdatasync`,
    /// or none if nothing was written since the last one.
    pub fn sync(&self) -> Result<()> {
        self.wal.read().expect("wal lock").sync()
    }

    /// Installs a compacting snapshot: writes `snapshot` (stamped with the
    /// *next* generation) atomically, starts that generation's file, syncs
    /// the directory so both are durable, and only then deletes the old
    /// generation's file. The caller must hold whatever catalogue locks make
    /// `snapshot` a consistent cut — records appended after this call belong
    /// to the new generation and replay on top of the snapshot.
    pub(crate) fn install_snapshot(&self, mut snapshot: StoreSnapshot) -> Result<u64> {
        let mut wal = self.wal.write().expect("wal lock");
        let old = wal.generation();
        let next = old + 1;
        snapshot.wal_generation = next;
        snapshot::write_snapshot(&self.dir, &snapshot)?;
        // The flush (group-commit) policy and the observability sink are
        // properties of the backend, not of one generation's file: the next
        // generation carries them over.
        let new_wal = wal.next_generation()?;
        let obs = wal.observability();
        obs.metrics.counter("snapshot.installs").inc();
        obs.tracer.event("snapshot.install", &[("generation", next)]);
        *wal = new_wal;
        drop(wal);
        // The snapshot's rename and the new file survive a crash only once
        // the directory is synced; until then a crash may bring back the old
        // snapshot, which still needs the old generation.
        snapshot::sync_dir(&self.dir)?;
        // Best-effort: the old generation is unreachable (the snapshot names
        // the new one), so a failed delete only wastes disk.
        segment::delete_generation(&self.dir, old).ok();
        Ok(next)
    }
}

/// How (and whether) the catalogue makes its state durable.
#[derive(Debug, Default)]
pub enum Durability {
    /// No durability: records are dropped, the store lives and dies with the
    /// process. This is the default and costs nothing on the hot paths.
    #[default]
    Ephemeral,
    /// Every record is appended to a file-backed WAL; see [`FileWalBackend`].
    FileWal(FileWalBackend),
}

impl Durability {
    /// True when records actually reach a backend (used to skip building the
    /// record on ephemeral hot paths).
    pub fn is_durable(&self) -> bool {
        matches!(self, Durability::FileWal(_))
    }

    /// The file backend, if any.
    pub fn file_backend(&self) -> Option<&FileWalBackend> {
        match self {
            Durability::Ephemeral => None,
            Durability::FileWal(backend) => Some(backend),
        }
    }

    /// Appends a record (no-op when ephemeral).
    pub(crate) fn append(&self, record: &WalRecord) -> Result<()> {
        match self {
            Durability::Ephemeral => Ok(()),
            Durability::FileWal(backend) => backend.append(record),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orchestra_model::schema::bioinformatics_schema;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("orchestra-durability-test-{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn fresh_backends_write_the_init_record() {
        let dir = tmp_dir("fresh");
        let backend = FileWalBackend::create(&dir, &bioinformatics_schema()).unwrap();
        assert_eq!(backend.generation(), 0);
        assert_eq!(backend.segment_count(), 1);
        assert_eq!(backend.wal_records(), 1);
        assert!(backend.wal_bytes() > 0);
        assert_eq!(backend.dir(), dir.as_path());
        backend.sync().unwrap();

        // A second create over live state is refused.
        drop(backend);
        assert!(matches!(
            FileWalBackend::create(&dir, &bioinformatics_schema()),
            Err(StorageError::Persistence(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_snapshot_install_leaves_one_wal_file_the_new_generations() {
        use orchestra_model::{ParticipantId, Transaction, TrustPolicy, Tuple, Update};
        let dir = tmp_dir("one-file");
        let schema = bioinformatics_schema();
        let backend = FileWalBackend::create(&dir, &schema).unwrap();
        let cat = crate::StoreCatalog::with_durability(schema, Durability::FileWal(backend));
        let files = || {
            let mut names: Vec<String> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().file_name().into_string().unwrap())
                .collect();
            names.sort();
            names
        };
        for i in 1..=4u32 {
            let p = ParticipantId(i);
            cat.register_policy(TrustPolicy::new(p).trusting(ParticipantId(i % 4 + 1), 1u32));
            let tuple = Tuple::of_text(&["org", &format!("prot{i}"), "f"]);
            let txn =
                Transaction::from_parts(p, 0, vec![Update::insert("Function", tuple, p)]).unwrap();
            cat.publish(p, None, None, vec![txn]).unwrap();
        }
        assert_eq!(files(), ["wal.0.log"]);
        assert_eq!(cat.snapshot().unwrap(), 1);
        assert_eq!(files(), ["snapshot.orc", "wal.1.log"]);
        assert_eq!(cat.snapshot().unwrap(), 2);
        assert_eq!(files(), ["snapshot.orc", "wal.2.log"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ephemeral_appends_are_noops() {
        let d = Durability::Ephemeral;
        assert!(!d.is_durable());
        assert!(d.file_backend().is_none());
        d.append(&WalRecord::Init { schema: bioinformatics_schema() }).unwrap();
    }
}
