//! Pluggable durability backends for the store catalogue.
//!
//! The catalogue logs every state-changing operation through a
//! [`Durability`] value: [`Durability::Ephemeral`] (the default) drops the
//! records and keeps the store purely in-memory, while
//! [`Durability::FileWal`] appends them to the current WAL generation of a
//! durability directory through [`FileWalBackend`], from which
//! [`crate::StoreCatalog::recover`] rebuilds the exact durable state.
//!
//! A durability directory holds two files:
//!
//! * `wal.<generation>.log` — every record of the current generation:
//!   publishes, policy registrations, reconciliation commits, decisions
//!   and retention records;
//! * `snapshot.orc` — the most recent compacting snapshot
//!   ([`orchestra_storage::StoreSnapshot`]), which names the generation that
//!   continues after it.
//!
//! Appends happen while the catalogue holds the lock guarding the state the
//! record describes (the log shard's write lock for publishes, the
//! participant shard's write lock for decision commits); the WAL's one
//! mutex is taken innermost. Records that depend on each other therefore
//! reach the file in dependency order, and recovery replays the file in the
//! order it reads it. A round boundary's [`FileWalBackend::sync`] is one
//! `fdatasync`.
//!
//! Records and snapshots are written by the binary codec
//! ([`orchestra_storage::codec`]) — the only durable encoding there is.

pub use orchestra_storage::segment::FileWalBackend;
use orchestra_storage::wal::WalRecord;
use orchestra_storage::Result;

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
    use orchestra_storage::StorageError;
    use std::path::PathBuf;

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
