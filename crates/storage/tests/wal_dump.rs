//! Runs the `wal_dump` inspection tool over a WAL generation holding one
//! record of every kind: it must summarise each record, report the
//! generation's one file intact, and flag a flipped payload byte as a CRC
//! mismatch.

use orchestra_model::schema::bioinformatics_schema;
use orchestra_model::{
    AntichainClock, CausalStamp, Epoch, ParticipantId, ReconciliationId, Transaction, TrustPolicy,
    Tuple, Update,
};
use orchestra_storage::{FileWalBackend, RetentionPolicy, WalRecord};
use std::path::{Path, PathBuf};
use std::process::Command;

fn p(i: u32) -> ParticipantId {
    ParticipantId(i)
}

fn txn(i: u32, j: u64) -> Transaction {
    let tuple = Tuple::of_text(&["org", &format!("prot{i}-{j}"), "f"]);
    Transaction::from_parts(p(i), j, vec![Update::insert("Function", tuple, p(i))]).unwrap()
}

/// One record of every [`WalRecord`] kind, each with the summary prefix
/// `wal_dump` prints for it.
fn every_kind() -> Vec<(&'static str, WalRecord)> {
    let (x, y) = (txn(1, 0), txn(2, 0));
    let xid = x.id();
    vec![
        ("Init", WalRecord::Init { schema: bioinformatics_schema() }),
        (
            "RegisterPolicy",
            WalRecord::RegisterPolicy { policy: TrustPolicy::new(p(1)).trusting(p(2), 1u32) },
        ),
        (
            "Publish",
            WalRecord::Publish { participant: p(1), epoch: Epoch(1), transactions: vec![x] },
        ),
        (
            "CommitReconciliation",
            WalRecord::CommitReconciliation {
                participant: p(2),
                recno: ReconciliationId(1),
                epoch: Epoch(1),
                accepted: vec![xid],
                rejected: vec![],
            },
        ),
        (
            "Decisions",
            WalRecord::Decisions { participant: p(2), accepted: vec![], rejected: vec![xid] },
        ),
        ("MembershipFrontier", WalRecord::MembershipFrontier { epoch: Epoch(1) }),
        ("RetireParticipant", WalRecord::RetireParticipant { participant: p(1) }),
        ("Prune", WalRecord::Prune { horizon: Epoch(1) }),
        ("EpochMode", WalRecord::EpochMode { causal: true }),
        (
            "PublishCausal",
            WalRecord::PublishCausal {
                epoch: Epoch(2),
                stamp: CausalStamp::new(p(2), 1, AntichainClock::default()),
                transactions: vec![y],
            },
        ),
        ("Retention", WalRecord::Retention { policy: RetentionPolicy::ConvergedOnly }),
    ]
}

fn wal_dump(dir: &Path) -> (bool, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_wal_dump")).arg(dir).output().unwrap();
    (output.status.success(), String::from_utf8(output.stdout).unwrap())
}

fn fresh_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("orchestra-wal-dump-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

#[test]
fn wal_dump_summarises_every_record_kind_and_flags_a_flipped_byte() {
    let dir = fresh_dir();
    let records = every_kind();
    {
        // `create` writes the `Init` record itself.
        let wal = FileWalBackend::create(&dir, &bioinformatics_schema()).unwrap();
        for (_, record) in &records[1..] {
            wal.append(record).unwrap();
        }
        wal.sync().unwrap();
    }

    let (ok, out) = wal_dump(&dir);
    assert!(ok, "wal_dump failed:\n{out}");
    for (kind, _) in &records {
        let summary = format!("): {kind} ");
        let lines = out.lines().filter(|line| line.contains(&summary)).count();
        assert_eq!(lines, 1, "{kind}: {lines} summary line(s) in\n{out}");
    }
    let files: Vec<&str> = out.lines().filter(|line| line.starts_with("== ")).collect();
    assert_eq!(files.len(), 1, "one file holds every kind:\n{out}");
    assert!(files[0].contains("wal.0.log"), "{out}");
    let intact = format!("{} intact frame(s), no torn tail", records.len());
    assert!(out.lines().any(|line| line.trim() == intact), "the file is intact:\n{out}");
    assert!(!out.contains("MISMATCH"));

    // Flip the first payload byte of the first frame (past its 4-byte
    // length and 4-byte CRC).
    let wal_file = dir.join("wal.0.log");
    let mut bytes = std::fs::read(&wal_file).unwrap();
    bytes[8] ^= 0xff;
    std::fs::write(&wal_file, bytes).unwrap();
    let (_, out) = wal_dump(&dir);
    let mismatch = out.lines().find(|line| line.contains("MISMATCH")).unwrap_or_else(|| {
        panic!("a flipped payload byte went unnoticed:\n{out}");
    });
    assert!(mismatch.contains("frame 0 @ 0"), "got {mismatch}");
    std::fs::remove_dir_all(&dir).ok();
}
