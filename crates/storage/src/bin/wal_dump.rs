//! WAL and snapshot inspection tool.
//!
//! A durability directory holds one WAL file per generation
//! (`wal.<gen>.log`, every record of the generation) plus the snapshot
//! (`snapshot.orc`). The tool pretty-prints either: per-frame offsets,
//! payload lengths, CRCs (with verification), `(epoch, seq)` stamps and
//! one-line record summaries. The stamp is informational: recovery replays
//! the frames in file order. The tool never writes — point it at a live
//! directory or a torn-tail report and read.
//!
//! ```text
//! wal_dump <file>...          dump the given wal.<gen>.log / snapshot.orc files
//! wal_dump <dir>              dump every wal.<gen>.log and snapshot.orc in dir
//! ```

use orchestra_storage::codec::{decode_record, decode_snapshot};
use orchestra_storage::segment::parse_stamp;
use orchestra_storage::wal::{crc32, WalRecord};
use orchestra_storage::Decision;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("usage: wal_dump <wal.<gen>.log|snapshot.orc|durability-dir>...");
        eprintln!("  prints frame offsets, CRCs, (epoch, seq) stamps and record summaries;");
        eprintln!("  the stamp is informational: recovery replays frames in file order");
        return if args.is_empty() { ExitCode::FAILURE } else { ExitCode::SUCCESS };
    }
    let mut failed = false;
    for arg in &args {
        let path = Path::new(arg);
        let files = if path.is_dir() { dir_files(path) } else { vec![path.to_path_buf()] };
        if files.is_empty() {
            eprintln!("{}: no wal.<gen>.log or snapshot.orc found", path.display());
            failed = true;
        }
        for file in files {
            if let Err(e) = dump_file(&file) {
                eprintln!("{}: {e}", file.display());
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// The dumpable files of a durability directory: every WAL generation file
/// (sorted) then the snapshot.
fn dir_files(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut snapshot = None;
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if name.starts_with("wal.") && name.ends_with(".log") {
                files.push(entry.path());
            } else if name == "snapshot.orc" {
                snapshot = Some(entry.path());
            }
        }
    }
    files.sort();
    files.extend(snapshot);
    files
}

fn dump_file(path: &Path) -> Result<(), String> {
    let bytes = std::fs::read(path).map_err(|e| format!("read: {e}"))?;
    let is_snapshot = path.file_name().and_then(|n| n.to_str()) == Some("snapshot.orc");
    println!("== {} ({} bytes) ==", path.display(), bytes.len());
    let mut pos = 0usize;
    let mut frame_no = 0u64;
    while pos < bytes.len() {
        let Some(header) = bytes.get(pos..pos + 8) else {
            println!("  torn tail at offset {pos}: {} trailing byte(s)", bytes.len() - pos);
            break;
        };
        let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes")) as usize;
        let stored_crc = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
        let Some(payload) = bytes.get(pos + 8..pos + 8 + len) else {
            println!(
                "  torn tail at offset {pos}: frame claims {len} payload byte(s), {} remain",
                bytes.len() - pos - 8
            );
            break;
        };
        let actual_crc = crc32(payload);
        let crc_note = if actual_crc == stored_crc {
            "ok".to_string()
        } else {
            format!("MISMATCH (stored {stored_crc:#010x}, actual {actual_crc:#010x})")
        };
        print!("  frame {frame_no} @ {pos}: len {len}, crc {stored_crc:#010x} [{crc_note}]");
        if actual_crc != stored_crc {
            println!();
            println!("  stopping at corrupt frame (replay would truncate here)");
            break;
        }
        if is_snapshot {
            println!();
            describe_snapshot(payload);
        } else {
            describe_record(payload);
        }
        pos += 8 + len;
        frame_no += 1;
    }
    if pos == bytes.len() {
        println!("  {frame_no} intact frame(s), no torn tail");
    }
    println!();
    Ok(())
}

/// Prints the stamp and a one-line summary of a WAL frame payload.
fn describe_record(payload: &[u8]) {
    match parse_stamp(payload) {
        Ok((stamp, record_bytes)) => {
            let causal = match stamp.stamp {
                Some(id) => format!(", causal {id}"),
                None => String::new(),
            };
            let note = format!("stamp (epoch {}, seq {}{causal})", stamp.epoch, stamp.seq);
            match decode_record(record_bytes) {
                Ok(record) => println!(", {note}: {}", summarise(&record)),
                Err(e) => println!(", {note}: undecodable: {e}"),
            }
        }
        Err(e) => println!(", unstamped or corrupt payload: {e}"),
    }
}

/// Prints a summary of a snapshot frame payload.
fn describe_snapshot(payload: &[u8]) {
    match decode_snapshot(payload) {
        Ok(snap) => {
            println!(
                "  snapshot: generation {}, {} epoch record(s), {} log entr(ies), \
                 {} participant(s), membership frontier {}, pruned through {}, retention {:?}",
                snap.wal_generation,
                snap.registry.len(),
                snap.log.len(),
                snap.participants.len(),
                snap.membership_frontier.as_u64(),
                snap.pruned_through.as_u64(),
                snap.retention,
            );
            let causal = snap.registry.causal();
            if causal.is_enabled() {
                println!(
                    "    causal mode: frontier {}, {} live DAG node(s)",
                    causal.frontier(),
                    causal.len(),
                );
            }
            for p in &snap.participants {
                let accepted = p.record.with_decision(Decision::Accepted).len();
                let rejected = p.record.with_decision(Decision::Rejected).len();
                println!(
                    "    p{}: registered={}, retired={}, cursor={:?}, +{accepted} -{rejected}",
                    p.id.as_u32(),
                    p.registered,
                    p.retired,
                    p.cursor.map(|e| e.as_u64()),
                );
            }
        }
        Err(e) => println!("  undecodable snapshot: {e}"),
    }
}

fn summarise(record: &WalRecord) -> String {
    match record {
        WalRecord::Init { schema } => {
            format!("Init ({} relation(s))", schema.relations().count())
        }
        WalRecord::RegisterPolicy { policy } => format!(
            "RegisterPolicy p{} ({} rule(s))",
            policy.owner().as_u32(),
            policy.rules().len()
        ),
        WalRecord::Publish { participant, epoch, transactions } => format!(
            "Publish p{} epoch {} ({} txn(s), {} update(s))",
            participant.as_u32(),
            epoch.as_u64(),
            transactions.len(),
            transactions.iter().map(|t| t.updates().len()).sum::<usize>(),
        ),
        WalRecord::CommitReconciliation { participant, recno, epoch, accepted, rejected } => {
            format!(
                "CommitReconciliation p{} recno {} epoch {} (+{} -{})",
                participant.as_u32(),
                recno.0,
                epoch.as_u64(),
                accepted.len(),
                rejected.len(),
            )
        }
        WalRecord::Decisions { participant, accepted, rejected } => {
            format!("Decisions p{} (+{} -{})", participant.as_u32(), accepted.len(), rejected.len())
        }
        WalRecord::MembershipFrontier { epoch } => {
            format!("MembershipFrontier epoch {}", epoch.as_u64())
        }
        WalRecord::RetireParticipant { participant } => {
            format!("RetireParticipant p{}", participant.as_u32())
        }
        WalRecord::Prune { horizon } => format!("Prune through epoch {}", horizon.as_u64()),
        WalRecord::EpochMode { causal } => {
            format!("EpochMode {}", if *causal { "causal" } else { "scalar" })
        }
        WalRecord::PublishCausal { epoch, stamp, transactions } => format!(
            "PublishCausal {} arrival epoch {} ({} txn(s), {} update(s)); parents {}",
            stamp.id(),
            epoch.as_u64(),
            transactions.len(),
            transactions.iter().map(|t| t.updates().len()).sum::<usize>(),
            stamp.parents,
        ),
        WalRecord::Retention { policy } => format!("Retention {policy:?}"),
    }
}
