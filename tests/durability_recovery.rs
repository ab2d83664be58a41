//! Crash-recovery equivalence: a catalogue recovered from its durability
//! directory (snapshot + WAL replay) must be byte-identical to the live one
//! and must drive every subsequent decision identically.
//!
//! The property test generates arbitrary publish/reconcile/resolve schedules
//! over a small confederation and runs each twice: uninterrupted, and with a
//! [`Step::Crash`] of the store at an arbitrary point, optionally preceded by
//! a compacting [`Step::Snapshot`], and followed by a [`Step::Rebuild`] of
//! every participant from the recovered store alone. It checks:
//!
//! * the recovered catalogue's durable-state `Debug` rendering is identical
//!   to the live store's at the crash point (the crash step refuses it
//!   otherwise);
//! * the finished schedule reaches decisions identical to the uninterrupted
//!   run — the instance, the own-publish delta *and* the deferred conflict
//!   state all survive the crash.

mod common;

use common::Turn::{EditPublish, Reconcile, Resolve};
use common::{logged, p, Turn};
use orchestra_model::schema::bioinformatics_schema;
use orchestra_store::{CentralStore, RetentionPolicy, UpdateStore};
use orchestra_workload::{Confederation, Driver, Step};
use proptest::prelude::*;
use std::path::{Path, PathBuf};

fn scratch_dir() -> PathBuf {
    common::scratch_dir("recovery-prop")
}

const PARTICIPANTS: u32 = 3;

fn fresh(store: CentralStore) -> Confederation<CentralStore> {
    common::confederation(store, PARTICIPANTS)
}

fn durable(dir: &Path) -> CentralStore {
    CentralStore::durable(bioinformatics_schema(), dir).expect("fresh dir")
}

fn everyone() -> Vec<orchestra_model::ParticipantId> {
    (1..=PARTICIPANTS).map(p).collect()
}

fn crash(conf: &mut Confederation<CentralStore>) {
    conf.apply(&Step::Crash, &Driver::sequential()).expect("the store restarts byte-identically");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For any schedule, crash point and snapshot choice: recovery is
    /// byte-identical and the finished schedule is decision-identical.
    /// `snapshot_at` values past the schedule mean "no snapshot", so the
    /// WAL-replay-only path is exercised too. A turn executes an
    /// insert-or-modify on a small key space and publishes it, reconciles,
    /// or resolves every open conflict group.
    #[test]
    fn recovery_is_equivalent_to_never_crashing(
        turns in common::schedule(PARTICIPANTS, 4, 3, &[EditPublish, Reconcile, Resolve], 4..40),
        crash_at in 0usize..40,
        snapshot_raw in 0usize..60,
    ) {
        let crash_at = crash_at.min(turns.len());
        let snapshot_at = (snapshot_raw < 40).then_some(snapshot_raw);

        // The same schedule over a durable store, with a snapshot before
        // turn `snapshot_at` if that lands before the crash, and before turn
        // `crash_at` the crash, after which every participant is rebuilt from
        // the store alone. Both runs end with everyone reconciling once more.
        let mut crashed = Vec::new();
        for i in 0..=turns.len() {
            if snapshot_at == Some(i) && i < crash_at {
                crashed.push(Step::Snapshot);
            }
            if i == crash_at {
                crashed.extend([Step::Crash, Step::Rebuild(everyone())]);
            }
            crashed.extend(turns.get(i).into_iter().flatten().cloned());
        }
        crashed.push(Step::Reconcile(everyone()));
        let uninterrupted = [turns.concat(), vec![Step::Reconcile(everyone())]].concat();

        let mut reference = fresh(CentralStore::new(bioinformatics_schema()));
        let mut reference_log = Vec::new();
        logged(&mut reference, &uninterrupted, &mut reference_log);
        let dir = scratch_dir();
        let mut conf = fresh(durable(&dir));
        let mut log = Vec::new();
        logged(&mut conf, &crashed, &mut log);

        // Every decision after the crash matches the uninterrupted run's.
        prop_assert_eq!(&log, &reference_log, "decision streams diverged");
        prop_assert_eq!(
            common::snapshot(&conf.system),
            common::snapshot(&reference.system),
            "final instances diverged"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A crashed store that is recovered *twice* (crash during recovery-use) is
/// still byte-identical — recovery does not consume or corrupt the log.
#[test]
fn recovery_is_idempotent() {
    let dir = scratch_dir();
    let mut conf = fresh(durable(&dir));
    let steps = schedule(&[(EditPublish, 1, 0, 0), (EditPublish, 2, 0, 1), (Reconcile, 3, 0, 0)]);
    logged(&mut conf, &steps, &mut Vec::new());
    // Replay runs before the write side is attached, so a recovery appends
    // nothing: the WAL holds exactly what the live store wrote.
    let wal = |conf: &Confederation<CentralStore>| {
        let durability = conf.system.store().catalog().durability();
        let backend = durability.file_backend().expect("durable store");
        (backend.wal_records(), backend.wal_bytes())
    };
    let written = wal(&conf);
    for recovery in ["first", "second"] {
        crash(&mut conf);
        assert_eq!(wal(&conf), written, "the {recovery} recovery appended to the WAL");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The steps of a hand-written sequence of `(kind, who, key, value)` turns.
fn schedule(turns: &[(Turn, u32, usize, usize)]) -> Vec<Step> {
    turns
        .iter()
        .flat_map(|&(kind, who, key, value)| common::turn(kind, p(who), &[], key, value))
        .collect()
}

/// A fixed, conflict-bearing schedule: every run of it is deterministic, so
/// durable state may be compared across runs.
fn fixed_schedule() -> Vec<Step> {
    let mut steps = schedule(&[
        (EditPublish, 1, 0, 0),
        (EditPublish, 2, 0, 1),
        (Reconcile, 3, 0, 0),
        (Resolve, 3, 0, 0),
        (EditPublish, 3, 1, 2),
        (Reconcile, 1, 0, 0),
        (Resolve, 1, 0, 0),
        (EditPublish, 1, 2, 1),
        (Reconcile, 2, 0, 0),
        (Resolve, 2, 0, 0),
    ]);
    steps.push(Step::Reconcile(everyone()));
    steps
}

/// Runs the fixed schedule on `store`; returns the confederation and its
/// decision stream.
fn run_fixed_schedule(store: CentralStore) -> (Confederation<CentralStore>, Vec<String>) {
    let mut conf = fresh(store);
    let mut log = Vec::new();
    logged(&mut conf, &fixed_schedule(), &mut log);
    (conf, log)
}

/// The fixed schedule written through the WAL recovers to the catalogue the
/// live store held, and that catalogue and its decision stream are the ones
/// an ephemeral store reaches (the `Debug` fingerprint excludes the
/// durability backend): writing every record to the generation's one
/// `wal.<gen>.log` file changes nothing a participant can observe.
#[test]
fn the_durable_layout_recovers_the_same_catalogue() {
    let dir = scratch_dir();
    let (mut conf, log) = run_fixed_schedule(durable(&dir));
    crash(&mut conf);
    let (ephemeral, ephemeral_log) = run_fixed_schedule(CentralStore::new(bioinformatics_schema()));
    assert_eq!(
        format!("{:?}", ephemeral.system.store().catalog()),
        format!("{:?}", conf.system.store().catalog())
    );
    assert_eq!(ephemeral_log, log);
    std::fs::remove_dir_all(&dir).ok();
}

/// Prune-then-crash and crash-then-prune reach the same durable state (the
/// `Prune` record does not persist the pinned-ancestor closure, so this
/// checks that replaying the one `wal.<gen>.log` file re-derives it
/// identically).
#[test]
fn pruning_commutes_with_recovery() {
    let run = |events: [Step; 2]| {
        let dir = scratch_dir();
        let (mut conf, _) = run_fixed_schedule(durable(&dir));
        conf.system.store().set_retention(RetentionPolicy::ConvergedOnly);
        let mut report = None;
        for event in &events {
            let outcome = conf.apply(event, &Driver::sequential()).expect("step succeeds");
            report = report.or(outcome.pruned);
        }
        std::fs::remove_dir_all(&dir).ok();
        (report.expect("a prune report").is_noop(), format!("{:?}", conf.system.store().catalog()))
    };
    assert_eq!(
        run([Step::Prune, Step::Crash]),
        run([Step::Crash, Step::Prune]),
        "prune and recovery do not commute"
    );
}

/// A directory holding a frame that is intact (length and CRC hold) but
/// whose record does not start with the codec's magic byte — here the JSON
/// text the removed debug codec wrote — is refused with a typed error, for
/// the WAL and for the snapshot alike. It is not a second format to sniff,
/// and it is not a torn tail to truncate silently.
#[test]
fn recovery_refuses_a_frame_without_the_magic_byte() {
    use orchestra_storage::wal::encode_frame;
    use orchestra_storage::StorageError;

    // A generation-0 log whose only frame is a stamped JSON `Init` record.
    let dir = scratch_dir();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let mut payload = vec![0, 0, 0, 0]; // stamp: epoch 0, seq 0, no causal id
    payload.extend_from_slice(br#"{"Init":{"schema":{"relations":[],"constraints":[]}}}"#);
    std::fs::write(dir.join("wal.0.log"), encode_frame(&payload)).expect("write wal.0.log");
    assert!(matches!(CentralStore::recover(&dir), Err(StorageError::Persistence(_))));
    std::fs::remove_dir_all(&dir).ok();

    // A healthy directory whose snapshot is replaced by a JSON one.
    let dir = scratch_dir();
    let (conf, _) = run_fixed_schedule(durable(&dir));
    conf.system.store().snapshot().expect("snapshot succeeds");
    drop(conf);
    CentralStore::recover(&dir).expect("the binary snapshot recovers");
    let json = br#"{"schema":{"relations":[],"constraints":[]},"wal_generation":1}"#;
    std::fs::write(orchestra_storage::snapshot::snapshot_path(&dir), encode_frame(json))
        .expect("write snapshot");
    assert!(matches!(CentralStore::recover(&dir), Err(StorageError::Persistence(_))));
    std::fs::remove_dir_all(&dir).ok();
}

/// The compacting snapshot round-trips through the codec: re-encoding the
/// snapshot read back from disk decodes to the same state, byte for byte.
#[test]
fn snapshot_round_trips_through_the_codec() {
    let dir = scratch_dir();
    let (conf, _) = run_fixed_schedule(durable(&dir));
    conf.system.store().snapshot().expect("snapshot succeeds");
    drop(conf);

    let snapshot = orchestra_storage::snapshot::read_snapshot(&dir)
        .expect("snapshot reads")
        .expect("snapshot present");
    let bytes = orchestra_storage::codec::encode_snapshot(&snapshot);
    let decoded = orchestra_storage::codec::decode_snapshot(&bytes).expect("decodes");
    assert_eq!(format!("{decoded:?}"), format!("{snapshot:?}"));
    assert_eq!(orchestra_storage::codec::encode_snapshot(&decoded), bytes);
    std::fs::remove_dir_all(&dir).ok();
}

/// A snapshot taken right before the crash leaves nothing to replay; one
/// taken earlier leaves a WAL tail. Both must recover byte-identically.
#[test]
fn snapshot_positions_do_not_change_recovery() {
    for snapshot_last in [false, true] {
        let dir = scratch_dir();
        let mut conf = fresh(durable(&dir));
        let snapshot = |last: bool| (last == snapshot_last).then_some(Step::Snapshot);
        let mut steps = schedule(&[(EditPublish, 1, 0, 0), (Reconcile, 2, 0, 0)]);
        steps.extend(snapshot(false));
        steps.extend(schedule(&[(EditPublish, 2, 1, 2), (Reconcile, 1, 0, 0)]));
        steps.extend(snapshot(true));
        logged(&mut conf, &steps, &mut Vec::new());
        // Nothing after a last snapshot: the WAL tail is empty.
        let durability = conf.system.store().catalog().durability();
        let tail = durability.file_backend().expect("durable").wal_records();
        assert_eq!(tail == 0, snapshot_last);
        crash(&mut conf);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Copies a durability directory's files, as a crash that keeps the disk
/// would leave them, so the copy recovers while the original keeps running.
fn copy_dir(from: &Path) -> PathBuf {
    let to = scratch_dir();
    std::fs::create_dir_all(&to).expect("scratch dir");
    for entry in std::fs::read_dir(from).expect("read durability dir") {
        let entry = entry.expect("dir entry");
        std::fs::copy(entry.path(), to.join(entry.file_name())).expect("copy");
    }
    to
}

/// The retention policy is durable state: a `ConvergedOnly` store recovered
/// through `CentralStore::recover` — which, unlike a restart, knows nothing
/// of the store that crashed — reports `ConvergedOnly`, whether the policy
/// comes back from the WAL or from a snapshot taken after it was set, and
/// then prunes exactly as its uncrashed twin does.
#[test]
fn a_recovered_store_keeps_its_retention_policy() {
    for snapshot in [false, true] {
        let dir = scratch_dir();
        let (conf, _) = run_fixed_schedule(durable(&dir));
        let live = conf.system.store();
        live.set_retention(RetentionPolicy::ConvergedOnly);
        live.catalog().close_membership().expect("membership closes");
        if snapshot {
            live.snapshot().expect("snapshot succeeds");
        }
        let copy = copy_dir(&dir);
        let recovered = CentralStore::recover(&copy).expect("the copy recovers");
        assert_eq!(recovered.retention(), RetentionPolicy::ConvergedOnly, "snapshot: {snapshot}");

        let report = live.prune_to_horizon().expect("the live store prunes");
        assert!(!report.is_noop(), "the schedule leaves converged history to prune");
        assert_eq!(recovered.prune_to_horizon().expect("the recovered store prunes"), report);
        assert_eq!(format!("{:?}", recovered.catalog()), format!("{:?}", live.catalog()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&copy).ok();
    }
}
