//! Crash-recovery equivalence: a catalogue recovered from its durability
//! directory (snapshot + WAL replay) must be byte-identical to the live one
//! and must drive every subsequent decision identically.
//!
//! The property test generates arbitrary publish/reconcile/resolve schedules
//! over a small confederation, optionally takes a compacting snapshot midway,
//! "crashes" at an arbitrary point, recovers, and checks:
//!
//! * the recovered catalogue's durable-state `Debug` rendering is identical
//!   to the live store's at the crash point;
//! * rebuilding every participant from the recovered store and finishing the
//!   schedule reaches decisions identical to the uninterrupted run — the
//!   instance, the own-publish delta *and* the deferred conflict state all
//!   survive the crash.

mod common;

use common::Turn::{EditPublish, Reconcile, Resolve};
use common::{p, Turn};
use orchestra::{Participant, ParticipantConfig};
use orchestra_model::schema::bioinformatics_schema;
use orchestra_store::{CentralStore, RetentionPolicy};
use orchestra_workload::{mutual_trust_policies, Confederation, Driver, Step};
use proptest::prelude::*;
use std::path::PathBuf;

fn scratch_dir() -> PathBuf {
    common::scratch_dir("recovery-prop")
}

const PARTICIPANTS: u32 = 3;

/// Applies the steps; their decisions are summarised into `log` so two runs
/// can be compared step for step.
fn apply(conf: &mut Confederation<CentralStore>, steps: &[Step], log: &mut Vec<String>) {
    conf.run(steps, &Driver::sequential(), |outcome| log.push(common::decisions(&outcome)))
        .expect("step succeeds");
}

fn fresh(store: CentralStore) -> Confederation<CentralStore> {
    common::confederation(store, PARTICIPANTS)
}

fn everyone() -> Step {
    Step::Reconcile((1..=PARTICIPANTS).map(p).collect())
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

        // Uninterrupted reference run (ephemeral store).
        let mut reference = fresh(CentralStore::new(bioinformatics_schema()));
        let mut reference_log = Vec::new();
        apply(&mut reference, &turns.concat(), &mut reference_log);

        // Durable run, crashed at `crash_at` (optionally snapshotting at
        // `snapshot_at` if that lands before the crash).
        let dir = scratch_dir();
        let mut conf = fresh(
            CentralStore::durable(bioinformatics_schema(), &dir).expect("fresh dir"),
        );
        let mut log = Vec::new();
        for (i, turn) in turns[..crash_at].iter().enumerate() {
            if snapshot_at == Some(i) {
                conf.system.store().snapshot().expect("snapshot succeeds");
            }
            apply(&mut conf, turn, &mut log);
        }

        // Crash: capture the durable fingerprint, drop all in-memory state.
        let fingerprint = format!("{:?}", conf.system.store().catalog());
        drop(conf);

        // Recover the store and rebuild every participant from it alone.
        let store = CentralStore::recover(&dir).expect("store recovers");
        prop_assert_eq!(
            format!("{:?}", store.catalog()),
            fingerprint,
            "recovered durable state diverged"
        );
        let rebuilt: Vec<Participant> = mutual_trust_policies(PARTICIPANTS as usize, 1)
            .into_iter()
            .map(|policy| {
                Participant::rebuild_from_store(
                    bioinformatics_schema(),
                    ParticipantConfig::new(policy),
                    &store,
                )
                .expect("participant rebuilds")
            })
            .collect();
        let mut conf = common::adopt(store, rebuilt);

        // Finish the schedule; every remaining decision must match the
        // uninterrupted run's.
        apply(&mut conf, &turns[crash_at..].concat(), &mut log);
        // Final catch-up: everyone reconciles once more in both runs.
        apply(&mut reference, &[everyone()], &mut reference_log);
        apply(&mut conf, &[everyone()], &mut log);
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
    let mut conf = fresh(CentralStore::durable(bioinformatics_schema(), &dir).expect("fresh dir"));
    let steps = schedule(&[(EditPublish, 1, 0, 0), (EditPublish, 2, 0, 1), (Reconcile, 3, 0, 0)]);
    apply(&mut conf, &steps, &mut Vec::new());
    let fingerprint = format!("{:?}", conf.system.store().catalog());
    // Replay runs before the write side is attached, so a recovery appends
    // nothing: the WAL holds exactly what the live store wrote.
    let wal = |store: &CentralStore| {
        let backend = store.catalog().durability().file_backend().expect("durable store");
        (backend.wal_records(), backend.wal_bytes())
    };
    let written = wal(conf.system.store());
    drop(conf);

    let first = CentralStore::recover(&dir).expect("first recovery");
    assert_eq!(format!("{:?}", first.catalog()), fingerprint);
    assert_eq!(wal(&first), written, "the first recovery appended to the WAL");
    drop(first);
    let second = CentralStore::recover(&dir).expect("second recovery");
    assert_eq!(format!("{:?}", second.catalog()), fingerprint);
    assert_eq!(wal(&second), written, "the second recovery appended to the WAL");
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
    steps.push(everyone());
    steps
}

/// Runs the fixed schedule on `store`; returns the confederation and its
/// decision stream.
fn run_fixed_schedule(store: CentralStore) -> (Confederation<CentralStore>, Vec<String>) {
    let mut conf = fresh(store);
    let mut log = Vec::new();
    apply(&mut conf, &fixed_schedule(), &mut log);
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
    let (conf, log) =
        run_fixed_schedule(CentralStore::durable(bioinformatics_schema(), &dir).expect("fresh"));
    let fingerprint = format!("{:?}", conf.system.store().catalog());
    drop(conf);
    let recovered = CentralStore::recover(&dir).expect("recovery");
    assert_eq!(format!("{:?}", recovered.catalog()), fingerprint, "recovery diverged");

    let (ephemeral, ephemeral_log) = run_fixed_schedule(CentralStore::new(bioinformatics_schema()));
    assert_eq!(format!("{:?}", ephemeral.system.store().catalog()), fingerprint);
    assert_eq!(ephemeral_log, log);
    std::fs::remove_dir_all(&dir).ok();
}

/// Prune-then-crash and crash-then-prune reach the same durable state (the
/// `Prune` record does not persist the pinned-ancestor closure, so this
/// checks that replaying the one `wal.<gen>.log` file re-derives it
/// identically).
#[test]
fn pruning_commutes_with_recovery() {
    let dir_a = scratch_dir();
    let (conf, _) =
        run_fixed_schedule(CentralStore::durable(bioinformatics_schema(), &dir_a).expect("fresh"));
    conf.system.store().set_retention(RetentionPolicy::ConvergedOnly);
    let report_a = conf.system.store().prune_to_horizon().expect("prune");
    drop(conf);
    let recovered_a = CentralStore::recover(&dir_a).expect("recovery after prune");

    let dir_b = scratch_dir();
    let (conf, _) =
        run_fixed_schedule(CentralStore::durable(bioinformatics_schema(), &dir_b).expect("fresh"));
    drop(conf);
    let recovered_b = CentralStore::recover(&dir_b).expect("recovery before prune");
    recovered_b.set_retention(RetentionPolicy::ConvergedOnly);
    let report_b = recovered_b.prune_to_horizon().expect("prune after recovery");

    assert_eq!(report_a.is_noop(), report_b.is_noop());
    assert_eq!(
        format!("{:?}", recovered_a.catalog()),
        format!("{:?}", recovered_b.catalog()),
        "prune and recovery do not commute"
    );
    std::fs::remove_dir_all(&dir_a).ok();
    std::fs::remove_dir_all(&dir_b).ok();
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
    let (conf, _) =
        run_fixed_schedule(CentralStore::durable(bioinformatics_schema(), &dir).expect("fresh"));
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
    let (conf, _) =
        run_fixed_schedule(CentralStore::durable(bioinformatics_schema(), &dir).expect("fresh"));
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
        let mut conf =
            fresh(CentralStore::durable(bioinformatics_schema(), &dir).expect("fresh dir"));
        let mut log = Vec::new();
        apply(&mut conf, &schedule(&[(EditPublish, 1, 0, 0), (Reconcile, 2, 0, 0)]), &mut log);
        if !snapshot_last {
            conf.system.store().snapshot().expect("snapshot succeeds");
        }
        apply(&mut conf, &schedule(&[(EditPublish, 2, 1, 2), (Reconcile, 1, 0, 0)]), &mut log);
        if snapshot_last {
            conf.system.store().snapshot().expect("snapshot succeeds");
            // Nothing after the snapshot: the WAL tail is empty.
            let durability = conf.system.store().catalog().durability();
            assert_eq!(durability.file_backend().expect("durable").wal_records(), 0);
        }
        let fingerprint = format!("{:?}", conf.system.store().catalog());
        drop(conf);
        let recovered = CentralStore::recover(&dir).expect("recovery");
        assert_eq!(format!("{:?}", recovered.catalog()), fingerprint);
        std::fs::remove_dir_all(&dir).ok();
    }
}
