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

use orchestra::{CdssSystem, Participant, ParticipantConfig};
use orchestra_model::schema::bioinformatics_schema;
use orchestra_model::{ParticipantId, TrustPolicy, Tuple, Update};
use orchestra_store::{CentralStore, RetentionPolicy};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "orchestra-recovery-prop-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn p(i: u32) -> ParticipantId {
    ParticipantId(i)
}

const PARTICIPANTS: u32 = 3;

fn policies() -> Vec<TrustPolicy> {
    (1..=PARTICIPANTS)
        .map(|i| {
            let mut policy = TrustPolicy::new(p(i));
            for j in 1..=PARTICIPANTS {
                if i != j {
                    policy = policy.trusting(p(j), 1u32);
                }
            }
            policy
        })
        .collect()
}

/// One step of a generated schedule.
#[derive(Debug, Clone)]
enum Step {
    /// Participant executes an insert-or-modify on a small key space and
    /// publishes it.
    Publish { who: u32, key: u32, value: u32 },
    /// Participant reconciles.
    Reconcile { who: u32 },
    /// Participant resolves every open conflict group, keeping option 0.
    Resolve { who: u32 },
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (1..PARTICIPANTS + 1, 0u32..4, 0u32..3).prop_map(|(who, key, value)| Step::Publish {
            who,
            key,
            value
        }),
        (1..PARTICIPANTS + 1).prop_map(|who| Step::Reconcile { who }),
        (1..PARTICIPANTS + 1).prop_map(|who| Step::Resolve { who }),
    ]
}

fn func(key: u32, value: u32) -> Tuple {
    Tuple::of_text(&["rat", &format!("prot{key}"), &format!("fn{value}")])
}

/// Applies one step; decisions are summarised into `log` so two runs can be
/// compared step for step.
fn apply_step(system: &mut CdssSystem<CentralStore>, step: &Step, log: &mut Vec<String>) {
    match step {
        Step::Publish { who, key, value } => {
            let id = p(*who);
            // Execute whichever of insert/modify applies to the current
            // instance; skip silently if neither does (mirrors a curator
            // abandoning an edit).
            let instance = system.participant(id).expect("participant").instance();
            let tuple = func(*key, *value);
            let at = orchestra_model::KeyValue::of_text(&["rat", &format!("prot{key}")]);
            let update = match instance.value_at("Function", &at) {
                Some(from) if from != tuple => Update::modify("Function", from, tuple, id),
                Some(_) => return,
                None => Update::insert("Function", tuple, id),
            };
            if system.execute(id, vec![update]).is_ok() {
                let epoch = system.publish(id).expect("publish succeeds");
                log.push(format!("publish {who} -> {epoch:?}"));
            }
        }
        Step::Reconcile { who } => {
            let report = system.reconcile(p(*who)).expect("reconcile succeeds");
            let mut accepted = report.accepted.clone();
            accepted.sort();
            let mut rejected = report.rejected.clone();
            rejected.sort();
            let mut deferred = report.deferred.clone();
            deferred.sort();
            log.push(format!(
                "reconcile {who} recno {:?} acc {accepted:?} rej {rejected:?} def {deferred:?}",
                report.recno
            ));
        }
        Step::Resolve { who } => {
            let id = p(*who);
            let groups: Vec<_> = system
                .participant(id)
                .expect("participant")
                .deferred_conflicts()
                .iter()
                .map(|g| g.key.clone())
                .collect();
            if groups.is_empty() {
                return;
            }
            let choices: Vec<orchestra_recon::ResolutionChoice> = groups
                .into_iter()
                .map(|key| orchestra_recon::ResolutionChoice { group: key, chosen_option: Some(0) })
                .collect();
            let outcome = system.resolve_conflicts(id, &choices).expect("resolution succeeds");
            let mut acc = outcome.newly_accepted.clone();
            acc.sort();
            let mut rej = outcome.newly_rejected.clone();
            rej.sort();
            log.push(format!("resolve {who} acc {acc:?} rej {rej:?}"));
        }
    }
}

fn fresh_system(store: CentralStore) -> CdssSystem<CentralStore> {
    let mut system = CdssSystem::new(bioinformatics_schema(), store);
    for policy in policies() {
        system.add_participant(ParticipantConfig::new(policy)).expect("unique participants");
    }
    system
}

fn instances_fingerprint(system: &CdssSystem<CentralStore>) -> Vec<String> {
    system
        .participant_ids()
        .into_iter()
        .map(|id| format!("{:?}", system.participant(id).expect("participant").instance()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For any schedule, crash point and snapshot choice: recovery is
    /// byte-identical and the finished schedule is decision-identical.
    /// `snapshot_at` values past the schedule mean "no snapshot", so the
    /// WAL-replay-only path is exercised too.
    #[test]
    fn recovery_is_equivalent_to_never_crashing(
        steps in prop::collection::vec(step_strategy(), 4..40),
        crash_at in 0usize..40,
        snapshot_raw in 0usize..60,
    ) {
        let crash_at = crash_at.min(steps.len());
        let snapshot_at = (snapshot_raw < 40).then_some(snapshot_raw);

        // Uninterrupted reference run (ephemeral store).
        let mut reference = fresh_system(CentralStore::new(bioinformatics_schema()));
        let mut reference_log = Vec::new();
        for step in &steps {
            apply_step(&mut reference, step, &mut reference_log);
        }

        // Durable run, crashed at `crash_at` (optionally snapshotting at
        // `snapshot_at` if that lands before the crash).
        let dir = scratch_dir();
        let mut system = fresh_system(
            CentralStore::durable(bioinformatics_schema(), &dir).expect("fresh dir"),
        );
        let mut log = Vec::new();
        for (i, step) in steps[..crash_at].iter().enumerate() {
            if snapshot_at == Some(i) {
                system.store().snapshot().expect("snapshot succeeds");
            }
            apply_step(&mut system, step, &mut log);
        }

        // Crash: capture the durable fingerprint, drop all in-memory state.
        let fingerprint = format!("{:?}", system.store().catalog());
        drop(system);

        // Recover the store and rebuild every participant from it alone.
        let store = CentralStore::recover(&dir).expect("store recovers");
        prop_assert_eq!(
            format!("{:?}", store.catalog()),
            fingerprint,
            "recovered durable state diverged"
        );
        let rebuilt: Vec<Participant> = policies()
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
        let mut system = CdssSystem::new(bioinformatics_schema(), store);
        for participant in rebuilt {
            system.adopt_participant(participant).expect("unique participants");
        }

        // Finish the schedule; every remaining decision must match the
        // uninterrupted run's.
        for step in &steps[crash_at..] {
            apply_step(&mut system, step, &mut log);
        }
        // Final catch-up: everyone reconciles once more in both runs.
        for i in 1..=PARTICIPANTS {
            apply_step(&mut reference, &Step::Reconcile { who: i }, &mut reference_log);
            apply_step(&mut system, &Step::Reconcile { who: i }, &mut log);
        }
        prop_assert_eq!(&log, &reference_log, "decision streams diverged");
        prop_assert_eq!(
            instances_fingerprint(&system),
            instances_fingerprint(&reference),
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
    let mut system =
        fresh_system(CentralStore::durable(bioinformatics_schema(), &dir).expect("fresh dir"));
    let mut log = Vec::new();
    apply_step(&mut system, &Step::Publish { who: 1, key: 0, value: 0 }, &mut log);
    apply_step(&mut system, &Step::Publish { who: 2, key: 0, value: 1 }, &mut log);
    apply_step(&mut system, &Step::Reconcile { who: 3 }, &mut log);
    let fingerprint = format!("{:?}", system.store().catalog());
    drop(system);

    let first = CentralStore::recover(&dir).expect("first recovery");
    assert_eq!(format!("{:?}", first.catalog()), fingerprint);
    drop(first);
    let second = CentralStore::recover(&dir).expect("second recovery");
    assert_eq!(format!("{:?}", second.catalog()), fingerprint);
    std::fs::remove_dir_all(&dir).ok();
}

/// A fixed, conflict-bearing schedule: every run of it is deterministic, so
/// durable state may be compared across runs.
fn fixed_schedule() -> Vec<Step> {
    vec![
        Step::Publish { who: 1, key: 0, value: 0 },
        Step::Publish { who: 2, key: 0, value: 1 },
        Step::Reconcile { who: 3 },
        Step::Resolve { who: 3 },
        Step::Publish { who: 3, key: 1, value: 2 },
        Step::Reconcile { who: 1 },
        Step::Resolve { who: 1 },
        Step::Publish { who: 1, key: 2, value: 1 },
        Step::Reconcile { who: 2 },
        Step::Resolve { who: 2 },
        Step::Reconcile { who: 1 },
        Step::Reconcile { who: 2 },
        Step::Reconcile { who: 3 },
    ]
}

/// Runs the fixed schedule on `store`; returns the system and its decision
/// stream.
fn run_fixed_schedule(store: CentralStore) -> (CdssSystem<CentralStore>, Vec<String>) {
    let mut system = fresh_system(store);
    let mut log = Vec::new();
    for step in fixed_schedule() {
        apply_step(&mut system, &step, &mut log);
    }
    (system, log)
}

/// The fixed schedule written through the WAL recovers to the catalogue the
/// live store held, and that catalogue and its decision stream are the ones
/// an ephemeral store reaches (the `Debug` fingerprint excludes the
/// durability backend): writing the per-participant segments changes nothing
/// a participant can observe.
#[test]
fn the_durable_layout_recovers_the_same_catalogue() {
    let dir = scratch_dir();
    let (system, log) =
        run_fixed_schedule(CentralStore::durable(bioinformatics_schema(), &dir).expect("fresh"));
    let fingerprint = format!("{:?}", system.store().catalog());
    drop(system);
    let recovered = CentralStore::recover(&dir).expect("recovery");
    assert_eq!(format!("{:?}", recovered.catalog()), fingerprint, "recovery diverged");

    let (ephemeral, ephemeral_log) = run_fixed_schedule(CentralStore::new(bioinformatics_schema()));
    assert_eq!(format!("{:?}", ephemeral.store().catalog()), fingerprint);
    assert_eq!(ephemeral_log, log);
    std::fs::remove_dir_all(&dir).ok();
}

/// Prune-then-crash and crash-then-prune reach the same durable state (the
/// `Prune` record does not persist the pinned-ancestor closure, so this
/// checks replay re-derives it identically through the segmented merge
/// path).
#[test]
fn pruning_commutes_with_recovery() {
    let dir_a = scratch_dir();
    let (system, _) =
        run_fixed_schedule(CentralStore::durable(bioinformatics_schema(), &dir_a).expect("fresh"));
    system.store().set_retention(RetentionPolicy::ConvergedOnly);
    let report_a = system.store().prune_to_horizon().expect("prune");
    drop(system);
    let recovered_a = CentralStore::recover(&dir_a).expect("recovery after prune");

    let dir_b = scratch_dir();
    let (system, _) =
        run_fixed_schedule(CentralStore::durable(bioinformatics_schema(), &dir_b).expect("fresh"));
    drop(system);
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
    std::fs::write(dir.join("wal.0.log"), encode_frame(&payload)).expect("write segment");
    assert!(matches!(CentralStore::recover(&dir), Err(StorageError::Persistence(_))));
    std::fs::remove_dir_all(&dir).ok();

    // A healthy directory whose snapshot is replaced by a JSON one.
    let dir = scratch_dir();
    let (system, _) =
        run_fixed_schedule(CentralStore::durable(bioinformatics_schema(), &dir).expect("fresh"));
    system.store().snapshot().expect("snapshot succeeds");
    drop(system);
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
    let (system, _) =
        run_fixed_schedule(CentralStore::durable(bioinformatics_schema(), &dir).expect("fresh"));
    system.store().snapshot().expect("snapshot succeeds");
    drop(system);

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
        let mut system =
            fresh_system(CentralStore::durable(bioinformatics_schema(), &dir).expect("fresh dir"));
        let mut log = Vec::new();
        apply_step(&mut system, &Step::Publish { who: 1, key: 0, value: 0 }, &mut log);
        apply_step(&mut system, &Step::Reconcile { who: 2 }, &mut log);
        if !snapshot_last {
            system.store().snapshot().expect("snapshot succeeds");
        }
        apply_step(&mut system, &Step::Publish { who: 2, key: 1, value: 2 }, &mut log);
        apply_step(&mut system, &Step::Reconcile { who: 1 }, &mut log);
        if snapshot_last {
            system.store().snapshot().expect("snapshot succeeds");
            // Nothing after the snapshot: the WAL tail is empty.
            assert_eq!(
                system
                    .store()
                    .catalog()
                    .durability()
                    .file_backend()
                    .expect("durable")
                    .wal_records(),
                0
            );
        }
        let fingerprint = format!("{:?}", system.store().catalog());
        drop(system);
        let recovered = CentralStore::recover(&dir).expect("recovery");
        assert_eq!(format!("{:?}", recovered.catalog()), fingerprint);
        std::fs::remove_dir_all(&dir).ok();
    }
}
