//! Decision invariance of convergence-horizon retention: for arbitrary
//! schedules × retention policies × prune points × crash points, a pruned
//! store and an unpruned store drive **identical decisions**, and pruning
//! commutes with crash recovery byte-for-byte.
//!
//! The property test generates arbitrary publish/reconcile/resolve schedules
//! over a small fully-trusting confederation (with an optional mid-schedule
//! retirement), and runs the schedule twice:
//!
//! * the **reference** run over an ephemeral `KeepAll` store that never
//!   prunes;
//! * the **pruned** run over a *durable* store under a generated policy
//!   (`ConvergedOnly` or `KeepLastN`), pruning at arbitrary step indices and
//!   crashing (dropping the store, keeping the clients) at an arbitrary
//!   point.
//!
//! Checks: the recovered store is byte-identical to the pre-crash one (prune
//! records replay deterministically); recover-then-prune equals
//! prune-then-recover; every decision in the step log, every durable
//! accept/reject set and every final instance matches the reference run.

use orchestra::{Participant, ParticipantConfig};
use orchestra_model::schema::bioinformatics_schema;
use orchestra_model::{ParticipantId, TrustPolicy, Tuple, Update};
use orchestra_store::{CentralStore, RetentionPolicy, UpdateStore};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "orchestra-retention-prop-{}-{}",
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

fn participants() -> Vec<Participant> {
    policies()
        .into_iter()
        .map(|policy| Participant::new(bioinformatics_schema(), ParticipantConfig::new(policy)))
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

fn policy_strategy() -> impl Strategy<Value = RetentionPolicy> {
    // 0 ⇒ ConvergedOnly, 1..=3 ⇒ KeepLastN(n - 1); the vendored proptest
    // has no `Just`, so the constant arm is encoded in the range.
    (0u64..4).prop_map(|n| match n {
        0 => RetentionPolicy::ConvergedOnly,
        n => RetentionPolicy::KeepLastN(n - 1),
    })
}

fn func(key: u32, value: u32) -> Tuple {
    Tuple::of_text(&["rat", &format!("prot{key}"), &format!("fn{value}")])
}

/// Applies one step against a store + client set; decisions are summarised
/// into `log` so two runs can be compared step for step. The last retired
/// participant (if any) is skipped — retirement happens in both runs.
fn apply_step(
    participants: &mut [Participant],
    store: &CentralStore,
    step: &Step,
    retired: Option<u32>,
    log: &mut Vec<String>,
) {
    let who = match step {
        Step::Publish { who, .. } | Step::Reconcile { who } | Step::Resolve { who } => *who,
    };
    if retired == Some(who) {
        return;
    }
    let participant = &mut participants[(who - 1) as usize];
    match step {
        Step::Publish { key, value, .. } => {
            let id = p(who);
            let tuple = func(*key, *value);
            let at = orchestra_model::KeyValue::of_text(&["rat", &format!("prot{key}")]);
            let update = match participant.instance().value_at("Function", &at) {
                Some(from) if from != tuple => Update::modify("Function", from, tuple, id),
                Some(_) => return,
                None => Update::insert("Function", tuple, id),
            };
            if participant.execute_transaction(vec![update]).is_ok() {
                let epoch = participant.publish(store).expect("publish succeeds");
                log.push(format!("publish {who} -> {epoch:?}"));
            }
        }
        Step::Reconcile { .. } => {
            let report = participant.reconcile(store).expect("reconcile succeeds");
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
        Step::Resolve { .. } => {
            let groups: Vec<_> =
                participant.deferred_conflicts().iter().map(|g| g.key.clone()).collect();
            if groups.is_empty() {
                return;
            }
            let choices: Vec<orchestra_recon::ResolutionChoice> = groups
                .into_iter()
                .map(|key| orchestra_recon::ResolutionChoice { group: key, chosen_option: Some(0) })
                .collect();
            let outcome =
                participant.resolve_conflicts(store, &choices).expect("resolution succeeds");
            let mut acc = outcome.newly_accepted.clone();
            acc.sort();
            let mut rej = outcome.newly_rejected.clone();
            rej.sort();
            log.push(format!("resolve {who} acc {acc:?} rej {rej:?}"));
        }
    }
}

/// Registers every policy and closes membership — identical setup on both
/// stores, so the frontier semantics (not the pruning) fix late-join
/// behaviour.
fn setup(store: &CentralStore) {
    for policy in policies() {
        store.register_participant(policy);
    }
    store.catalog().close_membership().expect("close membership");
}

/// The per-participant durable accept/reject sets, sorted for comparison.
fn decision_sets(store: &CentralStore) -> Vec<(Vec<String>, Vec<String>)> {
    (1..=PARTICIPANTS)
        .map(|i| {
            let mut acc: Vec<String> =
                store.accepted_set(p(i)).iter().map(|id| id.to_string()).collect();
            acc.sort();
            let mut rej: Vec<String> =
                store.rejected_set(p(i)).iter().map(|id| id.to_string()).collect();
            rej.sort();
            (acc, rej)
        })
        .collect()
}

fn instances_fingerprint(participants: &[Participant]) -> Vec<String> {
    participants.iter().map(|participant| format!("{:?}", participant.instance())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// For any schedule, retention policy, prune points and crash point:
    /// pruned ≡ unpruned decisions, and prune commutes with recovery.
    #[test]
    fn pruning_never_changes_decisions(
        steps in prop::collection::vec(step_strategy(), 6..40),
        policy in policy_strategy(),
        prune_at in prop::collection::vec(0usize..40, 0..4),
        crash_at in 0usize..40,
        retire_raw in 0usize..80,
    ) {
        let crash_at = crash_at.min(steps.len());
        // A retirement point inside the schedule (participant 3) half the
        // time; past-the-end values mean "never retire".
        let retire_at = (retire_raw < 40).then_some(retire_raw.min(steps.len()));

        // Reference: ephemeral KeepAll store, never pruned, same schedule.
        let reference_store = CentralStore::new(bioinformatics_schema());
        setup(&reference_store);
        let mut reference_clients = participants();
        let mut reference_log = Vec::new();

        // Pruned run: durable store under the generated policy.
        let dir = scratch_dir();
        let store = CentralStore::durable(bioinformatics_schema(), &dir).expect("fresh dir");
        store.set_retention(policy);
        setup(&store);
        let mut clients = participants();
        let mut log = Vec::new();

        let mut retired: Option<u32> = None;
        let mut store = Some(store);
        for (i, step) in steps.iter().enumerate() {
            if retire_at == Some(i) {
                // Retire participant 3 in both runs: it stops pinning the
                // horizon and is skipped from here on.
                reference_store.retire_participant(p(3)).expect("retire succeeds");
                store.as_ref().unwrap().retire_participant(p(3)).expect("retire succeeds");
                retired = Some(3);
            }
            if prune_at.contains(&i) {
                // Prune only the retention store; the reference keeps all.
                store.as_ref().unwrap().prune_to_horizon().expect("prune succeeds");
            }
            if crash_at == i {
                // Crash: the store's memory is lost (clients keep theirs —
                // the store is a separate process). Recovery must be
                // byte-identical, including every prune replay.
                let live = format!("{:?}", store.as_ref().unwrap().catalog());
                // Prune-then-recover ≡ recover-then-prune: an ephemeral twin
                // pruned now must match the recovered store pruned after.
                let twin = store.as_ref().unwrap().clone();
                drop(store.take());
                let recovered = CentralStore::recover(&dir).expect("store recovers");
                prop_assert_eq!(
                    format!("{:?}", recovered.catalog()),
                    live,
                    "recovered durable state diverged"
                );
                recovered.set_retention(policy);
                twin.prune_to_horizon().expect("twin prune succeeds");
                let probe = recovered.clone();
                probe.prune_to_horizon().expect("probe prune succeeds");
                prop_assert_eq!(
                    format!("{:?}", probe.catalog()),
                    format!("{:?}", twin.catalog()),
                    "prune does not commute with recovery"
                );
                store = Some(recovered);
            }
            apply_step(&mut reference_clients, &reference_store, step, retired, &mut reference_log);
            apply_step(&mut clients, store.as_ref().unwrap(), step, retired, &mut log);
        }
        let store = store.take().unwrap();

        // Catch-up: everyone still active reconciles once more, then one
        // final prune on the retention store.
        for i in 1..=PARTICIPANTS {
            let step = Step::Reconcile { who: i };
            apply_step(&mut reference_clients, &reference_store, &step, retired, &mut reference_log);
            apply_step(&mut clients, &store, &step, retired, &mut log);
        }
        let report = store.prune_to_horizon().expect("final prune succeeds");
        prop_assert!(report.horizon >= store.catalog().pruned_through());

        prop_assert_eq!(&log, &reference_log, "decision streams diverged");
        prop_assert_eq!(
            decision_sets(&store),
            decision_sets(&reference_store),
            "durable decision sets diverged"
        );
        prop_assert_eq!(
            instances_fingerprint(&clients),
            instances_fingerprint(&reference_clients),
            "final instances diverged"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Deterministic end-to-end smoke of the same property at a fixed schedule
/// whose history goes dead on purpose: one writer cycles a value through
/// insert → delete → re-insert while everyone keeps up, so superseded
/// prefixes leave the pinned-ancestor closure and the pruned store actually
/// removes log entries (the proptest cannot guarantee its random schedules
/// converge).
#[test]
fn a_converging_schedule_actually_prunes() {
    let reference_store = CentralStore::new(bioinformatics_schema());
    setup(&reference_store);
    let mut reference_clients = participants();

    let store =
        CentralStore::new(bioinformatics_schema()).with_retention(RetentionPolicy::ConvergedOnly);
    setup(&store);
    let mut clients = participants();

    let tuple = func(0, 0);
    let mut log = Vec::new();
    let mut reference_log = Vec::new();
    let mut pruned_total = 0u64;
    for round in 0..10u32 {
        // Participant 1 toggles the tuple's existence; the others follow.
        for (participants, store, log) in [
            (&mut reference_clients, &reference_store, &mut reference_log),
            (&mut clients, &store, &mut log),
        ] {
            let writer = &mut participants[0];
            let update = if writer.instance().contains_tuple_exact("Function", &tuple) {
                Update::delete("Function", tuple.clone(), p(1))
            } else {
                Update::insert("Function", tuple.clone(), p(1))
            };
            writer.execute_transaction(vec![update]).expect("toggle applies");
            writer.publish(store).expect("publish succeeds");
            log.push(format!("toggle round {round}"));
            for who in 1..=PARTICIPANTS {
                apply_step(participants, store, &Step::Reconcile { who }, None, log);
            }
        }
        pruned_total += store.prune_to_horizon().unwrap().pruned_log_entries;
    }
    assert_eq!(log, reference_log, "decision streams diverged");
    assert!(pruned_total > 0, "superseded toggles must be pruned");
    assert!(store.catalog().log_len() < reference_store.catalog().log_len());
    assert_eq!(decision_sets(&store), decision_sets(&reference_store));
    // Only the live suffix survives: the last insert plus the undecided /
    // recent window, never the whole toggle history.
    assert!(store.catalog().log_len() <= 3, "live set was {}", store.catalog().log_len());
}
