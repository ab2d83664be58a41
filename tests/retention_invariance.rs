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
//!   (`ConvergedOnly` or `KeepLastN`), with a [`Step::Prune`] at arbitrary
//!   step indices and a [`Step::Crash`] (the store restarts, the clients
//!   keep their memory) at an arbitrary point.
//!
//! Checks: the recovered store is byte-identical to the pre-crash one (prune
//! records replay deterministically; the crash step refuses it otherwise);
//! recover-then-prune equals prune-then-recover; every decision in the step
//! log, every durable accept/reject set and every final instance matches the
//! reference run. A rebuild is the one thing pruning may refuse: the fixed
//! schedule below checks that it does, with a typed error, where the
//! unpruned store rebuilds every participant exactly.

mod common;

use common::Turn::{EditPublish, Reconcile, Resolve};
use common::{logged, p};
use orchestra_model::schema::bioinformatics_schema;
use orchestra_model::{Tuple, Update};
use orchestra_storage::StorageError;
use orchestra_store::{CentralStore, RetentionPolicy, UpdateStore};
use orchestra_workload::{Confederation, Driver, Step};
use proptest::prelude::*;
use std::path::PathBuf;

fn scratch_dir() -> PathBuf {
    common::scratch_dir("retention-prop")
}

const PARTICIPANTS: u32 = 3;

fn policy_strategy() -> impl Strategy<Value = RetentionPolicy> {
    // 0 ⇒ ConvergedOnly, 1..=3 ⇒ KeepLastN(n - 1); the vendored proptest
    // has no `Just`, so the constant arm is encoded in the range.
    (0u64..4).prop_map(|n| match n {
        0 => RetentionPolicy::ConvergedOnly,
        n => RetentionPolicy::KeepLastN(n - 1),
    })
}

/// The catalogue of a copy of the confederation's store after one more
/// [`Step::Prune`]: the copy is ephemeral, so the run itself is untouched.
fn pruned_copy(conf: &Confederation<CentralStore>) -> String {
    let mut copy = Confederation::new(conf.system.store().clone(), Vec::new());
    copy.apply(&Step::Prune, &Driver::sequential()).expect("prune succeeds");
    format!("{:?}", copy.system.store().catalog())
}

/// Registers every policy and closes membership — identical setup on both
/// stores, so the frontier semantics (not the pruning) fix late-join
/// behaviour.
fn setup(store: CentralStore) -> Confederation<CentralStore> {
    let conf = common::confederation(store, PARTICIPANTS);
    conf.system.store().catalog().close_membership().expect("close membership");
    conf
}

/// The turn's one actor is `who`.
fn is_turn_of(turn: &[Step], who: orchestra_model::ParticipantId) -> bool {
    turn.iter().all(|step| match step {
        Step::Edit { who: actor, .. } | Step::Resolve { who: actor, .. } => *actor == who,
        Step::Publish(actors) | Step::Reconcile(actors) => actors[..] == [who],
        _ => false,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// For any schedule, retention policy, prune points and crash point:
    /// pruned ≡ unpruned decisions, and prune commutes with recovery. A turn
    /// executes an insert-or-modify on a small key space and publishes it,
    /// reconciles, or resolves every open conflict group.
    #[test]
    fn pruning_never_changes_decisions(
        turns in common::schedule(PARTICIPANTS, 4, 3, &[EditPublish, Reconcile, Resolve], 6..40),
        policy in policy_strategy(),
        prune_at in prop::collection::vec(0usize..40, 0..4),
        crash_at in 0usize..40,
        retire_raw in 0usize..80,
    ) {
        let crash_at = crash_at.min(turns.len());
        // A retirement point inside the schedule (participant 3) half the
        // time; past-the-end values mean "never retire".
        let retire_at = (retire_raw < 40).then_some(retire_raw.min(turns.len()));

        // Reference: ephemeral KeepAll store, never pruned, same schedule.
        let mut reference = setup(CentralStore::new(bioinformatics_schema()));
        let mut reference_log = Vec::new();

        // Pruned run: durable store under the generated policy.
        let dir = scratch_dir();
        let store = CentralStore::durable(bioinformatics_schema(), &dir).expect("fresh dir");
        store.set_retention(policy);
        let mut pruned = setup(store);
        let mut log = Vec::new();

        let mut retired = false;
        for (i, turn) in turns.iter().enumerate() {
            if retire_at == Some(i) {
                // Retire participant 3 at both stores: it stops pinning the
                // horizon and its turns are skipped from here on. Its client
                // stays, so the record and instance it retired with are
                // still compared at the end.
                reference.system.store().retire_participant(p(3)).expect("retire succeeds");
                pruned.system.store().retire_participant(p(3)).expect("retire succeeds");
                retired = true;
            }
            if prune_at.contains(&i) {
                // Prune only the retention store; the reference keeps all.
                logged(&mut pruned, &[Step::Prune], &mut log);
            }
            if crash_at == i {
                // Crash: the store's memory is lost (clients keep theirs —
                // the store is a separate process), and recovery must be
                // byte-identical, including every prune replay.
                // Prune-then-recover ≡ recover-then-prune: a copy pruned
                // before the crash must match the recovered store pruned
                // after it.
                let twin = pruned_copy(&pruned);
                logged(&mut pruned, &[Step::Crash], &mut log);
                let probe = pruned_copy(&pruned);
                prop_assert_eq!(probe, twin, "prune does not commute with recovery");
            }
            if retired && is_turn_of(turn, p(3)) {
                continue;
            }
            logged(&mut reference, turn, &mut reference_log);
            logged(&mut pruned, turn, &mut log);
        }

        // Catch-up: everyone still active reconciles once more, then one
        // final prune on the retention store.
        let active = (1..=PARTICIPANTS).map(p).filter(|&who| !(retired && who == p(3)));
        let active = Step::Reconcile(active.collect());
        logged(&mut reference, std::slice::from_ref(&active), &mut reference_log);
        logged(&mut pruned, std::slice::from_ref(&active), &mut log);
        let report = pruned.apply(&Step::Prune, &Driver::sequential()).expect("final prune");
        let horizon = report.pruned.expect("a prune report").horizon;
        prop_assert!(horizon >= pruned.system.store().catalog().pruned_through());

        prop_assert_eq!(&log, &reference_log, "decision streams diverged");
        prop_assert_eq!(
            common::snapshot(&pruned.system),
            common::snapshot(&reference.system),
            "durable decision sets or final instances diverged"
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
    let mut reference = setup(CentralStore::new(bioinformatics_schema()));
    let mut pruned = setup(
        CentralStore::new(bioinformatics_schema()).with_retention(RetentionPolicy::ConvergedOnly),
    );

    let tuple = Tuple::of_text(&["rat", "prot0", "fn0"]);
    let mut log = Vec::new();
    let mut reference_log = Vec::new();
    let mut pruned_total = 0u64;
    // Everyone keeps up, one participant after another.
    let follow: Vec<Step> = (1..=PARTICIPANTS).map(|who| Step::Reconcile(vec![p(who)])).collect();
    for _ in 0..10 {
        // Participant 1 toggles the tuple's existence; the others follow.
        for (conf, log) in [(&mut reference, &mut reference_log), (&mut pruned, &mut log)] {
            let writer = conf.system.participant(p(1)).expect("participant 1");
            let update = if writer.instance().contains_tuple_exact("Function", &tuple) {
                Update::delete("Function", tuple.clone(), p(1))
            } else {
                Update::insert("Function", tuple.clone(), p(1))
            };
            conf.system.execute(p(1), vec![update]).expect("toggle applies");
            logged(conf, &[Step::Publish(vec![p(1)])], log);
            logged(conf, &follow, log);
        }
        let report = pruned.apply(&Step::Prune, &Driver::sequential()).unwrap().pruned;
        pruned_total += report.expect("a prune report").pruned_log_entries;
    }
    let (store, reference_store) = (pruned.system.store(), reference.system.store());
    assert_eq!(log, reference_log, "decision streams diverged");
    assert!(pruned_total > 0, "superseded toggles must be pruned");
    assert!(store.catalog().log_len() < reference_store.catalog().log_len());
    assert_eq!(common::snapshot(&pruned.system), common::snapshot(&reference.system));
    // Only the live suffix survives: the last insert plus the undecided /
    // recent window, never the whole toggle history.
    assert!(store.catalog().log_len() <= 3, "live set was {}", store.catalog().log_len());

    // A rebuild replays what each participant accepted. The `KeepAll` store
    // still has all of it and rebuilds everyone to their live selves; the
    // pruned store lost part of it, so the step refuses and the live
    // participants stay.
    let everyone = Step::Rebuild((1..=PARTICIPANTS).map(p).collect());
    let live = common::snapshot(&pruned.system);
    let refused = pruned.apply(&everyone, &Driver::sequential()).err();
    assert!(matches!(refused, Some(StorageError::Retention(_))), "{refused:?}");
    assert_eq!(common::snapshot(&pruned.system), live);
    reference.apply(&everyone, &Driver::sequential()).expect("a KeepAll store rebuilds");
    assert_eq!(common::snapshot(&reference.system), live);
}
