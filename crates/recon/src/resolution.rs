//! User-driven conflict resolution.
//!
//! Once transactions have been deferred, Section 4.2 of the paper resolves
//! conflicts as follows: the user specifies, for one or more conflict groups,
//! which option to keep. The transactions of the other options are rejected
//! and removed from the deferred set; the remaining deferred transactions are
//! then treated as freshly published and `ReconcileUpdates` is re-run, so
//! that transactions whose conflicts have been resolved are finally accepted
//! (or re-deferred if they still conflict with something else).

use crate::engine::{ReconcileEngine, ReconcileInput, ReconcileOutcome};
use crate::extension::CandidateTransaction;
use crate::softstate::SoftState;
use orchestra_model::{ConflictKey, ReconciliationId, TransactionId, Update};
use orchestra_obs::Span;
use orchestra_storage::Database;
use rustc_hash::FxHashSet;

/// One user decision: for the conflict group identified by `group`, keep the
/// option at index `chosen_option` (all other options' transactions are
/// rejected). To reject *every* option of a group, pass `chosen_option:
/// None`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResolutionChoice {
    /// The conflict group being resolved.
    pub group: ConflictKey,
    /// Index of the option to keep, or `None` to reject all options.
    pub chosen_option: Option<usize>,
}

/// The outcome of applying a set of resolution choices.
#[derive(Debug, Clone, Default)]
pub struct ResolutionOutcome {
    /// Transactions rejected because the user did not choose their option.
    pub newly_rejected: Vec<TransactionId>,
    /// The reconciliation outcome of re-running `ReconcileUpdates` over the
    /// remaining deferred transactions.
    pub rerun: ReconcileOutcome,
}

/// Applies the user's resolution choices and re-runs reconciliation over the
/// remaining deferred transactions.
///
/// `previously_rejected` is the participant's rejected set (its mirror of
/// the update store's record); the newly rejected transactions are added to
/// it by the caller after this returns. `previously_accepted` is the matching
/// accepted set,
/// which the rerun uses to keep candidate extensions on Definition 3
/// (accepted members are pruned). `own_updates` should normally be empty —
/// resolution is not a publication step. The rerun is a `reconcile` child of
/// `span`, with the engine's phases under it.
#[allow(clippy::too_many_arguments)]
pub fn resolve_conflicts(
    engine: &ReconcileEngine,
    recno: ReconciliationId,
    choices: &[ResolutionChoice],
    instance: &mut Database,
    soft: &mut SoftState,
    previously_rejected: &FxHashSet<TransactionId>,
    previously_accepted: std::sync::Arc<FxHashSet<TransactionId>>,
    span: &Span,
) -> ResolutionOutcome {
    let mut outcome = ResolutionOutcome::default();

    // Work out which transactions the user rejected.
    let mut rejected_now: FxHashSet<TransactionId> = FxHashSet::default();
    for choice in choices {
        let Some(group) = soft.conflict_groups().iter().find(|g| g.key == choice.group) else {
            continue;
        };
        for (idx, option) in group.options.iter().enumerate() {
            let keep = choice.chosen_option == Some(idx);
            if !keep {
                for t in &option.transactions {
                    rejected_now.insert(*t);
                }
            }
        }
        // A transaction the user explicitly kept must not be rejected because
        // it also appears in a losing option of another group resolved in the
        // same call; the keep wins.
        if let Some(idx) = choice.chosen_option {
            if let Some(option) = group.options.get(idx) {
                for t in &option.transactions {
                    rejected_now.remove(t);
                }
            }
        }
    }

    // Remove rejected transactions from the deferred set.
    let mut remaining: Vec<CandidateTransaction> = Vec::new();
    let deferred_ids: Vec<TransactionId> = soft.deferred().keys().copied().collect();
    for id in deferred_ids {
        if rejected_now.contains(&id) {
            soft.remove_deferred(id);
            outcome.newly_rejected.push(id);
        } else if let Some(cand) = soft.remove_deferred(id) {
            remaining.push(cand);
        }
    }
    outcome.newly_rejected.sort();
    remaining.sort_by_key(|c| c.id);

    // Clear the soft state (the deferred set has been drained) and re-run
    // reconciliation treating the remaining deferred transactions as freshly
    // published.
    soft.rebuild(recno, Vec::new(), engine.schema(), &Span::default());
    let mut all_rejected = previously_rejected.clone();
    all_rejected.extend(rejected_now.iter().copied());
    let input = ReconcileInput {
        recno,
        candidates: remaining,
        own_updates: Vec::<Update>::new(),
        previously_rejected: std::sync::Arc::new(all_rejected),
        previously_accepted,
        precomputed_conflicts: None,
    };
    let rerun = span.child("reconcile", &[("candidates", input.candidates.len() as u64)]);
    outcome.rerun = engine.reconcile(input, instance, soft, &rerun);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use orchestra_model::schema::bioinformatics_schema;
    use orchestra_model::{ParticipantId, Priority, Transaction, Tuple};

    fn p(i: u32) -> ParticipantId {
        ParticipantId(i)
    }

    fn func(org: &str, prot: &str, f: &str) -> Tuple {
        Tuple::of_text(&[org, prot, f])
    }

    fn insert_txn(i: u32, j: u64, org: &str, prot: &str, f: &str) -> Transaction {
        Transaction::from_parts(p(i), j, vec![Update::insert("Function", func(org, prot, f), p(i))])
            .unwrap()
    }

    fn cand(txn: &Transaction, prio: u32) -> CandidateTransaction {
        CandidateTransaction::new(txn, Priority(prio), vec![])
    }

    fn defer_two() -> (ReconcileEngine, Database, SoftState, Transaction, Transaction) {
        let schema = bioinformatics_schema();
        let engine = ReconcileEngine::new(schema.clone());
        let mut db = Database::new(schema);
        let mut soft = SoftState::new();
        let x1 = insert_txn(2, 0, "rat", "prot1", "cell-resp");
        let x2 = insert_txn(3, 0, "rat", "prot1", "immune");
        let out = engine.reconcile(
            ReconcileInput {
                recno: ReconciliationId(1),
                candidates: vec![cand(&x1, 1), cand(&x2, 1)],
                ..Default::default()
            },
            &mut db,
            &mut soft,
            &Span::default(),
        );
        assert_eq!(out.deferred.len(), 2);
        (engine, db, soft, x1, x2)
    }

    #[test]
    fn choosing_an_option_accepts_it_and_rejects_the_rest() {
        let (engine, mut db, mut soft, x1, x2) = defer_two();
        let group_key = soft.conflict_groups()[0].key.clone();
        // Find which option carries x2 and choose it.
        let chosen_idx = soft.conflict_groups()[0]
            .options
            .iter()
            .position(|o| o.transactions.contains(&x2.id()))
            .unwrap();
        let outcome = resolve_conflicts(
            &engine,
            ReconciliationId(2),
            &[ResolutionChoice { group: group_key, chosen_option: Some(chosen_idx) }],
            &mut db,
            &mut soft,
            &FxHashSet::default(),
            std::sync::Arc::default(),
            &Span::default(),
        );
        assert_eq!(outcome.newly_rejected, vec![x1.id()]);
        assert_eq!(outcome.rerun.accepted_roots, vec![x2.id()]);
        assert!(db.contains_tuple_exact("Function", &func("rat", "prot1", "immune")));
        assert!(!db.contains_tuple_exact("Function", &func("rat", "prot1", "cell-resp")));
        assert!(soft.deferred().is_empty());
        assert!(soft.conflict_groups().is_empty());
        assert_eq!(soft.dirty_len(), 0);
    }

    #[test]
    fn rejecting_every_option_leaves_the_instance_unchanged() {
        let (engine, mut db, mut soft, x1, x2) = defer_two();
        let group_key = soft.conflict_groups()[0].key.clone();
        let outcome = resolve_conflicts(
            &engine,
            ReconciliationId(2),
            &[ResolutionChoice { group: group_key, chosen_option: None }],
            &mut db,
            &mut soft,
            &FxHashSet::default(),
            std::sync::Arc::default(),
            &Span::default(),
        );
        let mut rejected = outcome.newly_rejected.clone();
        rejected.sort();
        let mut expected = vec![x1.id(), x2.id()];
        expected.sort();
        assert_eq!(rejected, expected);
        assert!(db.is_empty());
        assert!(soft.deferred().is_empty());
    }

    #[test]
    fn unrelated_deferred_transactions_stay_deferred_after_resolution() {
        let schema = bioinformatics_schema();
        let engine = ReconcileEngine::new(schema.clone());
        let mut db = Database::new(schema);
        let mut soft = SoftState::new();
        // Two independent conflicts over different keys.
        let a1 = insert_txn(2, 0, "rat", "prot1", "v1");
        let a2 = insert_txn(3, 0, "rat", "prot1", "v2");
        let b1 = insert_txn(2, 1, "mouse", "prot2", "w1");
        let b2 = insert_txn(3, 1, "mouse", "prot2", "w2");
        engine.reconcile(
            ReconcileInput {
                recno: ReconciliationId(1),
                candidates: vec![cand(&a1, 1), cand(&a2, 1), cand(&b1, 1), cand(&b2, 1)],
                ..Default::default()
            },
            &mut db,
            &mut soft,
            &Span::default(),
        );
        assert_eq!(soft.conflict_groups().len(), 2);

        // Resolve only the rat/prot1 group, keeping a1.
        let rat_group =
            soft.conflict_groups().iter().find(|g| g.transactions().contains(&a1.id())).unwrap();
        let key = rat_group.key.clone();
        let idx = rat_group.options.iter().position(|o| o.transactions.contains(&a1.id())).unwrap();
        let outcome = resolve_conflicts(
            &engine,
            ReconciliationId(2),
            &[ResolutionChoice { group: key, chosen_option: Some(idx) }],
            &mut db,
            &mut soft,
            &FxHashSet::default(),
            std::sync::Arc::default(),
            &Span::default(),
        );
        assert_eq!(outcome.newly_rejected, vec![a2.id()]);
        assert!(outcome.rerun.accepted_roots.contains(&a1.id()));
        // The mouse/prot2 conflict is still unresolved and re-deferred.
        assert!(soft.is_deferred(b1.id()));
        assert!(soft.is_deferred(b2.id()));
        assert_eq!(soft.conflict_groups().len(), 1);
        assert!(db.contains_tuple_exact("Function", &func("rat", "prot1", "v1")));
        assert!(!db.contains_tuple_exact("Function", &func("mouse", "prot2", "w1")));
    }

    #[test]
    fn unknown_group_key_is_ignored() {
        let (engine, mut db, mut soft, x1, x2) = defer_two();
        let bogus = ConflictKey::new(
            orchestra_model::ConflictKind::DivergentInsert,
            "Function",
            orchestra_model::KeyValue::of_text(&["nothing", "here"]),
        );
        let outcome = resolve_conflicts(
            &engine,
            ReconciliationId(2),
            &[ResolutionChoice { group: bogus, chosen_option: Some(0) }],
            &mut db,
            &mut soft,
            &FxHashSet::default(),
            std::sync::Arc::default(),
            &Span::default(),
        );
        assert!(outcome.newly_rejected.is_empty());
        // Nothing was resolved, so both transactions re-defer.
        assert!(soft.is_deferred(x1.id()));
        assert!(soft.is_deferred(x2.id()));
        assert!(db.is_empty());
    }
}
