//! Conflict resolution inside the crate, end to end:
//! [`SoftState::resolve`](crate::SoftState::resolve) rejects the options the
//! user did not keep, and one more engine run reconciles the remaining
//! deferred transactions as if freshly published, with those rejections in
//! its rejected record — the sequence a participant drives.

#[cfg(test)]
mod tests {
    use crate::{CandidateTransaction, ReconcileEngine, ReconcileInput, ReconcileOutcome};
    use crate::{ResolutionChoice, SoftState};
    use orchestra_model::schema::bioinformatics_schema;
    use orchestra_model::{
        ConflictKey, ParticipantId, Priority, ReconciliationId, Transaction, TransactionId, Tuple,
        Update,
    };
    use orchestra_obs::Span;
    use orchestra_storage::Database;
    use std::sync::Arc;

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

    /// Resolves `choices` as a participant does: the user's rejections join
    /// the (here empty) rejected record, and the engine re-runs over the
    /// remaining deferred candidates.
    fn resolve(
        engine: &ReconcileEngine,
        db: &mut Database,
        soft: &mut SoftState,
        choices: &[ResolutionChoice],
    ) -> (Vec<TransactionId>, ReconcileOutcome) {
        let (rejected, remaining) = soft.resolve(choices).expect("every kept option exists");
        let input = ReconcileInput {
            recno: ReconciliationId(2),
            candidates: remaining,
            previously_rejected: Arc::new(rejected.iter().copied().collect()),
            ..Default::default()
        };
        (rejected, engine.reconcile(input, db, soft, &Span::default()))
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
        let (newly_rejected, rerun) = resolve(
            &engine,
            &mut db,
            &mut soft,
            &[ResolutionChoice { group: group_key, chosen_option: Some(chosen_idx) }],
        );
        assert_eq!(newly_rejected, vec![x1.id()]);
        assert_eq!(rerun.accepted_roots, vec![x2.id()]);
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
        let (rejected, _) = resolve(
            &engine,
            &mut db,
            &mut soft,
            &[ResolutionChoice { group: group_key, chosen_option: None }],
        );
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
        let (newly_rejected, rerun) = resolve(
            &engine,
            &mut db,
            &mut soft,
            &[ResolutionChoice { group: key, chosen_option: Some(idx) }],
        );
        assert_eq!(newly_rejected, vec![a2.id()]);
        assert!(rerun.accepted_roots.contains(&a1.id()));
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
        let (newly_rejected, _) = resolve(
            &engine,
            &mut db,
            &mut soft,
            &[ResolutionChoice { group: bogus, chosen_option: Some(0) }],
        );
        assert!(newly_rejected.is_empty());
        // Nothing was resolved, so both transactions re-defer.
        assert!(soft.is_deferred(x1.id()));
        assert!(soft.is_deferred(x2.id()));
        assert!(db.is_empty());
    }
}
