//! Integration test reproducing Figure 2 of the paper exactly: three
//! participants with the trust policies of Figure 1, four epochs of
//! publication and reconciliation, and the paper's final instances and
//! deferred set.

use orchestra::{CdssSystem, ParticipantConfig};
use orchestra_model::schema::bioinformatics_schema;
use orchestra_model::{ParticipantId, Transaction, TransactionId, TrustPolicy, Tuple, Update};
use orchestra_spec::Spec;
use orchestra_store::{CentralStore, DhtStore, UpdateStore};

fn func(org: &str, prot: &str, f: &str) -> Tuple {
    Tuple::of_text(&[org, prot, f])
}

/// The trust policies of Figure 1.
fn figure1_policies() -> [TrustPolicy; 3] {
    let (p1, p2, p3) = (ParticipantId(1), ParticipantId(2), ParticipantId(3));
    [
        TrustPolicy::new(p1).trusting(p2, 1u32).trusting(p3, 1u32),
        TrustPolicy::new(p2).trusting(p1, 2u32).trusting(p3, 1u32),
        TrustPolicy::new(p3).trusting(p2, 1u32),
    ]
}

fn run_figure2<S: UpdateStore>(store: S) -> CdssSystem<S> {
    let schema = bioinformatics_schema();
    let mut system = CdssSystem::new(schema, store);
    let p1 = ParticipantId(1);
    let p2 = ParticipantId(2);
    let p3 = ParticipantId(3);
    for policy in figure1_policies() {
        system.add_participant(ParticipantConfig::new(policy)).unwrap();
    }

    // Epoch 1: p3 publishes X3:0 (insert) and X3:1 (revision) and reconciles.
    system
        .execute(p3, vec![Update::insert("Function", func("rat", "prot1", "cell-metab"), p3)])
        .unwrap();
    system
        .execute(
            p3,
            vec![Update::modify(
                "Function",
                func("rat", "prot1", "cell-metab"),
                func("rat", "prot1", "immune"),
                p3,
            )],
        )
        .unwrap();
    system.publish_and_reconcile(p3).unwrap();

    // Epoch 2: p2 publishes X2:0 and X2:1 and reconciles.
    system
        .execute(p2, vec![Update::insert("Function", func("mouse", "prot2", "immune"), p2)])
        .unwrap();
    system
        .execute(p2, vec![Update::insert("Function", func("rat", "prot1", "cell-resp"), p2)])
        .unwrap();
    system.publish_and_reconcile(p2).unwrap();

    // Epoch 3: p3 reconciles again.
    system.reconcile(p3).unwrap();

    // Epoch 4: p1 reconciles for the first time.
    system.reconcile(p1).unwrap();
    system
}

fn assert_figure2_outcome<S: UpdateStore>(system: &CdssSystem<S>) {
    let p1 = ParticipantId(1);
    let p2 = ParticipantId(2);
    let p3 = ParticipantId(3);

    // I2(F)|2 = {(mouse, prot2, immune), (rat, prot1, cell-resp)}
    let i2 = system.participant(p2).unwrap().instance();
    assert!(i2.contains_tuple_exact("Function", &func("mouse", "prot2", "immune")));
    assert!(i2.contains_tuple_exact("Function", &func("rat", "prot1", "cell-resp")));
    assert_eq!(i2.total_tuples(), 2);

    // I3(F)|3 = {(mouse, prot2, immune), (rat, prot1, immune)}
    let i3 = system.participant(p3).unwrap().instance();
    assert!(i3.contains_tuple_exact("Function", &func("mouse", "prot2", "immune")));
    assert!(i3.contains_tuple_exact("Function", &func("rat", "prot1", "immune")));
    assert_eq!(i3.total_tuples(), 2);

    // I1(F)|4 = {(mouse, prot2, immune)}; X3:0, X3:1 and X2:1 deferred.
    let participant1 = system.participant(p1).unwrap();
    let i1 = participant1.instance();
    assert!(i1.contains_tuple_exact("Function", &func("mouse", "prot2", "immune")));
    assert_eq!(i1.total_tuples(), 1);

    let deferred = participant1.soft_state().deferred();
    assert_eq!(deferred.len(), 3);
    assert!(deferred.contains_key(&TransactionId::new(p3, 0)));
    assert!(deferred.contains_key(&TransactionId::new(p3, 1)));
    assert!(deferred.contains_key(&TransactionId::new(p2, 1)));
    // The accepted mouse transaction is X2:0 and must not be deferred.
    assert!(!deferred.contains_key(&TransactionId::new(p2, 0)));

    // One conflict group over the rat/prot1 key, with two distinct options
    // (p3's value, possibly backed by its two chained transactions, and p2's
    // value).
    let groups = participant1.deferred_conflicts();
    assert_eq!(groups.len(), 1);
    assert_eq!(groups[0].options.len(), 2);
}

#[test]
fn figure2_is_reproduced_on_the_central_store() {
    let system = run_figure2(CentralStore::new(bioinformatics_schema()));
    assert_figure2_outcome(&system);
}

#[test]
fn figure2_is_reproduced_on_the_dht_store() {
    let system = run_figure2(DhtStore::new(bioinformatics_schema()));
    assert_figure2_outcome(&system);
}

#[test]
fn figure2_conflict_resolves_in_favour_of_the_chosen_option() {
    let mut system = run_figure2(CentralStore::new(bioinformatics_schema()));
    let p1 = ParticipantId(1);
    let p3 = ParticipantId(3);
    let (key, idx) = {
        let groups = system.participant(p1).unwrap().deferred_conflicts();
        let group = &groups[0];
        let idx = group
            .options
            .iter()
            .position(|o| o.transactions.iter().any(|t| t.participant == p3))
            .expect("p3 proposed an option");
        (group.key.clone(), idx)
    };
    let report = system
        .resolve_conflicts(
            p1,
            &[orchestra_recon::ResolutionChoice { group: key, chosen_option: Some(idx) }],
        )
        .unwrap();
    assert!(!report.newly_accepted.is_empty());
    let i1 = system.participant(p1).unwrap().instance();
    assert!(i1.contains_tuple_exact("Function", &func("rat", "prot1", "immune")));
    assert!(system.participant(p1).unwrap().deferred_conflicts().is_empty());
}

/// The spec over the Figure 2 script reproduces what the paper shows, and
/// so what the tests above expect of the engine: this anchors the spec to
/// the paper rather than to the engine.
#[test]
fn figure2_is_reproduced_by_the_spec() {
    let (p1, p2, p3) = (ParticipantId(1), ParticipantId(2), ParticipantId(3));
    let mut spec = Spec::new(bioinformatics_schema(), figure1_policies());
    let txn = |who, local, update| Transaction::from_parts(who, local, vec![update]).unwrap();
    let insert = |who, org, prot, f| Update::insert("Function", func(org, prot, f), who);
    let (metab, immune) = (func("rat", "prot1", "cell-metab"), func("rat", "prot1", "immune"));
    // Epoch 1: p3 inserts and revises (rat, prot1), publishes and reconciles.
    // Epoch 2: p2 inserts (mouse, prot2) and its own (rat, prot1), publishes
    // and reconciles.
    let x30 = txn(p3, 0, insert(p3, "rat", "prot1", "cell-metab"));
    let x31 = txn(p3, 1, Update::modify("Function", metab, immune.clone(), p3));
    let x20 = txn(p2, 0, insert(p2, "mouse", "prot2", "immune"));
    let x21 = txn(p2, 1, insert(p2, "rat", "prot1", "cell-resp"));
    for (who, batch) in [(p3, [x30, x31]), (p2, [x20, x21])] {
        let ids: Vec<TransactionId> = batch.iter().map(Transaction::id).collect();
        batch.into_iter().for_each(|t| spec.execute(t));
        spec.publish(who, &ids);
        spec.reconcile(who);
    }
    // Epochs 3 and 4: p3 reconciles again, then p1 for the first time.
    spec.reconcile(p3);
    spec.reconcile(p1);

    let functions = |spec: &Spec, who| -> Vec<Tuple> {
        spec.peer(who).instance.relation_contents("Function").into_iter().map(|(_, t)| t).collect()
    };
    let mouse = func("mouse", "prot2", "immune");
    assert_eq!(functions(&spec, p2), [mouse.clone(), func("rat", "prot1", "cell-resp")]);
    assert_eq!(functions(&spec, p3), [mouse.clone(), immune.clone()]);
    assert_eq!(functions(&spec, p1), std::slice::from_ref(&mouse));
    let x = TransactionId::new;
    assert_eq!(spec.peer(p1).deferred, [x(p2, 1), x(p3, 0), x(p3, 1)].into());
    let groups = spec.groups(p1);
    assert_eq!(groups.len(), 1);
    assert_eq!(groups[0].options.len(), 2);

    // Keeping p3's option accepts its chain and settles the conflict.
    let kept = groups[0].options.iter().position(|o| o.contains(&x(p3, 1))).unwrap();
    let decided = spec.resolve(p1, &[(groups[0].key.clone(), Some(kept))]);
    assert!(!decided[0].is_empty());
    assert_eq!(functions(&spec, p1), [mouse, immune]);
    assert!(spec.groups(p1).is_empty());
    spec.check_requirements().unwrap();
}
