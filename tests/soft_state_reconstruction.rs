//! The paper's soft-state claim: everything a participant needs besides its
//! trust policy lives in the update store, so a participant that lost its
//! local state can be reconstructed by reconciling from scratch against the
//! store. These tests exercise that claim and the hand-over of an instance
//! to a new participant.

use orchestra::{Participant, ParticipantConfig};
use orchestra_model::schema::bioinformatics_schema;
use orchestra_model::{ParticipantId, TrustPolicy, Tuple, Update};
use orchestra_store::{CentralStore, UpdateStore};

fn p(i: u32) -> ParticipantId {
    ParticipantId(i)
}

fn func(org: &str, prot: &str, f: &str) -> Tuple {
    Tuple::of_text(&[org, prot, f])
}

fn policies(n: u32) -> Vec<TrustPolicy> {
    (1..=n)
        .map(|i| {
            let mut policy = TrustPolicy::new(p(i));
            for j in 1..=n {
                if i != j {
                    policy = policy.trusting(p(j), 1u32);
                }
            }
            policy
        })
        .collect()
}

#[test]
fn a_participant_can_be_rebuilt_from_the_update_store() {
    let schema = bioinformatics_schema();
    let store = CentralStore::new(schema.clone());
    let pols = policies(3);
    for policy in &pols {
        store.register_participant(policy.clone());
    }
    let mut p1 = Participant::new(schema.clone(), ParticipantConfig::new(pols[0].clone()));
    let mut p2 = Participant::new(schema.clone(), ParticipantConfig::new(pols[1].clone()));
    let mut p3 = Participant::new(schema.clone(), ParticipantConfig::new(pols[2].clone()));

    // Everyone publishes non-conflicting facts; p2 also revises one of p3's.
    p3.execute_transaction(vec![Update::insert(
        "Function",
        func("rat", "prot1", "cell-metab"),
        p(3),
    )])
    .unwrap();
    p3.publish_and_reconcile(&store).unwrap();
    p2.publish_and_reconcile(&store).unwrap();
    p2.execute_transaction(vec![Update::modify(
        "Function",
        func("rat", "prot1", "cell-metab"),
        func("rat", "prot1", "immune"),
        p(2),
    )])
    .unwrap();
    p2.execute_transaction(vec![Update::insert(
        "Function",
        func("mouse", "prot2", "dna-repair"),
        p(2),
    )])
    .unwrap();
    p2.publish_and_reconcile(&store).unwrap();
    let original_report = p1.publish_and_reconcile(&store).unwrap();
    assert!(!original_report.accepted.is_empty());

    // p1 loses its local state entirely. A fresh participant is rebuilt from
    // the store by replaying its accepted transactions in publication order.
    let rebuilt = Participant::rebuild_from_store(
        schema.clone(),
        ParticipantConfig::new(pols[0].clone()),
        &store,
    )
    .unwrap();

    // The rebuilt instance matches the original's.
    assert_eq!(
        p1.instance().relation_contents("Function"),
        rebuilt.instance().relation_contents("Function"),
    );
    assert_eq!(
        p1.instance().relation_contents("XRef"),
        rebuilt.instance().relation_contents("XRef"),
    );
}

#[test]
fn a_participant_resumes_from_a_handed_over_instance() {
    let schema = bioinformatics_schema();
    let store = CentralStore::new(schema.clone());
    let pols = policies(2);
    for policy in &pols {
        store.register_participant(policy.clone());
    }
    let mut p1 = Participant::new(schema.clone(), ParticipantConfig::new(pols[0].clone()));
    p1.execute_transaction(vec![
        Update::insert("Function", func("human", "p53", "transcription-factor"), p(1)),
        Update::insert("XRef", Tuple::of_text(&["human", "p53", "pdb", "1TUP"]), p(1)),
    ])
    .unwrap();
    p1.publish_and_reconcile(&store).unwrap();

    // Hand a copy of the instance to a new participant as its initial state
    // (the store keeps no copy: `rebuild_from_store` replays the history).
    let handed_over = p1.instance().clone();
    let resumed = Participant::new(
        schema,
        ParticipantConfig::new(pols[0].clone()).with_instance(handed_over),
    );
    assert_eq!(
        resumed.instance().relation_contents("Function"),
        p1.instance().relation_contents("Function")
    );
}

#[test]
fn decisions_survive_in_the_store_across_participant_restarts() {
    // A rejected transaction stays rejected for a rebuilt participant: its
    // rejection is durable store state, not client soft state.
    let schema = bioinformatics_schema();
    let store = CentralStore::new(schema.clone());
    let pols = policies(2);
    for policy in &pols {
        store.register_participant(policy.clone());
    }
    let mut p1 = Participant::new(schema.clone(), ParticipantConfig::new(pols[0].clone()));
    let mut p2 = Participant::new(schema.clone(), ParticipantConfig::new(pols[1].clone()));

    // p1 publishes its own value first, then p2 publishes a divergent one.
    p1.execute_transaction(vec![Update::insert("Function", func("rat", "prot1", "a"), p(1))])
        .unwrap();
    p1.publish_and_reconcile(&store).unwrap();
    p2.execute_transaction(vec![Update::insert("Function", func("rat", "prot1", "b"), p(2))])
        .unwrap();
    p2.publish_and_reconcile(&store).unwrap();

    // p1 reconciles and rejects p2's divergent value (it conflicts with p1's
    // own accepted state).
    let report = p1.reconcile(&store).unwrap();
    assert_eq!(report.rejected.len(), 1);
    let rejected_id = report.rejected[0];
    assert!(store.rejected_set(p(1)).contains(&rejected_id));

    // A rebuilt p1 replays its own accepted insertion but not the rejected
    // transaction; a follow-up reconciliation does not resurrect it either.
    let mut rebuilt =
        Participant::rebuild_from_store(schema, ParticipantConfig::new(pols[0].clone()), &store)
            .unwrap();
    assert!(rebuilt.instance().contains_tuple_exact("Function", &func("rat", "prot1", "a")));
    assert!(!rebuilt.instance().contains_tuple_exact("Function", &func("rat", "prot1", "b")));
    rebuilt.reconcile(&store).unwrap();
    assert!(!rebuilt.instance().contains_tuple_exact("Function", &func("rat", "prot1", "b")));
}
