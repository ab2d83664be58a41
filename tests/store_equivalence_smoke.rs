//! Store-equivalence tests.
//!
//! The scripted smoke test guards the contract on a fixed scenario: on a
//! small fully trusting confederation, the centralised and DHT-based update
//! stores must produce *identical* final instances, tuple for tuple — not
//! merely the same summary statistics. CI relies on this invariant staying
//! cheap to check.
//!
//! The property test generalises it: randomized interleaved
//! publish/reconcile/resolve schedules must yield identical final instances
//! and identical accept/reject/defer decisions across the central store, the
//! DHT store (client-centric), and the DHT store's network-centric mode. The
//! sequential runs are checked against the executable spec step by step, and
//! so is what every participant's session would drain.

mod common;

use common::{func, p};
use orchestra::CdssSystem;
use orchestra_model::schema::bioinformatics_schema;
use orchestra_model::{Tuple, Update};
use orchestra_store::{CentralStore, DhtStore, UpdateStore};

fn xref(org: &str, prot: &str, db: &str, accession: &str) -> Tuple {
    Tuple::of_text(&[org, prot, db, accession])
}

/// Drives a fixed script over a three-participant, fully trusting
/// confederation: non-conflicting inserts, a cross-reference, a revision,
/// and one genuine conflict (two participants writing divergent values for
/// the same key in the same reconciliation round).
fn drive<S: UpdateStore>(store: S) -> CdssSystem<S> {
    let mut system = common::confederation(store, 3).system;

    // Round 1: independent facts from every participant.
    system
        .execute(p(1), vec![Update::insert("Function", func("human", "prot1", "kinase"), p(1))])
        .unwrap();
    system
        .execute(
            p(2),
            vec![
                Update::insert("Function", func("human", "prot2", "ligase"), p(2)),
                Update::insert("XRef", xref("human", "prot2", "pdb", "1ABC"), p(2)),
            ],
        )
        .unwrap();
    system
        .execute(p(3), vec![Update::insert("Function", func("rat", "prot3", "transport"), p(3))])
        .unwrap();
    for i in 1..=3u32 {
        system.publish_and_reconcile(p(i)).unwrap();
    }

    // Round 2: a revision plus a divergent pair of writes to one fresh key
    // (p2 and p3 disagree about prot4, so equal trust must defer both).
    system
        .execute(
            p(1),
            vec![Update::modify(
                "Function",
                func("human", "prot1", "kinase"),
                func("human", "prot1", "phosphatase"),
                p(1),
            )],
        )
        .unwrap();
    system
        .execute(p(2), vec![Update::insert("Function", func("human", "prot4", "storage"), p(2))])
        .unwrap();
    system
        .execute(p(3), vec![Update::insert("Function", func("human", "prot4", "signaling"), p(3))])
        .unwrap();
    for i in 1..=3u32 {
        system.publish_and_reconcile(p(i)).unwrap();
    }
    // A final catch-up round so early reconciliations observe later
    // publications.
    for i in 1..=3u32 {
        system.reconcile(p(i)).unwrap();
    }
    system
}

#[test]
fn central_and_dht_final_instances_are_identical() {
    let central = drive(CentralStore::new(bioinformatics_schema()));
    let dht = drive(DhtStore::new(bioinformatics_schema()));

    for i in 1..=3u32 {
        for relation in ["Function", "XRef"] {
            let central_rows =
                central.participant(p(i)).unwrap().instance().relation_contents(relation);
            let dht_rows = dht.participant(p(i)).unwrap().instance().relation_contents(relation);
            assert_eq!(
                central_rows, dht_rows,
                "participant {i} diverged between stores on relation {relation}"
            );
        }
    }
}

mod random_schedules {
    use super::*;
    use common::Turn::{Edit, Publish, PublishReconcile, ResolveChosen};
    use orchestra_spec::{Candidate, Spec};
    use orchestra_workload::{Driver, Step};
    use proptest::prelude::*;

    const PARTICIPANTS: u32 = 4;
    const KEY_POOL: usize = 6;
    const VALUE_POOL: usize = 4;

    /// Runs the turns against a store under a driver (none: the sequential
    /// run, checked against the spec) — so the DHT's network-centric mode
    /// rides the same schedule — and ends with a catch-up publish +
    /// reconcile for every participant.
    fn run<S: UpdateStore>(
        store: S,
        turns: &[Vec<Step>],
        driver: Option<Driver<S>>,
    ) -> common::Snapshot {
        let mut steps = turns.concat();
        for who in (1..=PARTICIPANTS).map(p) {
            steps.extend(common::turn(PublishReconcile, who, &[], 0, 0));
        }
        match driver {
            None => common::run_checked(store, PARTICIPANTS, false, &steps, drains_the_spec),
            Some(driver) => common::run_on(store, PARTICIPANTS, false, &steps, &driver),
        }
    }

    /// After a publish, every participant's session would drain what the
    /// spec retrieves: the same candidates, priorities and extension
    /// members, in publication order.
    fn drains_the_spec<S: UpdateStore>(step: &Step, system: &CdssSystem<S>, spec: &Spec) {
        if !matches!(step, Step::Publish(_)) {
            return;
        }
        let store = system.store();
        for who in system.participant_ids() {
            let session = store.begin_reconciliation(who).expect("a session opens").value.session;
            let page = store.next_batch(session, 1 << 16).expect("a page").value;
            store.abort_reconciliation(session).expect("the session aborts");
            let drained: Vec<Candidate> = page
                .into_iter()
                .map(|c| Candidate {
                    id: c.id,
                    priority: c.priority,
                    members: c.members.iter().map(|(id, _)| *id).collect(),
                })
                .collect();
            assert_eq!(drained, spec.retrieve(who), "{who}'s session drained otherwise");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn all_store_modes_agree_on_random_schedules(
            // Two turns in five execute a transaction and leave it pending;
            // the others publish, publish and reconcile, or resolve the open
            // conflicts — keeping a schedule-dependent option, which is the
            // same one under every store because the decisions are.
            turns in common::schedule(
                PARTICIPANTS,
                KEY_POOL,
                VALUE_POOL,
                &[Edit, Edit, Publish, PublishReconcile, ResolveChosen],
                1..40,
            )
        ) {
            let schema = bioinformatics_schema;
            let central = run(CentralStore::new(schema()), &turns, None);
            let dht = run(DhtStore::new(schema()), &turns, None);
            let network_centric =
                run(DhtStore::new(schema()), &turns, Some(Driver::network_centric()));

            prop_assert_eq!(&central, &dht, "dht store diverged");
            prop_assert_eq!(&central, &network_centric, "network-centric mode diverged");
        }
    }
}

#[test]
fn scripted_confederation_converges_where_it_should() {
    let system = drive(CentralStore::new(bioinformatics_schema()));

    // The four uncontested facts (prot1 revised, prot2 + its xref, prot3)
    // are visible everywhere; the divergent prot4 writes are deferred, so
    // at most one of them may appear in any instance.
    for i in 1..=3u32 {
        let instance = system.participant(p(i)).unwrap().instance();
        let functions = instance.relation_contents("Function");
        assert!(
            functions.iter().any(|(_, t)| *t == func("human", "prot1", "phosphatase")),
            "participant {i} missed the prot1 revision"
        );
        assert!(
            functions.iter().any(|(_, t)| *t == func("human", "prot2", "ligase")),
            "participant {i} missed prot2"
        );
        assert!(
            functions.iter().any(|(_, t)| *t == func("rat", "prot3", "transport")),
            "participant {i} missed prot3"
        );
        assert_eq!(instance.relation_contents("XRef").len(), 1, "participant {i} missed the xref");
    }
}
