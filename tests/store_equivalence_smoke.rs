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
//! so is what every participant's session would drain. A second family does
//! the same with participants that rank each other at different priorities,
//! so `DoGroup`'s rules across priorities meet the spec too. A third opens
//! every schedule with a resolution in which a kept transaction has an
//! antecedent the same resolution rejects, so the rerun must reject it.

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
    use orchestra_model::{TransactionId, TrustPolicy};
    use orchestra_spec::{Candidate, Spec};
    use orchestra_workload::{Driver, Step};
    use proptest::prelude::*;

    const PARTICIPANTS: u32 = 4;
    const KEY_POOL: usize = 6;
    const VALUE_POOL: usize = 4;

    /// Runs the turns against a confederation of `policies` over a store
    /// under a driver (none: the sequential run, checked against the spec) —
    /// so the DHT's network-centric mode rides the same schedule — and ends
    /// with a catch-up publish + reconcile for every participant.
    fn run<S: UpdateStore>(
        store: S,
        policies: Vec<TrustPolicy>,
        turns: &[Vec<Step>],
        driver: Option<Driver<S>>,
    ) -> common::Snapshot {
        let steps = caught_up(turns);
        match driver {
            None => common::run_checked(store, policies, false, &steps, drains_the_spec),
            Some(driver) => common::run_on(store, policies, false, &steps, &driver),
        }
    }

    /// The turns, then a publish and reconcile of every participant in turn.
    fn caught_up(turns: &[Vec<Step>]) -> Vec<Step> {
        let mut steps = turns.concat();
        for who in (1..=PARTICIPANTS).map(p) {
            steps.extend(common::turn(PublishReconcile, who, &[], 0, 0));
        }
        steps
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
            let (schema, mutual) = (bioinformatics_schema, || common::mutual(PARTICIPANTS));
            let central = run(CentralStore::new(schema()), mutual(), &turns, None);
            let dht = run(DhtStore::new(schema()), mutual(), &turns, None);
            let network_centric =
                run(DhtStore::new(schema()), mutual(), &turns, Some(Driver::network_centric()));

            prop_assert_eq!(&central, &dht, "dht store diverged");
            prop_assert_eq!(&central, &network_centric, "network-centric mode diverged");
        }

        /// Every participant ranks every other at a priority of 1..=3, so a
        /// conflict is often settled by trust: the lower side is rejected
        /// under a higher accepted candidate and deferred under a higher
        /// deferred one. The central store's run is checked against the spec
        /// step by step, and the network-centric mode, whose conflicts arrive
        /// precomputed, ends in the same state.
        #[test]
        fn mixed_priorities_agree_with_the_spec(
            ranks in prop::collection::vec(
                prop::collection::vec(1u32..4, PARTICIPANTS as usize),
                PARTICIPANTS as usize,
            ),
            turns in common::schedule(
                PARTICIPANTS,
                KEY_POOL,
                VALUE_POOL,
                &[Edit, Edit, Publish, PublishReconcile, ResolveChosen],
                1..40,
            )
        ) {
            let schema = bioinformatics_schema;
            let central = run(CentralStore::new(schema()), common::ranked(&ranks), &turns, None);
            let network_centric = run(
                DhtStore::new(schema()),
                common::ranked(&ranks),
                &turns,
                Some(Driver::network_centric()),
            );
            prop_assert_eq!(&central, &network_centric, "network-centric mode diverged");
        }

        /// A transaction `T` kept by one choice of a resolution wins over its
        /// losing option in an earlier group (keep wins). The rerun decides
        /// it again, against a rejected record that holds the user's
        /// rejections, as the spec does.
        ///
        /// p2's `Y` inserts key `b`; p3's `T` writes `b` and inserts key
        /// `a > b`; p4's `X` inserts `a`. In a chained case p3's `U` inserts
        /// `b` first and `T` revises `U`'s value, so `T`'s extension holds
        /// `U`. p1 trusts the three at one priority and defers them all:
        /// group `b` has the options `[Y]` and `[T]` (`[U, T]` when chained),
        /// group `a` the options `[T]` and `[X]`. Keeping option 0 of both
        /// rejects `X` (and `U`) and keeps `T`. Chained, the rerun must
        /// reject `T` by `CheckState` rules 3–4 for `U` and accept `Y`;
        /// otherwise `T` and `Y` defer again. Random turns follow.
        #[test]
        fn a_kept_transaction_is_decided_again_by_the_rerun(
            keys in (0..KEY_POOL - 1, 0..KEY_POOL)
                .prop_map(|(b, up)| (b, b + 1 + up % (KEY_POOL - 1 - b))),
            values in (0..VALUE_POOL, 0..VALUE_POOL, 1..VALUE_POOL),
            setting in (0..6usize, 0..2usize, 1u32..4, 0..2u64),
            ranks in prop::collection::vec(
                prop::collection::vec(1u32..4, PARTICIPANTS as usize),
                PARTICIPANTS as usize,
            ),
            turns in common::schedule(
                PARTICIPANTS,
                KEY_POOL,
                VALUE_POOL,
                &[Edit, Edit, Publish, PublishReconcile, ResolveChosen],
                0..20,
            )
        ) {
            let ((b, a), (start, c, x_off)) = (keys, values);
            let (order, wave, rank, chained) = setting;
            let value = |offset: usize| (start + offset) % VALUE_POOL;
            let edit = |who: u32, writes: Vec<(usize, usize)>| Step::Edit { who: p(who), writes };
            let mut steps = vec![edit(2, vec![(b, value(0))])];
            if chained == 1 {
                steps.push(edit(3, vec![(b, value(1))]));
            }
            let publishers = [[2, 3, 4], [2, 4, 3], [3, 2, 4], [3, 4, 2], [4, 2, 3], [4, 3, 2]];
            let reconcilers =
                if wave == 0 { vec![p(1)] } else { (1..=PARTICIPANTS).map(p).collect() };
            let resolve = Step::Resolve { who: p(1), option: 0 };
            steps.extend([
                edit(3, vec![(b, value(2)), (a, c)]),
                edit(4, vec![(a, (c + x_off) % VALUE_POOL)]),
                Step::Publish(publishers[order].iter().map(|&who| p(who)).collect()),
                Step::Reconcile(reconcilers),
                resolve.clone(),
            ]);
            steps.extend(turns.concat());
            let mut ranks = ranks;
            ranks[0] = vec![rank; PARTICIPANTS as usize];

            let id = |who: u32, local: u64| TransactionId::new(p(who), local);
            let (y, u, t, x) = (id(2, 0), id(3, 0), id(3, chained), id(4, 0));
            let mut resolved = false;
            let check = |step: &Step, system: &CdssSystem<CentralStore>, spec: &Spec| {
                drains_the_spec(step, system, spec);
                if resolved || *step != resolve {
                    return;
                }
                resolved = true;
                let store = system.store();
                let (accepted, rejected) = (store.accepted_set(p(1)), store.rejected_set(p(1)));
                let deferred = system.participant(p(1)).expect("p1").soft_state().deferred();
                if chained == 1 {
                    assert!([u, t, x].iter().all(|id| rejected.contains(id)), "{rejected:?}");
                    assert!(accepted.contains(&y) && deferred.is_empty(), "{accepted:?}");
                } else {
                    assert_eq!(rejected.iter().collect::<Vec<_>>(), [&x]);
                    assert!(deferred.contains_key(&t) && deferred.contains_key(&y), "{deferred:?}");
                }
            };
            let store = CentralStore::new(bioinformatics_schema());
            common::run_checked(store, common::ranked(&ranks), false, &caught_up(&[steps]), check);
            prop_assert!(resolved, "the opening resolution ran");
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
