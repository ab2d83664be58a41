//! Concurrency tests for the shared-reference store API and the parallel
//! confederation driver: a ≥ 8-thread publish/reconcile stress test against
//! one shared `CentralStore`, and a proptest asserting the parallel driver
//! reaches decisions identical to the sequential one on random schedules.

mod common;

use common::{func, p};
use orchestra_model::schema::bioinformatics_schema;
use orchestra_model::{ParticipantId, Transaction, TransactionId, Update};
use orchestra_store::{poll_ready, CentralStore, InProcessClient, SessionClient, UpdateStore};
use orchestra_workload::mutual_trust_policies;

/// Eight threads — one per participant — publish and reconcile concurrently
/// against one shared `&CentralStore` for several rounds. The test asserts
/// the store's global invariants afterwards: every publish got a distinct
/// epoch, the log holds every published transaction exactly once, no
/// participant's accepted and rejected sets intersect, and every thread's
/// sessions committed monotonically increasing reconciliation numbers.
#[test]
fn eight_threads_publish_and_reconcile_against_one_store() {
    const THREADS: u32 = 8;
    const ROUNDS: u64 = 6;

    let store = CentralStore::new(bioinformatics_schema());
    for policy in mutual_trust_policies(THREADS as usize, 1) {
        store.register_participant(policy);
    }

    let per_thread: Vec<(ParticipantId, Vec<TransactionId>, Vec<u64>)> =
        std::thread::scope(|scope| {
            let store = &store;
            let handles: Vec<_> = (1..=THREADS)
                .map(|i| {
                    scope.spawn(move || {
                        let me = p(i);
                        let mut published = Vec::new();
                        let mut recnos = Vec::new();
                        for round in 0..ROUNDS {
                            // Publish one transaction on a thread-private key
                            // (cross-thread conflicts are exercised by the
                            // equivalence proptest; this test is about store
                            // integrity under raw concurrency).
                            let txn = Transaction::from_parts(
                                me,
                                round,
                                vec![Update::insert(
                                    "Function",
                                    func("human", &format!("prot-{i}-{round}"), "kinase"),
                                    me,
                                )],
                            )
                            .unwrap();
                            published.push(txn.id());
                            store.publish(me, vec![txn]).unwrap();

                            // Reconcile: stream everything, accept everything
                            // (all keys are distinct, so nothing conflicts).
                            let client = InProcessClient::new(store, me);
                            let info = poll_ready(client.begin_session()).unwrap().value;
                            let candidates =
                                poll_ready(client.drain_candidates(info.session, 4)).unwrap().value;
                            let accepted: Vec<TransactionId> =
                                candidates.iter().flat_map(|c| c.member_ids()).collect();
                            recnos.push(info.recno.0);
                            poll_ready(client.commit(info.session, &accepted, &[])).unwrap();
                        }
                        (me, published, recnos)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
        });

    // Every publish allocated a distinct epoch and the frontier is stable.
    let total_published: usize = per_thread.iter().map(|(_, ids, _)| ids.len()).sum();
    assert_eq!(total_published, (THREADS as u64 * ROUNDS) as usize);
    assert_eq!(store.catalog().log_len(), total_published);
    assert_eq!(
        store.catalog().largest_stable_epoch(),
        orchestra_model::Epoch(THREADS as u64 * ROUNDS),
        "interleaved publishes must leave a fully stable epoch frontier"
    );

    for (me, published, recnos) in &per_thread {
        // Each thread's sessions committed strictly increasing recnos 1..=R.
        assert_eq!(*recnos, (1..=ROUNDS).collect::<Vec<u64>>(), "recnos for {me}");
        // Every published transaction is retrievable and owned by its origin.
        for id in published {
            let txn = store.transaction(*id).expect("published transaction in the log");
            assert_eq!(txn.origin(), *me);
        }
        // Accepted/rejected never intersect, and own transactions are
        // auto-accepted.
        let accepted = store.accepted_set(*me);
        let rejected = store.rejected_set(*me);
        assert!(accepted.is_disjoint(&rejected), "decision sets intersect for {me}");
        for id in published {
            assert!(accepted.contains(id), "{me} must auto-accept its own {id:?}");
        }
        assert_eq!(store.current_reconciliation(*me).0, ROUNDS);
    }
    assert_eq!(store.catalog().open_sessions(), 0, "every session was finished");
}

mod equivalence {
    use super::*;
    use common::Turn::{EditPublish, EditPublishWave};
    use orchestra_workload::{run_churn_concurrent, ChurnConfig, Driver, Step, WorkloadConfig};
    use proptest::prelude::*;

    const PARTICIPANTS: u32 = 4;
    const KEY_POOL: usize = 6;
    const VALUE_POOL: usize = 4;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The parallel confederation driver reaches decisions (accepted and
        /// rejected sets, final instances) identical to the sequential one on
        /// random publish/reconcile schedules, including schedules that force
        /// genuine conflicts on shared keys: every turn executes a
        /// state-dependent edit and publishes it, and after every other one
        /// all participants reconcile as one wave.
        #[test]
        fn parallel_driver_is_equivalent_to_sequential(
            turns in common::schedule(
                PARTICIPANTS,
                KEY_POOL,
                VALUE_POOL,
                &[EditPublish, EditPublishWave],
                1..30,
            )
        ) {
            let mut steps = turns.concat();
            // Final catch-up wave.
            steps.push(Step::Reconcile((1..=PARTICIPANTS).map(p).collect()));
            let store = || CentralStore::new(bioinformatics_schema());
            let sequential = common::run(store(), common::mutual(PARTICIPANTS), false, &steps);
            let threads = common::run_on(store(), common::mutual(PARTICIPANTS), false, &steps, &Driver::threads());
            prop_assert_eq!(sequential, threads, "drivers diverged");
        }
    }

    /// The churn-scenario-level equivalence (the shape the benchmark runs),
    /// on a small fixed configuration.
    #[test]
    fn concurrent_churn_scenario_equivalence() {
        let config = ChurnConfig {
            participants: 8,
            rounds: 6,
            transactions_per_publish: 1,
            max_reconcile_interval: 3,
            resolve_every: 3,
            workload: WorkloadConfig {
                transaction_size: 1,
                key_universe: 40,
                function_pool: 15,
                value_zipf_exponent: 1.5,
                key_zipf_exponent: 0.9,
                xref_mean: 7.3,
            },
            seed: 17,
        };
        let run = |driver| {
            run_churn_concurrent(CentralStore::new(bioinformatics_schema()), &config, &driver)
        };
        let sequential = run(Driver::sequential());
        let parallel = run(Driver::threads());
        assert_eq!(sequential.accepted, parallel.accepted);
        assert_eq!(sequential.rejected, parallel.rejected);
        assert_eq!(sequential.deferred, parallel.deferred);
        assert_eq!(sequential.state_ratio, parallel.state_ratio);
        assert!(sequential.accepted > 0);
    }
}
