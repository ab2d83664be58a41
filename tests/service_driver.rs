//! Equivalence and admission-control tests for the service driver: on
//! arbitrary publish/reconcile schedules — scalar *and* causal-DAG epoch
//! mode — the framed store service reaches decisions identical to both the
//! sequential and the thread-per-participant drivers, and a starved
//! admission cap sheds `Begin`s without losing a single session.

mod common;

use common::Turn::{EditPublish, EditPublishWave, Heal, Partition, Resolve};
use common::{func, p, Turn};
use orchestra_model::schema::bioinformatics_schema;
use orchestra_model::{StampId, Update};
use orchestra_store::{CentralStore, ServiceConfig, UpdateStore};
use orchestra_workload::{Driver, Step};
use proptest::prelude::*;

const PARTICIPANTS: u32 = 4;
const KEY_POOL: usize = 6;
const VALUE_POOL: usize = 4;

/// Every turn executes a state-dependent edit and publishes it; after every
/// other one all participants reconcile as one wave.
const WAVES: &[Turn] = &[EditPublish, EditPublishWave];

/// The same with curation and partitions: a participant resolves its open
/// conflicts, goes offline (publishing into its buffer, sitting out the
/// waves), or everyone offline rejoins.
const PARTITIONED_WAVES: &[Turn] =
    &[EditPublish, EditPublish, EditPublishWave, EditPublishWave, Resolve, Partition, Heal];

/// Where the schedule ends up under one driver (none: the sequential run,
/// checked against the spec), after a heal and a final catch-up wave. The
/// service driver also routes its *publishes* through the framed protocol,
/// so the proptests cover the framed publish (scalar and causal-stamped) as
/// well as the session protocol.
fn run(
    turns: &[Vec<Step>],
    driver: Option<Driver<CentralStore>>,
    causal: bool,
) -> common::Snapshot {
    let mut steps = turns.concat();
    steps.push(Step::Heal);
    steps.push(Step::Reconcile((1..=PARTICIPANTS).map(p).collect()));
    let store = CentralStore::new(bioinformatics_schema());
    match driver {
        None => common::run(store, common::mutual(PARTICIPANTS), causal, &steps),
        Some(driver) => {
            common::run_on(store, common::mutual(PARTICIPANTS), causal, &steps, &driver)
        }
    }
}

fn service() -> Option<Driver<CentralStore>> {
    Some(Driver::service(ServiceConfig::default()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Scalar epochs: the service driver reaches decisions (accepted and
    /// rejected sets, final instances) identical to both the sequential and
    /// the thread-per-participant drivers on random publish/reconcile
    /// schedules, including schedules that force genuine conflicts.
    #[test]
    fn service_driver_is_equivalent_on_scalar_schedules(
        turns in common::schedule(PARTICIPANTS, KEY_POOL, VALUE_POOL, WAVES, 1..30)
    ) {
        let sequential = run(&turns, None, false);
        prop_assert_eq!(&sequential, &run(&turns, Some(Driver::threads()), false), "threads diverged");
        prop_assert_eq!(&sequential, &run(&turns, service(), false), "service driver diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Causal-DAG epochs: the same three-way equivalence with causal mode
    /// enabled, so the service publishes go through the client-stamped
    /// `publish_stamped` frame.
    #[test]
    fn service_driver_is_equivalent_on_causal_schedules(
        turns in common::schedule(PARTICIPANTS, KEY_POOL, VALUE_POOL, WAVES, 1..20)
    ) {
        let sequential = run(&turns, None, true);
        prop_assert_eq!(&sequential, &run(&turns, Some(Driver::threads()), true), "threads diverged");
        prop_assert_eq!(&sequential, &run(&turns, service(), true), "service driver diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Partitions and heals at arbitrary points of a causal schedule: what a
    /// participant buffered offline reaches the store at the heal, the waves
    /// it sat out are made up by the next one, and the service driver still
    /// decides exactly as the sequential one.
    #[test]
    fn service_driver_is_equivalent_on_partitioned_schedules(
        turns in common::schedule(PARTICIPANTS, KEY_POOL, VALUE_POOL, PARTITIONED_WAVES, 1..30)
    ) {
        let sequential = run(&turns, None, true);
        prop_assert_eq!(&sequential, &run(&turns, service(), true), "service driver diverged");
    }
}

/// A framed session brings the causal frontier it covers: p2 reconciles
/// through the service after p1's stamped publish, and the next stamp p2
/// allocates (buffered offline, so it can be read) names p1's as a parent.
#[test]
fn a_framed_session_hands_its_frontier_to_the_next_stamp() {
    let mut system = common::confederation(CentralStore::new(bioinformatics_schema()), 2).system;
    system.enable_causal_mode().unwrap();
    let config = ServiceConfig::default();
    let edit = |who, key| vec![Update::insert("Function", func("org", key, "f"), who)];
    system.execute(p(1), edit(p(1), "k1")).unwrap();
    system.run_service_round(&[p(1)], &[p(2)], &config).unwrap();
    system.partition(&[p(2)]).unwrap();
    system.execute(p(2), edit(p(2), "k2")).unwrap();
    system.run_service_round(&[p(2)], &[], &config).unwrap();
    let (stamp, _) = &system.participant(p(2)).unwrap().buffered_publications()[0];
    assert!(stamp.parents.covers(StampId::new(p(1), 1)), "p2's stamp {stamp:?}");
    system.heal().unwrap();
}

/// A cap of one open session forces every concurrent `Begin` but one into
/// `Busy`/retry — yet every session completes and the decisions match a
/// run with no cap at all.
#[test]
fn starved_admission_cap_completes_every_session_with_identical_decisions() {
    const N: u32 = 6;

    let build = || {
        let mut system =
            common::confederation(CentralStore::new(bioinformatics_schema()), N).system;
        for i in 1..=N {
            let who = p(i);
            system
                .execute(
                    who,
                    vec![Update::insert("Function", func("org", "shared", &format!("f{i}")), who)],
                )
                .unwrap();
            system.publish(who).unwrap();
        }
        system
    };

    let mut starved = build();
    let starved_config =
        ServiceConfig { max_open_sessions: 1, workers: 1, ..ServiceConfig::default() };
    let ids = starved.participant_ids();
    let report = starved.run_service_round(&[], &ids, &starved_config).unwrap();
    assert_eq!(report.results.len(), ids.len(), "every session must complete");
    assert!(
        report.stats.busy_rejections > 0,
        "a cap of 1 over {N} concurrent sessions must shed Begins"
    );
    assert_eq!(report.stats.open_sessions, 0, "no session may leak past the round");

    let mut roomy = build();
    roomy.run_service_round(&[], &ids, &ServiceConfig::default()).unwrap();
    for &id in &ids {
        assert_eq!(
            starved.store().accepted_set(id),
            roomy.store().accepted_set(id),
            "admission control changed decisions for {id}"
        );
        assert_eq!(starved.store().rejected_set(id), roomy.store().rejected_set(id));
    }
}
