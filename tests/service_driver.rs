//! Equivalence and admission-control tests for the service driver: on
//! arbitrary publish/reconcile schedules — scalar *and* causal-DAG epoch
//! mode — the framed store service reaches decisions identical to both the
//! sequential and the thread-per-participant drivers, and a starved
//! admission cap sheds `Begin`s without losing a single session.

use orchestra::{CdssSystem, ParticipantConfig};
use orchestra_model::schema::bioinformatics_schema;
use orchestra_model::{KeyValue, ParticipantId, TransactionId, TrustPolicy, Tuple, Update};
use orchestra_store::{CentralStore, ServiceConfig, UpdateStore};
use proptest::prelude::*;

fn p(i: u32) -> ParticipantId {
    ParticipantId(i)
}

fn func(org: &str, prot: &str, f: &str) -> Tuple {
    Tuple::of_text(&[org, prot, f])
}

fn mutual_policies(n: u32) -> Vec<TrustPolicy> {
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

const PARTICIPANTS: u32 = 4;
const KEY_POOL: usize = 6;
const VALUE_POOL: usize = 4;

/// One step of a schedule: `(participant, key, value, reconcile_wave)`.
/// Every step executes a state-dependent edit and publishes it; when
/// `reconcile_wave` is odd, all participants then reconcile as one wave.
type Op = (usize, usize, usize, u8);

/// The three deployment models under comparison.
#[derive(Clone, Copy, PartialEq)]
enum Driver {
    Sequential,
    Threads,
    Service,
}

fn execute(system: &mut CdssSystem<CentralStore>, who: ParticipantId, key: usize, value: usize) {
    let prot = format!("prot{key}");
    let new_tuple = func("org", &prot, &format!("f{value}"));
    let existing = system
        .participant(who)
        .unwrap()
        .instance()
        .value_at("Function", &KeyValue::of_text(&["org", &prot]));
    let update = match existing {
        None => Update::insert("Function", new_tuple, who),
        Some(current) => {
            if current == new_tuple {
                return;
            }
            Update::modify("Function", current, new_tuple, who)
        }
    };
    let _ = system.execute(who, vec![update]);
}

/// Everything compared between the drivers, per participant: the final
/// instance contents and the durable accepted/rejected records.
type ParticipantSnapshot = (Vec<(KeyValue, Tuple)>, Vec<TransactionId>, Vec<TransactionId>);

/// Runs a schedule under one driver. The service driver also routes its
/// *publishes* through the framed protocol, so the proptest covers
/// the framed publish (scalar and causal-stamped) as well as the session
/// protocol.
fn run(ops: &[Op], driver: Driver, causal: bool) -> Vec<ParticipantSnapshot> {
    let schema = bioinformatics_schema();
    let mut system = CdssSystem::new(schema, CentralStore::new(bioinformatics_schema()));
    for policy in mutual_policies(PARTICIPANTS) {
        system.add_participant(ParticipantConfig::new(policy)).unwrap();
    }
    if causal {
        system.enable_causal_mode().unwrap();
    }
    let config = ServiceConfig::default();
    for &(who, key, value, reconcile_wave) in ops {
        let who = p((who % PARTICIPANTS as usize) as u32 + 1);
        execute(&mut system, who, key % KEY_POOL, value % VALUE_POOL);
        match driver {
            Driver::Sequential | Driver::Threads => {
                system.publish(who).unwrap();
            }
            Driver::Service => {
                system.run_service_round(&[who], &[], &config).unwrap();
            }
        }
        if reconcile_wave % 2 == 1 {
            wave(&mut system, driver, &config);
        }
    }
    // Final catch-up wave.
    wave(&mut system, driver, &config);

    let sorted = |mut v: Vec<TransactionId>| {
        v.sort();
        v
    };
    system
        .participant_ids()
        .into_iter()
        .map(|id| {
            (
                system.participant(id).unwrap().instance().relation_contents("Function"),
                sorted(system.store().accepted_set(id).iter().copied().collect()),
                sorted(system.store().rejected_set(id).iter().copied().collect()),
            )
        })
        .collect()
}

fn wave(system: &mut CdssSystem<CentralStore>, driver: Driver, config: &ServiceConfig) {
    match driver {
        Driver::Sequential => {
            system.reconcile_all().unwrap();
        }
        Driver::Threads => {
            system.reconcile_all_parallel().unwrap();
        }
        Driver::Service => {
            let ids = system.participant_ids();
            system.run_service_round(&[], &ids, config).unwrap();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Scalar epochs: the service driver reaches decisions (accepted and
    /// rejected sets, final instances) identical to both the sequential and
    /// the thread-per-participant drivers on random publish/reconcile
    /// schedules, including schedules that force genuine conflicts.
    #[test]
    fn service_driver_is_equivalent_on_scalar_schedules(
        ops in prop::collection::vec(
            (0..PARTICIPANTS as usize, 0..KEY_POOL, 0..VALUE_POOL, 0..2u8),
            1..30,
        )
    ) {
        let sequential = run(&ops, Driver::Sequential, false);
        let threads = run(&ops, Driver::Threads, false);
        let service = run(&ops, Driver::Service, false);
        prop_assert_eq!(&sequential, &threads, "threaded driver diverged");
        prop_assert_eq!(&sequential, &service, "service driver diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Causal-DAG epochs: the same three-way equivalence with causal mode
    /// enabled, so the service publishes go through the client-stamped
    /// `publish_stamped` frame.
    #[test]
    fn service_driver_is_equivalent_on_causal_schedules(
        ops in prop::collection::vec(
            (0..PARTICIPANTS as usize, 0..KEY_POOL, 0..VALUE_POOL, 0..2u8),
            1..20,
        )
    ) {
        let sequential = run(&ops, Driver::Sequential, true);
        let threads = run(&ops, Driver::Threads, true);
        let service = run(&ops, Driver::Service, true);
        prop_assert_eq!(&sequential, &threads, "threaded driver diverged");
        prop_assert_eq!(&sequential, &service, "service driver diverged");
    }
}

/// A cap of one open session forces every concurrent `Begin` but one into
/// `Busy`/retry — yet every session completes and the decisions match a
/// run with no cap at all.
#[test]
fn starved_admission_cap_completes_every_session_with_identical_decisions() {
    const N: u32 = 6;

    let build = || {
        let mut system =
            CdssSystem::new(bioinformatics_schema(), CentralStore::new(bioinformatics_schema()));
        for policy in mutual_policies(N) {
            system.add_participant(ParticipantConfig::new(policy)).unwrap();
        }
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
