//! Integration tests for the network-centric reconciliation mode: identical
//! decisions to the client-centric mode, at a different cost distribution.

use orchestra::{Participant, ParticipantConfig};
use orchestra_model::schema::bioinformatics_schema;
use orchestra_model::{ParticipantId, TrustPolicy, Tuple, Update};
use orchestra_obs::{EventKind, Obs};
use orchestra_store::{DhtStore, UpdateStore};

fn p(i: u32) -> ParticipantId {
    ParticipantId(i)
}

fn func(org: &str, prot: &str, f: &str) -> Tuple {
    Tuple::of_text(&[org, prot, f])
}

/// Builds a DHT store with `n` mutually trusting participants and a spread of
/// published transactions, including a conflict and a revision chain.
fn populated_store(n: u32) -> (DhtStore, Vec<TrustPolicy>) {
    let store = DhtStore::new(bioinformatics_schema());
    let mut policies = Vec::new();
    for i in 1..=n {
        let mut policy = TrustPolicy::new(p(i));
        for j in 1..=n {
            if i != j {
                policy = policy.trusting(p(j), 1u32);
            }
        }
        store.register_participant(policy.clone());
        policies.push(policy);
    }
    // p2 and p3 disagree about rat/prot1; p4 publishes an independent fact
    // and then revises it; p5 publishes an uncontroversial fact.
    let t = |i: u32, j: u64, ups: Vec<Update>| {
        orchestra_model::Transaction::from_parts(p(i), j, ups).unwrap()
    };
    store
        .publish(
            p(2),
            vec![t(2, 0, vec![Update::insert("Function", func("rat", "prot1", "immune"), p(2))])],
        )
        .unwrap();
    store
        .publish(
            p(3),
            vec![t(
                3,
                0,
                vec![Update::insert("Function", func("rat", "prot1", "cell-resp"), p(3))],
            )],
        )
        .unwrap();
    store
        .publish(
            p(4),
            vec![
                t(
                    4,
                    0,
                    vec![Update::insert("Function", func("mouse", "prot2", "dna-repair"), p(4))],
                ),
                t(
                    4,
                    1,
                    vec![Update::modify(
                        "Function",
                        func("mouse", "prot2", "dna-repair"),
                        func("mouse", "prot2", "rna-splicing"),
                        p(4),
                    )],
                ),
            ],
        )
        .unwrap();
    if n >= 5 {
        store
            .publish(
                p(5),
                vec![t(
                    5,
                    0,
                    vec![Update::insert(
                        "Function",
                        func("yeast", "cdc28", "cell-cycle-control"),
                        p(5),
                    )],
                )],
            )
            .unwrap();
    }
    (store, policies)
}

#[test]
fn network_centric_reconciliation_reaches_the_same_decisions() {
    let schema = bioinformatics_schema();

    let (store_a, policies) = populated_store(5);
    let mut client = Participant::new(schema.clone(), ParticipantConfig::new(policies[0].clone()));
    let client_report = client.reconcile(&store_a).unwrap();

    let (store_b, policies) = populated_store(5);
    let mut network = Participant::new(schema.clone(), ParticipantConfig::new(policies[0].clone()));
    let network_report = network.reconcile_network_centric(&store_b).unwrap();

    // Identical decisions...
    let mut a = client_report.accepted.clone();
    let mut b = network_report.accepted.clone();
    a.sort();
    b.sort();
    assert_eq!(a, b);
    assert_eq!(client_report.rejected.len(), network_report.rejected.len());
    let mut a = client_report.deferred.clone();
    let mut b = network_report.deferred.clone();
    a.sort();
    b.sort();
    assert_eq!(a, b);

    // ...and identical resulting instances.
    assert_eq!(
        client.instance().relation_contents("Function"),
        network.instance().relation_contents("Function")
    );
    // The divergent rat/prot1 insertions must have been deferred in both
    // modes (equal trust, no unique winner).
    assert_eq!(client_report.deferred.len(), 2);
    assert_eq!(client.deferred_conflicts().len(), network.deferred_conflicts().len());
}

#[test]
fn network_centric_mode_trades_messages_for_client_work() {
    let schema = bioinformatics_schema();

    let (store_a, policies) = populated_store(5);
    let mut client = Participant::new(schema.clone(), ParticipantConfig::new(policies[0].clone()));
    client.reconcile(&store_a).unwrap();
    let client_messages = store_a.network_stats().messages;

    let (store_b, policies) = populated_store(5);
    let mut network = Participant::new(schema.clone(), ParticipantConfig::new(policies[0].clone()));
    let report = network.reconcile_network_centric(&store_b).unwrap();
    let network_messages = store_b.network_stats().messages;

    // Figure 3's trade-off: the network-centric mode sends more messages.
    assert!(
        network_messages > client_messages,
        "network-centric sent {network_messages} messages, client-centric {client_messages}"
    );
    // Its store time reflects the extra distribution traffic.
    assert!(report.timing.store > std::time::Duration::ZERO);
}

#[test]
fn network_centric_mode_composes_with_later_client_centric_runs() {
    // A participant can switch modes between reconciliations without
    // corrupting its state: decisions recorded by one mode are honoured by
    // the other.
    let schema = bioinformatics_schema();
    let (store, policies) = populated_store(4);
    let mut participant =
        Participant::new(schema.clone(), ParticipantConfig::new(policies[0].clone()));
    let first = participant.reconcile_network_centric(&store).unwrap();
    assert!(!first.accepted.is_empty());

    // New publication afterwards.
    let t = orchestra_model::Transaction::from_parts(
        p(4),
        2,
        vec![Update::insert("Function", func("zebrafish", "shh", "signal-transduction"), p(4))],
    )
    .unwrap();
    store.publish(p(4), vec![t.clone()]).unwrap();

    let second = participant.reconcile(&store).unwrap();
    assert!(second.accepted.contains(&t.id()));
    // Previously accepted transactions are not replayed.
    assert!(!second.accepted.contains(&first.accepted[0]));
}

#[test]
fn network_centric_plan_charges_pinned_message_and_byte_totals() {
    // The key controllers' fan-out is one summary per candidate touching a
    // key plus one verdict per key, whatever order the keys are visited in:
    // the traffic a network-centric reconciliation charges is pinned.
    let (store, policies) = populated_store(5);
    let mut participant =
        Participant::new(bioinformatics_schema(), ParticipantConfig::new(policies[0].clone()));
    let before = store.network_stats();
    participant.reconcile_network_centric(&store).unwrap();
    let after = store.network_stats();
    let charged =
        (after.messages - before.messages, after.hops - before.hops, after.bytes - before.bytes);
    assert_eq!(charged, (42, 43, 3936), "(messages, hops, bytes)");
}

#[test]
fn network_centric_find_conflicts_opens_no_pair_pass() {
    // The plan hands the engine the conflicts its key controllers found, so
    // the engine's `find_conflicts` runs no sorted pass of its own; the
    // client-centric engine's runs one.
    let pair_passes = |network_centric: bool| {
        let (store, policies) = populated_store(5);
        let mut participant =
            Participant::new(bioinformatics_schema(), ParticipantConfig::new(policies[0].clone()));
        let obs = Obs::enabled();
        participant.set_observability(&obs);
        let report = if network_centric {
            participant.reconcile_network_centric(&store)
        } else {
            participant.reconcile(&store)
        };
        assert_eq!(report.unwrap().deferred.len(), 2, "the rat/prot1 conflict is found");
        let events = obs.tracer.events();
        let opened: Vec<_> = events.iter().filter(|e| e.kind == EventKind::Open).collect();
        let find_conflicts: Vec<u64> =
            opened.iter().filter(|e| e.name == "find_conflicts").map(|e| e.span).collect();
        assert_eq!(find_conflicts.len(), 1, "one reconcile, one find_conflicts");
        opened
            .iter()
            .filter(|e| e.name == "pair_pass" && find_conflicts.contains(&e.parent))
            .count()
    };
    assert_eq!(pair_passes(false), 1, "client-centric find_conflicts runs the pair pass");
    assert_eq!(pair_passes(true), 0, "network-centric find_conflicts takes the plan's conflicts");
}
