//! Deferral and user-driven conflict resolution: when equally trusted
//! sources disagree, the conflicting transactions are deferred into conflict
//! groups with options, later updates touching the same keys are deferred
//! too (dirty values), and a user decision finally resolves the group.
//!
//! Run with `cargo run --example conflict_resolution`.

use orchestra::{CdssSystem, ParticipantConfig};
use orchestra_model::schema::bioinformatics_schema;
use orchestra_model::{ParticipantId, TrustPolicy, Tuple, Update};
use orchestra_recon::ResolutionChoice;
use orchestra_store::CentralStore;

fn func(org: &str, prot: &str, f: &str) -> Tuple {
    Tuple::of_text(&[org, prot, f])
}

fn main() {
    let schema = bioinformatics_schema();
    let mut system = CdssSystem::new(schema.clone(), CentralStore::new(schema));

    let curator = ParticipantId(1);
    let lab_a = ParticipantId(2);
    let lab_b = ParticipantId(3);
    system
        .add_participant(ParticipantConfig::new(
            TrustPolicy::new(curator).trusting(lab_a, 1u32).trusting(lab_b, 1u32),
        ))
        .unwrap();
    system.add_participant(ParticipantConfig::new(TrustPolicy::new(lab_a))).unwrap();
    system.add_participant(ParticipantConfig::new(TrustPolicy::new(lab_b))).unwrap();

    // The two labs publish contradictory findings about the same protein.
    system
        .execute(
            lab_a,
            vec![Update::insert(
                "Function",
                func("zebrafish", "shh", "signal-transduction"),
                lab_a,
            )],
        )
        .unwrap();
    system.publish_and_reconcile(lab_a).unwrap();
    system
        .execute(
            lab_b,
            vec![Update::insert("Function", func("zebrafish", "shh", "cell-cycle-control"), lab_b)],
        )
        .unwrap();
    system.publish_and_reconcile(lab_b).unwrap();

    // The curator trusts both labs equally, so the conflict cannot be decided
    // automatically: both transactions are deferred.
    let report = system.publish_and_reconcile(curator).unwrap();
    println!(
        "first reconciliation: accepted {}, deferred {}",
        report.accepted.len(),
        report.deferred.len()
    );
    assert_eq!(report.deferred.len(), 2);
    {
        let participant = system.participant(curator).unwrap();
        assert_eq!(participant.deferred_conflicts().len(), 1);
        for group in participant.deferred_conflicts() {
            println!("conflict group {}:", group.key);
            for (i, option) in group.options.iter().enumerate() {
                println!("  option {i}: {} (from {:?})", option.description(), option.transactions);
            }
        }
    }

    // Lab A revises its finding; the revision touches the dirty key, so it is
    // deferred as well instead of silently invalidating the pending conflict.
    system
        .execute(
            lab_a,
            vec![Update::modify(
                "Function",
                func("zebrafish", "shh", "signal-transduction"),
                func("zebrafish", "shh", "protein-folding"),
                lab_a,
            )],
        )
        .unwrap();
    system.publish_and_reconcile(lab_a).unwrap();
    let report = system.reconcile(curator).unwrap();
    println!("after lab A's revision: {} more transaction(s) deferred", report.deferred.len());
    assert_eq!(report.deferred.len(), 1);

    // The curator finally rules in favour of lab B's interpretation.
    let (group_key, chosen) = {
        let participant = system.participant(curator).unwrap();
        let group = participant
            .deferred_conflicts()
            .iter()
            .find(|g| {
                g.options.iter().any(|o| o.transactions.iter().any(|t| t.participant == lab_b))
            })
            .expect("the zebrafish conflict group exists");
        let idx = group
            .options
            .iter()
            .position(|o| o.transactions.iter().any(|t| t.participant == lab_b))
            .expect("lab B proposed an option");
        (group.key.clone(), idx)
    };
    println!("published transactions in the store so far: {}", system.store().catalog().log_len());

    let resolution = system
        .resolve_conflicts(
            curator,
            &[ResolutionChoice { group: group_key, chosen_option: Some(chosen) }],
        )
        .unwrap();
    println!(
        "resolution: accepted {:?}, rejected {:?}, still deferred {:?}",
        resolution.newly_accepted, resolution.newly_rejected, resolution.still_deferred
    );

    let instance = system.participant(curator).unwrap().instance();
    for (key, tuple) in instance.relation_contents("Function") {
        println!("  {key} -> {tuple}");
    }
    assert!(
        instance.contains_tuple_exact("Function", &func("zebrafish", "shh", "cell-cycle-control"))
    );
    println!("conflict resolved in favour of lab B");
}
