//! Durable store walkthrough: write-ahead logging, a process crash, and
//! byte-identical recovery.
//!
//! Run with `cargo run --example durable_store`.
//!
//! Three labs share data through a WAL-backed central store. Alice and Bob
//! publish divergent curations of the same protein; Carol trusts both equally,
//! so her reconciliation defers the conflict for human resolution. Before she
//! resolves it everything "crashes": the store restarts from its durability
//! directory (snapshot + WAL replay, checked byte-identical to the catalogue
//! that crashed), and each participant, having lost its instance and its
//! deferred conflicts, is rebuilt from the store alone — Carol's deferred
//! conflict is still there to resolve, and the confederation finishes exactly
//! as if nothing had happened.

use orchestra::{CdssSystem, ParticipantConfig};
use orchestra_model::schema::bioinformatics_schema;
use orchestra_model::{ParticipantId, TrustPolicy, Tuple, Update};
use orchestra_recon::ResolutionChoice;
use orchestra_store::{CentralStore, UpdateStore};

fn main() {
    let schema = bioinformatics_schema();
    let dir = std::env::temp_dir().join(format!("orchestra-durable-demo-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    let alice = ParticipantId(1);
    let bob = ParticipantId(2);
    let carol = ParticipantId(3);
    let policies = [
        TrustPolicy::new(alice).trusting(bob, 1u32).trusting(carol, 1u32),
        TrustPolicy::new(bob).trusting(alice, 1u32).trusting(carol, 1u32),
        TrustPolicy::new(carol).trusting(alice, 1u32).trusting(bob, 1u32),
    ];

    // ---- Before the crash: a WAL-backed store records every operation. ----
    let store = CentralStore::durable(schema.clone(), &dir).expect("fresh durability directory");
    let mut system = CdssSystem::new(schema.clone(), store);
    for policy in &policies {
        system.add_participant(ParticipantConfig::new(policy.clone())).unwrap();
    }

    // Divergent curation: Alice and Bob publish different functions for
    // prot1. Carol trusts both at the same priority, so neither can win.
    system
        .execute(
            alice,
            vec![Update::insert(
                "Function",
                Tuple::of_text(&["rat", "prot1", "immune-response"]),
                alice,
            )],
        )
        .unwrap();
    system.publish(alice).unwrap();
    system
        .execute(
            bob,
            vec![Update::insert(
                "Function",
                Tuple::of_text(&["rat", "prot1", "cell-metabolism"]),
                bob,
            )],
        )
        .unwrap();
    system.publish(bob).unwrap();

    let report = system.reconcile(carol).unwrap();
    println!("carol reconciled: {} transaction(s) deferred", report.deferred.len());
    assert_eq!(system.participant(carol).unwrap().deferred_conflicts().len(), 1);

    // A compacting snapshot bounds the log; later records land in a fresh
    // WAL generation.
    let generation = system.store().snapshot().expect("snapshot succeeds");
    println!("snapshot installed, WAL generation {generation}");

    // Bob publishes more work that nobody has reconciled yet — it will be
    // replayed from the new generation's WAL.
    system
        .execute(
            bob,
            vec![Update::insert(
                "Function",
                Tuple::of_text(&["mouse", "prot2", "dna-repair"]),
                bob,
            )],
        )
        .unwrap();
    system.publish(bob).unwrap();

    println!(
        "crash! dropping the catalogue, all instances and {} deferred conflict(s)",
        system.participant(carol).unwrap().deferred_conflicts().len()
    );

    // ---- The crash: restart the store, rebuild the participants. ----
    system.restart_store().expect("the store restarts byte-identically");
    println!("store recovered byte-identically from snapshot + WAL replay");
    for id in [alice, bob, carol] {
        system.rebuild_participant(id).unwrap();
    }

    // Carol's deferred conflict survived the crash (rebuilt from the store's
    // undecided relevant transactions) and can be resolved now.
    let groups = system.participant(carol).unwrap().deferred_conflicts().to_vec();
    assert_eq!(groups.len(), 1, "deferred conflict must survive the crash");
    println!("carol's deferred conflict survived: {} option(s)", groups[0].options.len());
    let keep = groups[0]
        .options
        .iter()
        .position(|o| o.description().contains("cell-metabolism"))
        .expect("bob's option");
    system
        .resolve_conflicts(
            carol,
            &[ResolutionChoice { group: groups[0].key.clone(), chosen_option: Some(keep) }],
        )
        .unwrap();

    // Everyone catches up.
    system.reconcile(alice).unwrap();
    system.reconcile(bob).unwrap();
    system.reconcile(carol).unwrap();
    let carol_instance = system.participant(carol).unwrap().instance();
    assert!(carol_instance
        .contains_tuple_exact("Function", &Tuple::of_text(&["rat", "prot1", "cell-metabolism"])));
    assert!(carol_instance
        .contains_tuple_exact("Function", &Tuple::of_text(&["mouse", "prot2", "dna-repair"])));
    println!(
        "converged after recovery: state ratio {:.3} over Function (lower is more agreement)",
        system.state_ratio_for("Function")
    );

    std::fs::remove_dir_all(&dir).ok();
}
