//! A faithful walkthrough of Figure 2 of the paper: three bioinformatics
//! warehouses reconciling updates to `F(organism, protein, function)` over
//! four epochs, with the trust policies of Figure 1.
//!
//! Run with `cargo run --example figure2_walkthrough`.

use orchestra::{CdssSystem, ParticipantConfig};
use orchestra_model::schema::bioinformatics_schema;
use orchestra_model::{ParticipantId, TrustPolicy, Tuple, Update};
use orchestra_store::CentralStore;

fn func(org: &str, prot: &str, f: &str) -> Tuple {
    Tuple::of_text(&[org, prot, f])
}

fn print_instance(label: &str, system: &CdssSystem<CentralStore>, id: ParticipantId) {
    let instance = system.participant(id).expect("participant exists").instance();
    let rows: Vec<String> =
        instance.relation_contents("Function").iter().map(|(_, t)| t.to_string()).collect();
    println!("  {label}: {{{}}}", rows.join(", "));
}

fn main() {
    let schema = bioinformatics_schema();
    let mut system = CdssSystem::new(schema.clone(), CentralStore::new(schema));

    // Figure 1's trust graph: p1 trusts p2 and p3 equally; p2 prefers p1
    // (priority 2) over p3 (priority 1); p3 trusts only p2.
    let p1 = ParticipantId(1);
    let p2 = ParticipantId(2);
    let p3 = ParticipantId(3);
    system
        .add_participant(ParticipantConfig::new(
            TrustPolicy::new(p1).trusting(p2, 1u32).trusting(p3, 1u32),
        ))
        .unwrap();
    system
        .add_participant(ParticipantConfig::new(
            TrustPolicy::new(p2).trusting(p1, 2u32).trusting(p3, 1u32),
        ))
        .unwrap();
    system
        .add_participant(ParticipantConfig::new(TrustPolicy::new(p3).trusting(p2, 1u32)))
        .unwrap();

    println!("Epoch 0: all instances empty");

    // Epoch 1: p3 inserts (rat, prot1, cell-metab) in X3:0 and revises it to
    // immune in X3:1, then publishes and reconciles.
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
    println!("Epoch 1: p3 publishes X3:0, X3:1 and reconciles");
    print_instance("I3(F)|1", &system, p3);
    assert!(system
        .participant(p3)
        .unwrap()
        .instance()
        .contains_tuple_exact("Function", &func("rat", "prot1", "immune")));

    // Epoch 2: p2 inserts (mouse, prot2, immune) and (rat, prot1, cell-resp),
    // then publishes and reconciles. It trusts p3's updates but they conflict
    // with its own, so it rejects them.
    system
        .execute(p2, vec![Update::insert("Function", func("mouse", "prot2", "immune"), p2)])
        .unwrap();
    system
        .execute(p2, vec![Update::insert("Function", func("rat", "prot1", "cell-resp"), p2)])
        .unwrap();
    let report2 = system.publish_and_reconcile(p2).unwrap();
    println!(
        "Epoch 2: p2 publishes X2:0, X2:1 and reconciles (rejected {} conflicting transactions)",
        report2.rejected.len()
    );
    print_instance("I2(F)|2", &system, p2);
    let i2 = system.participant(p2).unwrap().instance();
    assert!(i2.contains_tuple_exact("Function", &func("mouse", "prot2", "immune")));
    assert!(i2.contains_tuple_exact("Function", &func("rat", "prot1", "cell-resp")));
    assert_eq!(report2.rejected.len(), 2, "p2 rejects X3:0 and X3:1");

    // Epoch 3: p3 reconciles a second time. It applies the mouse update from
    // p2 and rejects the rat tuple that is incompatible with its own state.
    let report3 = system.reconcile(p3).unwrap();
    println!(
        "Epoch 3: p3 reconciles again (accepted {}, rejected {})",
        report3.accepted.len(),
        report3.rejected.len()
    );
    print_instance("I3(F)|3", &system, p3);
    let i3 = system.participant(p3).unwrap().instance();
    assert!(i3.contains_tuple_exact("Function", &func("mouse", "prot2", "immune")));
    assert!(i3.contains_tuple_exact("Function", &func("rat", "prot1", "immune")));
    assert_eq!(report3.accepted.len(), 1);
    assert_eq!(report3.rejected.len(), 1);

    // Epoch 4: p1 reconciles for the first time. It trusts p2 and p3 equally,
    // accepts the non-conflicting mouse update, and must defer the three
    // conflicting rat transactions until a user resolves them.
    let report4 = system.reconcile(p1).unwrap();
    println!(
        "Epoch 4: p1 reconciles (accepted {}, deferred {})",
        report4.accepted.len(),
        report4.deferred.len()
    );
    print_instance("I1(F)|4", &system, p1);
    let i1 = system.participant(p1).unwrap().instance();
    assert!(i1.contains_tuple_exact("Function", &func("mouse", "prot2", "immune")));
    assert_eq!(i1.total_tuples(), 1);
    assert_eq!(report4.accepted.len(), 1, "only the mouse transaction is applied");
    assert_eq!(report4.deferred.len(), 3, "X3:0, X3:1 and X2:1 are deferred");
    println!(
        "  DEFER: {}",
        report4.deferred.iter().map(|t| t.to_string()).collect::<Vec<_>>().join(", ")
    );
    let groups = system.participant(p1).unwrap().deferred_conflicts().len();
    println!("  Conflict groups awaiting resolution: {groups}");

    println!("\nFigure 2 reproduced: every instance matches the paper's table.");
}
