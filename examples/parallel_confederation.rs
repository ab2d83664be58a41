//! The concurrency-ready store API in action: many participants drive one
//! shared `CentralStore` — first through explicit paged reconciliation
//! sessions, then through the system-level parallel confederation driver.
//!
//! Run with `cargo run --example parallel_confederation`.

use orchestra::{CdssSystem, ParticipantConfig};
use orchestra_model::schema::bioinformatics_schema;
use orchestra_model::{ParticipantId, Transaction, TrustPolicy, Tuple, Update};
use orchestra_store::{CentralStore, UpdateStore};

fn func(org: &str, prot: &str, f: &str) -> Tuple {
    Tuple::of_text(&[org, prot, f])
}

fn main() {
    let schema = bioinformatics_schema();
    let n = 6u32;

    // ---- Part 1: the raw session API against a shared store reference ----
    let store = CentralStore::new(schema.clone());
    for i in 1..=n {
        let mut policy = TrustPolicy::new(ParticipantId(i));
        for j in 1..=n {
            if i != j {
                policy = policy.trusting(ParticipantId(j), 1u32);
            }
        }
        store.register_participant(policy);
    }

    // Six threads publish concurrently against the same `&store` — the
    // sharded catalogue serialises only the epoch allocation, exactly like
    // the paper's single epoch sequence.
    std::thread::scope(|scope| {
        for i in 1..=n {
            let store = &store;
            scope.spawn(move || {
                let me = ParticipantId(i);
                let txn = Transaction::from_parts(
                    me,
                    0,
                    vec![Update::insert(
                        "Function",
                        func("human", &format!("prot{i}"), "kinase"),
                        me,
                    )],
                )
                .unwrap();
                store.publish(me, vec![txn]).unwrap();
            });
        }
    });
    println!("{} transactions published from {} threads", store.catalog().log_len(), n);

    // One participant walks a paged reconciliation session by hand: open,
    // stream bounded batches, commit. Aborting the session instead would
    // leave the store byte-identical.
    let me = ParticipantId(1);
    let opened = store.begin_reconciliation(me).unwrap();
    let session = opened.value;
    println!(
        "session opened: recno {}, pinned to epoch {}, ≤ {} candidates pending",
        session.recno, session.epoch, session.pending
    );
    let mut timing = opened.timing;
    let mut accepted = Vec::new();
    let mut pages = 0;
    loop {
        let batch = store.next_batch(session.session, 2).unwrap();
        timing.accumulate(batch.timing);
        if batch.value.is_empty() {
            break;
        }
        pages += 1;
        for candidate in &batch.value {
            accepted.extend(candidate.member_ids());
        }
    }
    timing.accumulate(store.commit_reconciliation(session.session, &accepted, &[]).unwrap());
    println!(
        "streamed {} candidates over {} pages, committed in {:?} store time",
        accepted.len(),
        pages,
        timing.total()
    );

    // ---- Part 2: the system-level parallel confederation driver ----
    let mut system = CdssSystem::new(schema.clone(), CentralStore::new(schema));
    for i in 1..=n {
        let mut policy = TrustPolicy::new(ParticipantId(i));
        for j in 1..=n {
            if i != j {
                policy = policy.trusting(ParticipantId(j), 1u32);
            }
        }
        system.add_participant(ParticipantConfig::new(policy)).unwrap();
    }
    for i in 1..=n {
        let id = ParticipantId(i);
        system
            .execute(
                id,
                vec![Update::insert("Function", func("rat", &format!("gene{i}"), "transport"), id)],
            )
            .unwrap();
        system.publish(id).unwrap();
    }

    // One thread per participant, all reconciling against the shared store.
    let reports = system.reconcile_all_parallel().unwrap();
    for (id, report) in &reports {
        println!(
            "participant {id}: accepted {} transaction(s) in reconciliation {}",
            report.accepted.len(),
            report.recno
        );
    }
    assert!((system.state_ratio_for("Function") - 1.0).abs() < 1e-9);
    println!("all {} participants converged (state ratio 1.0)", reports.len());
}
