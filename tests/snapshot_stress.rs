//! Compacting snapshots under concurrent load: 8 threads publish and
//! reconcile against one durable [`CentralStore`] (with group-commit WAL
//! flushing) while snapshots — and retention prunes — run concurrently, and
//! recovery must still rebuild byte-identical durable state.
//!
//! Consistent-cut audit (why this is safe, kept in sync with
//! `StoreCatalog::snapshot`): the snapshot takes the log read lock, the
//! shard-map read lock and every shard's read lock in the catalogue's one
//! total order (`log → shard map → shards sorted by id`). Every durable
//! mutation appends its WAL record while holding the *write* lock of the
//! state it mutates (publishes: log + publisher shard; commits/decisions/
//! retirements: the shard; frontier: the log), so while the snapshot holds
//! the full read-lock set no writer can slip a record between the cut and
//! the generation switch. `prune_to_horizon` takes the same locks in the
//! same order in write mode, so snapshots, prunes and publishes serialise
//! cleanly instead of deadlocking.

use orchestra_model::schema::bioinformatics_schema;
use orchestra_model::{ParticipantId, Transaction, TrustPolicy, Tuple, Update};
use orchestra_store::{
    poll_ready, CentralStore, FlushPolicy, InProcessClient, RetentionPolicy, SessionClient,
    UpdateStore,
};
use std::path::PathBuf;
use std::time::Duration;

fn p(i: u32) -> ParticipantId {
    ParticipantId(i)
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("orchestra-snapshot-stress-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

const THREADS: u32 = 8;
const ROUNDS: u64 = 24;

#[test]
fn snapshots_under_publish_reconcile_load_recover_byte_identically() {
    let dir = scratch_dir("load");
    let schema = bioinformatics_schema();
    let store = CentralStore::durable(schema, &dir).expect("fresh dir");
    // Group commit (satellite of the same PR): batches of appends share one
    // fsync; the stress run proves order survives concurrency.
    store
        .catalog()
        .durability()
        .file_backend()
        .expect("durable store")
        .set_flush_policy(FlushPolicy::EveryN(8));
    for i in 1..=THREADS {
        let mut policy = TrustPolicy::new(p(i));
        for j in 1..=THREADS {
            if i != j {
                policy = policy.trusting(p(j), 1u32);
            }
        }
        store.register_participant(policy);
    }
    store.catalog().close_membership().expect("close membership");
    store.set_retention(RetentionPolicy::ConvergedOnly);

    std::thread::scope(|scope| {
        for i in 1..=THREADS {
            let store = &store;
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    // Distinct keys per thread: the load exercises locking,
                    // not conflict semantics (covered elsewhere).
                    let tuple = Tuple::of_text(&[&format!("org{i}"), &format!("prot{round}"), "v"]);
                    let txn = Transaction::from_parts(
                        p(i),
                        round,
                        vec![Update::insert("Function", tuple, p(i))],
                    )
                    .expect("valid transaction");
                    store.publish(p(i), vec![txn]).expect("publish succeeds");
                    if round % 3 == i as u64 % 3 {
                        let client = InProcessClient::new(store, p(i));
                        let session = poll_ready(client.begin_session())
                            .expect("session opens")
                            .value
                            .session;
                        let candidates = poll_ready(client.drain_candidates(session, 16))
                            .expect("drain succeeds")
                            .value;
                        let accepted: Vec<_> = candidates
                            .iter()
                            .flat_map(|c| c.members.iter().map(|(id, _)| *id))
                            .collect();
                        poll_ready(client.commit(session, &accepted, &[]))
                            .expect("commit succeeds");
                    }
                }
            });
        }
        // The snapshot + prune thread: compaction and retention race the
        // publishers the whole run.
        let store = &store;
        scope.spawn(move || {
            for round in 0..8 {
                std::thread::sleep(Duration::from_millis(2));
                store.snapshot().expect("snapshot under load succeeds");
                if round % 2 == 0 {
                    store.prune_to_horizon().expect("prune under load succeeds");
                }
            }
        });
    });

    // Quiesce, then restart: the recovered catalogue must match byte for
    // byte.
    let generation = store.catalog().durability().file_backend().expect("durable").generation();
    assert!(generation >= 8, "snapshots must have advanced the WAL generation");
    let recovered = store.restart().expect("the store recovers byte-identically");

    // The recovered store keeps serving: one more publish + snapshot +
    // recovery round trip stays identical.
    let txn = Transaction::from_parts(
        p(1),
        ROUNDS,
        vec![Update::insert("Function", Tuple::of_text(&["postrec", "prot", "v"]), p(1))],
    )
    .expect("valid transaction");
    recovered.publish(p(1), vec![txn]).expect("publish after recovery");
    recovered.snapshot().expect("snapshot after recovery");
    recovered.restart().expect("a second recovery is byte-identical");
    std::fs::remove_dir_all(&dir).ok();
}
