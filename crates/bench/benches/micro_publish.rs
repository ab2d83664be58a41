//! Microbenchmark of the store catalogue's publish path: nanoseconds per
//! single-transaction publish, publishers rotating over the confederation.
//!
//! Two rows, one on each side of the trust-mapping reverse index:
//!
//! * `zipf_fanin8/512` — 512 registered policies, each trusting 8 publishers
//!   drawn from a Zipf popularity order (the benchmark's `wide_insert`
//!   shape). A publish concerns the handful of shards that trust its origin;
//!   this is the row the index moves.
//! * `mutual_trust/10` — 10 participants who all trust each other (the
//!   `deep_conflict` shape). Every shard trusts every origin, so the index
//!   selects all of them and the row must not move.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use orchestra_model::schema::bioinformatics_schema;
use orchestra_model::{ParticipantId, Transaction, TrustPolicy, Tuple, Update};
use orchestra_store::StoreCatalog;
use orchestra_workload::{mutual_trust_policies, zipf_fanin_policies};
use std::time::Duration;

/// Publishes on one catalogue before it is replaced by a fresh copy of the
/// registered template, so the log and the relevance index stay small and
/// both sides of a comparison measure the same store sizes.
const PUBLISHES_PER_CATALOGUE: usize = 4096;

fn bench_publish(c: &mut Criterion) {
    let mut group = c.benchmark_group("publish_single_txn");
    group.sample_size(20);
    group.measurement_time(Duration::from_secs(4));
    group.warm_up_time(Duration::from_secs(1));
    let shapes: [(&str, Vec<TrustPolicy>); 2] = [
        ("zipf_fanin8", zipf_fanin_policies(512, 8, 1.1, 42)),
        ("mutual_trust", mutual_trust_policies(10, 1)),
    ];
    for (shape, policies) in shapes {
        let participants = policies.len();
        let template = StoreCatalog::new(bioinformatics_schema());
        for policy in policies {
            template.register_policy(policy);
        }
        // One single-insert transaction per publish, publishers in rotation;
        // built once, re-published on every fresh catalogue.
        let batches: Vec<(ParticipantId, Transaction)> = (0..PUBLISHES_PER_CATALOGUE)
            .map(|n| {
                let publisher = ParticipantId(1 + (n % participants) as u32);
                let tuple = Tuple::of_text(&["organism", &format!("prot{n:05}"), "function"]);
                let update = Update::insert("Function", tuple, publisher);
                (publisher, Transaction::from_parts(publisher, n as u64, vec![update]).unwrap())
            })
            .collect();
        group.bench_function(BenchmarkId::new(shape, participants), |b| {
            let mut catalogue = template.clone();
            let mut next = 0usize;
            b.iter(|| {
                if next == PUBLISHES_PER_CATALOGUE {
                    catalogue = template.clone();
                    next = 0;
                }
                let (publisher, txn) = &batches[next];
                next += 1;
                catalogue.publish(*publisher, None, None, vec![txn.clone()]).unwrap()
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_publish);
criterion_main!(benches);
