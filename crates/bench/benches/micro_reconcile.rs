//! Microbenchmarks of the reconciliation building blocks: flattening,
//! conflict detection between update extensions, and a single
//! `ReconcileUpdates` run over a synthetic candidate set — thin candidates
//! with conflicts, wide conflict-free candidates against a non-empty own
//! delta (the benchmark's `durable_crash` shape, where the per-applied-update
//! constant is what matters), thin candidates as the store hands them out
//! reconciled by every participant trusting them (`wide_insert`'s fan-out),
//! and thin modifications against an instance of `deep_conflict`'s size —
//! and `FindConflicts` alone over forked modification chains
//! (`deep_conflict`'s candidate sets).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use orchestra_model::schema::bioinformatics_schema;
use orchestra_model::{
    flatten, flatten_own, ParticipantId, Priority, ReconciliationId, Transaction, TrustPolicy,
    Tuple, Update,
};
use orchestra_recon::extension::{direct_conflicts, FlatExtension};
use orchestra_recon::{CandidateTransaction, ReconcileEngine, ReconcileInput, SoftState};
use orchestra_storage::Database;
use orchestra_store::StoreCatalog;
use orchestra_workload::ZipfSampler;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Duration;

fn p(i: u32) -> ParticipantId {
    ParticipantId(i)
}

fn func(key: usize, value: usize) -> Tuple {
    Tuple::of_text(&["organism", &format!("prot{key:05}"), &format!("function-{value}")])
}

/// Builds `n` single-insert candidates, a configurable fraction of which
/// collide pairwise on the same key with divergent values.
fn candidates(n: usize, conflict_fraction: f64) -> Vec<CandidateTransaction> {
    let conflicting = (n as f64 * conflict_fraction) as usize;
    (0..n)
        .map(|i| {
            let (key, value) = if i < conflicting { (i / 2, i) } else { (1_000 + i, 0) };
            let txn = Transaction::from_parts(
                p(2 + (i % 8) as u32),
                i as u64,
                vec![Update::insert("Function", func(key, value), p(2 + (i % 8) as u32))],
            )
            .unwrap();
            CandidateTransaction::new(&txn, Priority(1), vec![])
        })
        .collect()
}

fn bench_flatten(c: &mut Criterion) {
    let schema = bioinformatics_schema();
    let mut updates = Vec::new();
    for i in 0..200usize {
        updates.push(Update::insert("Function", func(i, 0), p(1)));
        updates.push(Update::modify("Function", func(i, 0), func(i, 1), p(1)));
        updates.push(Update::modify("Function", func(i, 1), func(i, 2), p(1)));
    }
    c.bench_function("flatten_600_updates", |b| b.iter(|| flatten(&schema, &updates)));
}

fn bench_reconcile(c: &mut Criterion) {
    let schema = bioinformatics_schema();
    let mut group = c.benchmark_group("reconcile_candidates");
    group.sample_size(20);
    group.measurement_time(Duration::from_secs(5));
    group.warm_up_time(Duration::from_secs(1));
    for &n in &[50usize, 200, 500] {
        group.bench_with_input(BenchmarkId::new("ten_pct_conflicts", n), &n, |b, &n| {
            let cands = candidates(n, 0.1);
            let engine = ReconcileEngine::new(schema.clone());
            b.iter(|| {
                let mut db = Database::new(schema.clone());
                let mut soft = SoftState::new();
                engine.reconcile(
                    ReconcileInput {
                        recno: ReconciliationId(1),
                        candidates: cands.clone(),
                        ..Default::default()
                    },
                    &mut db,
                    &mut soft,
                )
            })
        });
    }
    group.finish();
}

/// A 26-update transaction in the generator's shape: 13 new `Function` rows,
/// each with one cross-reference, over keys private to `(origin, local)`.
fn wide_txn(origin: u32, local: u64) -> Transaction {
    let mut updates = Vec::with_capacity(26);
    for k in 0..13usize {
        let key = origin as usize * 10_000 + local as usize * 100 + k;
        updates.push(Update::insert("Function", func(key, 0), p(origin)));
        let xref = Tuple::of_text(&["organism", &format!("prot{key:05}"), "db", "accession"]);
        updates.push(Update::insert("XRef", xref, p(origin)));
    }
    Transaction::from_parts(p(origin), local, updates).unwrap()
}

/// One conflict-free reconciliation in `durable_crash`'s shape: eight
/// candidates of 26 updates each (208 applied updates per run) against the
/// participant's own freshly published delta.
fn bench_wide_txn_own_delta(c: &mut Criterion) {
    let schema = bioinformatics_schema();
    let mut group = c.benchmark_group("wide_txn_own_delta");
    group.sample_size(20);
    group.measurement_time(Duration::from_secs(5));
    group.warm_up_time(Duration::from_secs(1));

    let independent: Vec<CandidateTransaction> = (0..8u32)
        .map(|i| CandidateTransaction::new(&wide_txn(2 + i, 0), Priority(1), vec![]))
        .collect();
    // Same 208 updates, but the last two candidates share an undecided
    // antecedent, so the second of them is applied through the
    // `flattened_excluding` fallback.
    let mut shared_antecedent = independent[..5].to_vec();
    let antecedent = wide_txn(7, 0);
    for origin in [8u32, 9] {
        shared_antecedent.push(CandidateTransaction::new(
            &wide_txn(origin, 0),
            Priority(1),
            vec![antecedent.clone()],
        ));
    }
    let own_delta = |txns: u64| -> Vec<Update> {
        (0..txns).flat_map(|local| wide_txn(1, local).updates().to_vec()).collect()
    };

    let arms = [
        ("own_26", &independent, own_delta(1)),
        ("own_52", &independent, own_delta(2)),
        ("own_26_shared_antecedent", &shared_antecedent, own_delta(1)),
    ];
    for (label, cands, own_updates) in arms {
        group.bench_function(BenchmarkId::new(label, 208), |b| {
            let engine = ReconcileEngine::new(schema.clone());
            // The participant has already applied its own delta locally.
            let mut base = Database::new(schema.clone());
            base.apply_all(&own_updates).unwrap();
            b.iter(|| {
                let mut db = base.clone();
                let mut soft = SoftState::new();
                engine.reconcile(
                    ReconcileInput {
                        recno: ReconciliationId(1),
                        candidates: cands.clone(),
                        own_updates: own_updates.clone(),
                        ..Default::default()
                    },
                    &mut db,
                    &mut soft,
                )
            })
        });
    }
    group.finish();
}

/// `wide_insert`'s fan-out at the engine: 64 two-insert transactions, each
/// reconciled by the eight participants that trust it. The candidates are
/// built once, as the store hands them out (so a transaction that is its own
/// extension carries the flattening its log entry derived); each iteration
/// reconciles all 64 with 8 fresh engines and instances. Divide the mean by
/// 512 for the time per candidate.
fn bench_thin_fanout(c: &mut Criterion) {
    let schema = bioinformatics_schema();
    let store = StoreCatalog::new(schema.clone());
    store.register_policy(TrustPolicy::new(p(1)).trusting(p(2), 1u32));
    let txns: Vec<Transaction> = (0..64u64)
        .map(|local| {
            let key = 2 * local as usize;
            let updates = (key..key + 2)
                .map(|key| Update::insert("Function", func(key, 0), p(2)))
                .collect::<Vec<_>>();
            Transaction::from_parts(p(2), local, updates).unwrap()
        })
        .collect();
    store.publish(p(2), None, None, txns).unwrap();
    let session = store.open_session(p(1)).unwrap().session;
    let candidates: Vec<CandidateTransaction> =
        store.batch(session, 64).unwrap().candidates.into_iter().map(|(c, _)| c).collect();
    assert_eq!(candidates.len(), 64);

    let mut group = c.benchmark_group("thin_fanout");
    group.sample_size(20);
    group.measurement_time(Duration::from_secs(5));
    group.warm_up_time(Duration::from_secs(1));
    group.bench_function(BenchmarkId::new("two_inserts_x8_participants", 64), |b| {
        b.iter(|| {
            for _ in 0..8 {
                let engine = ReconcileEngine::new(schema.clone());
                engine.reconcile(
                    ReconcileInput {
                        recno: ReconciliationId(1),
                        candidates: candidates.clone(),
                        ..Default::default()
                    },
                    &mut Database::new(schema.clone()),
                    &mut SoftState::new(),
                );
            }
        })
    });
    group.finish();
}

/// `deep_conflict`'s instance at the end of a run — 800 `Function` rows and
/// 5 800 cross-references — reconciling one-update modifications of its
/// `Function` rows, each candidate carrying its own flattening as the store
/// hands it out. An iteration is two reconciliations of 64 candidates: the
/// first moves 64 rows to another function, the second moves them back, so
/// the instance is where it started and no clone is timed. Divide the mean by
/// 128 for the time per applied update.
fn bench_large_instance(c: &mut Criterion) {
    let schema = bioinformatics_schema();
    let mut base = Database::new(schema.clone());
    for key in 0..800 {
        base.apply_update(&Update::insert("Function", func(key, 0), p(9))).unwrap();
    }
    for i in 0..5_800usize {
        let (protein, db, accession) =
            (format!("prot{:05}", i % 800), format!("db{}", i / 800), format!("acc{i}"));
        let xref = Tuple::of_text(&["organism", &protein, &db, &accession]);
        base.apply_update(&Update::insert("XRef", xref, p(9))).unwrap();
    }
    let wave = |from: usize, to: usize, first_local: u64| -> Vec<CandidateTransaction> {
        (0..64usize)
            .map(|i| {
                let (key, origin) = (12 * i + 5, p(2 + (i % 8) as u32));
                let modify = Update::modify("Function", func(key, from), func(key, to), origin);
                let txn =
                    Transaction::from_parts(origin, first_local + i as u64, vec![modify]).unwrap();
                let own = flatten_own(&schema, &txn.shared_updates()).map(Arc::new);
                CandidateTransaction::new(&txn, Priority(1), vec![])
                    .with_shared_flattening(own.as_ref())
            })
            .collect()
    };
    let waves = [wave(0, 1, 0), wave(1, 0, 64)];
    let engine = ReconcileEngine::new(schema.clone());
    // Returns how many candidates were accepted.
    let reconcile = |db: &mut Database| -> usize {
        let mut accepted = 0;
        for candidates in &waves {
            let input = ReconcileInput {
                recno: ReconciliationId(1),
                candidates: candidates.clone(),
                ..Default::default()
            };
            accepted += engine.reconcile(input, db, &mut SoftState::new()).accepted_roots.len();
        }
        accepted
    };
    let mut db = base.clone();
    assert_eq!(reconcile(&mut db), 128, "every modification applies");
    assert_eq!(db, base, "every row is back where it started");

    let mut group = c.benchmark_group("large_instance");
    group.sample_size(20);
    group.measurement_time(Duration::from_secs(5));
    group.warm_up_time(Duration::from_secs(1));
    group.bench_function(BenchmarkId::new("modify_there_and_back", 128), |b| {
        b.iter(|| reconcile(&mut db))
    });
    group.finish();
}

/// `deep_conflict`'s candidate sets at `FindConflicts`: 40 one-update
/// transactions from eight equally trusted participants on 12 keys drawn
/// Zipf (s = 1.5), as the store hands them to a participant that has
/// accepted none of them. A transaction revises a value an earlier one wrote
/// on its key, usually the latest and otherwise an older one, so chains fork:
/// candidates share antecedents, some extensions contain others, and
/// divergent revisions of one value conflict. An iteration finds the direct
/// conflicts among the 40 flattenings; divide the mean by 40 for the time per
/// candidate.
fn bench_conflict_heavy(c: &mut Criterion) {
    const CANDIDATES: usize = 40;
    let schema = bioinformatics_schema();
    let store = StoreCatalog::new(schema.clone());
    let publishers: Vec<ParticipantId> = (2..10).map(p).collect();
    let policy =
        publishers.iter().fold(TrustPolicy::new(p(1)), |policy, &who| policy.trusting(who, 1u32));
    store.register_policy(policy);

    let keys = ZipfSampler::new(12, 1.5);
    let mut rng = StdRng::seed_from_u64(42);
    // Every value written on each key, oldest first.
    let mut written: Vec<Vec<Tuple>> = vec![Vec::new(); keys.len()];
    for i in 0..CANDIDATES {
        let who = publishers[i % publishers.len()];
        let key = keys.sample(&mut rng);
        let next = func(key, i);
        let update = match written[key].len() {
            0 => Update::insert("Function", next.clone(), who),
            n => {
                let from = if rng.gen_range(0..3) > 0 { n - 1 } else { rng.gen_range(0..n) };
                Update::modify("Function", written[key][from].clone(), next.clone(), who)
            }
        };
        written[key].push(next);
        let txn = Transaction::from_parts(who, i as u64, vec![update]).unwrap();
        store.publish(who, None, None, vec![txn]).unwrap();
    }
    let session = store.open_session(p(1)).unwrap().session;
    let candidates: Vec<CandidateTransaction> =
        store.batch(session, CANDIDATES).unwrap().candidates.into_iter().map(|(c, _)| c).collect();
    assert_eq!(candidates.len(), CANDIDATES);
    let flats: Vec<Arc<FlatExtension>> =
        candidates.iter().map(|cand| Arc::clone(cand.flattening(&schema))).collect();
    let conflicts = direct_conflicts(&candidates, &flats, &schema);
    assert!(!conflicts.is_empty(), "divergent revisions conflict");
    assert!(candidates.iter().any(|cand| cand.members.len() > 2), "chains fork");

    let mut group = c.benchmark_group("conflict_heavy");
    group.sample_size(20);
    group.measurement_time(Duration::from_secs(5));
    group.warm_up_time(Duration::from_secs(1));
    group.bench_function(BenchmarkId::new("find_conflicts", CANDIDATES), |b| {
        b.iter(|| direct_conflicts(&candidates, &flats, &schema))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_flatten,
    bench_reconcile,
    bench_wide_txn_own_delta,
    bench_thin_fanout,
    bench_large_instance,
    bench_conflict_heavy
);
criterion_main!(benches);
