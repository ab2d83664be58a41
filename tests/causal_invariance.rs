//! Order-invariance of causal-DAG epochs: for arbitrary causal DAGs of
//! stamped publications × arbitrary linear extensions of the causal order ×
//! crash points × both WAL codecs, reconciliation reaches **identical
//! decision streams and durable decision sets**.
//!
//! The property test generates a random causal DAG: three publishers each
//! emit a FIFO chain of single-insert transactions over a small key space,
//! and each publication's parent antichain is the frontier the publisher
//! had observed at stamping time (publishers randomly observe the global
//! frontier, creating cross-publisher causal edges). The same DAG is then
//! published three times, each through `publish_stamped`:
//!
//! * in one random linear extension over an ephemeral causal store (the
//!   reference);
//! * in a *different* random linear extension over a second ephemeral store;
//! * in the second extension again over a *durable* store that crashes —
//!   drop the store, recover from disk — at an arbitrary point of the
//!   publication stream.
//!
//! Epoch numbers differ between extensions (arrival order assigns them),
//! but decisions must not: after everyone reconciles, resolves every
//! conflict (keeping option 0) and reconciles again, every participant's
//! decision stream, the store's durable accept/reject sets, the final
//! instances and the causal frontier must be identical across all three
//! runs — and the recovered durable state must be byte-identical to the
//! pre-crash one.

mod common;

use common::p;
use orchestra::{Participant, ParticipantConfig};
use orchestra_model::schema::bioinformatics_schema;
use orchestra_model::{AntichainClock, CausalStamp, Transaction, TrustPolicy, Tuple, Update};
use orchestra_store::{CentralStore, UpdateStore};
use orchestra_workload::{mutual_trust_policies, Confederation, Driver, Step};
use proptest::prelude::*;
use std::path::PathBuf;

fn scratch_dir() -> PathBuf {
    common::scratch_dir("causal-prop")
}

const PUBLISHERS: u32 = 3;

fn policies() -> Vec<TrustPolicy> {
    mutual_trust_policies(PUBLISHERS as usize, 1)
}

fn clients() -> Vec<Participant> {
    policies()
        .into_iter()
        .map(|policy| Participant::new(bioinformatics_schema(), ParticipantConfig::new(policy)))
        .collect()
}

fn setup(store: &CentralStore) {
    for policy in policies() {
        store.register_participant(policy);
    }
    store.enable_causal_mode().expect("fresh store accepts causal mode");
}

/// One stamped publication of the generated DAG.
#[derive(Debug, Clone)]
struct Publication {
    stamp: CausalStamp,
    transaction: Transaction,
}

/// Builds the causal DAG from the generated `(who, key, observe)` stream.
/// The generation order is one valid history: each publisher's parents are
/// its own chain plus whatever slice of the global frontier it had observed.
/// Every value is unique per publication, so any two publications on the
/// same key genuinely conflict and the conflict handling is exercised on
/// every overlap.
fn build_dag(spec: &[(u32, u32, u32)]) -> Vec<Publication> {
    let mut seqs = vec![0u64; PUBLISHERS as usize + 1];
    let mut observed = vec![AntichainClock::new(); PUBLISHERS as usize + 1];
    let mut frontier = AntichainClock::new();
    let mut publications = Vec::new();
    for (who, key, observe) in spec {
        let who = *who;
        if *observe == 1 {
            observed[who as usize].merge(&frontier);
        }
        let seq = seqs[who as usize] + 1;
        seqs[who as usize] = seq;
        let stamp = CausalStamp::new(p(who), seq, observed[who as usize].clone());
        observed[who as usize].insert(stamp.id());
        frontier.insert(stamp.id());
        let tuple = Tuple::of_text(&["rat", &format!("prot{key}"), &format!("fn{who}_{seq}")]);
        let transaction =
            Transaction::from_parts(p(who), seq, vec![Update::insert("Function", tuple, p(who))])
                .expect("valid transaction");
        publications.push(Publication { stamp, transaction });
    }
    publications
}

/// Picks a linear extension of the DAG's causal order: repeatedly choose —
/// driven by the `choices` stream — among the publications whose publisher
/// FIFO predecessor and whose whole parent antichain have been emitted.
fn linear_extension(publications: &[Publication], choices: &[usize]) -> Vec<usize> {
    let mut emitted_seq = vec![0u64; PUBLISHERS as usize + 1];
    let mut remaining: Vec<usize> = (0..publications.len()).collect();
    let mut order = Vec::with_capacity(publications.len());
    let mut pick = 0usize;
    while !remaining.is_empty() {
        let ready: Vec<usize> = remaining
            .iter()
            .copied()
            .filter(|&i| {
                let stamp = &publications[i].stamp;
                let who = stamp.publisher.as_u32() as usize;
                emitted_seq[who] + 1 == stamp.seq
                    && stamp
                        .parents
                        .members()
                        .iter()
                        .all(|id| emitted_seq[id.publisher.as_u32() as usize] >= id.seq)
            })
            .collect();
        assert!(!ready.is_empty(), "a causal DAG always has a ready publication");
        let choice = choices.get(pick).copied().unwrap_or(0) % ready.len();
        pick += 1;
        let next = ready[choice];
        let who = publications[next].stamp.publisher.as_u32() as usize;
        emitted_seq[who] = publications[next].stamp.seq;
        remaining.retain(|&i| i != next);
        order.push(next);
    }
    order
}

/// Publishes the DAG in the given order, reconciling/resolving at the end,
/// and returns the confederation with its decision stream. `crash_at`
/// (durable stores only) drops the store mid-stream and recovers it from
/// disk, asserting byte-identical durable state.
fn run_extension(
    mut store: CentralStore,
    dir: Option<&PathBuf>,
    publications: &[Publication],
    order: &[usize],
    crash_at: usize,
) -> (Confederation<CentralStore>, Vec<String>) {
    for (step, &i) in order.iter().enumerate() {
        if let Some(dir) = dir {
            if step == crash_at.min(order.len()) && step > 0 {
                let fingerprint = format!("{:?}", store.catalog());
                drop(store);
                store = CentralStore::recover(dir).expect("store recovers");
                assert_eq!(
                    format!("{:?}", store.catalog()),
                    fingerprint,
                    "recovered durable state diverged"
                );
            }
        }
        let publication = &publications[i];
        store
            .publish_stamped(publication.stamp.clone(), vec![publication.transaction.clone()])
            .expect("stamped publish succeeds");
    }
    // Everyone reconciles, keeps option 0 of every open conflict, and
    // reconciles again, one participant after another.
    let reconcile = (1..=PUBLISHERS).map(|who| Step::Reconcile(vec![p(who)]));
    let resolve = (1..=PUBLISHERS).map(|who| Step::Resolve { who: p(who), option: 0 });
    let steps: Vec<Step> = reconcile.clone().chain(resolve).chain(reconcile).collect();
    let mut conf = common::adopt(store, clients());
    let mut log = Vec::new();
    conf.run(&steps, &Driver::sequential(), |outcome| log.push(common::decisions(&outcome)))
        .expect("step succeeds");
    (conf, log)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For any causal DAG, any two linear extensions of it, any crash point
    /// and either WAL codec: identical decision streams, durable decision
    /// sets, final instances and causal frontier.
    #[test]
    fn linear_extensions_reach_identical_decisions(
        spec in prop::collection::vec((1u32..PUBLISHERS + 1, 0u32..4, 0u32..2), 4..24),
        choices_a in prop::collection::vec(0usize..97, 24),
        choices_b in prop::collection::vec(0usize..97, 24),
        crash_at in 0usize..24,
    ) {
        let publications = build_dag(&spec);
        let order_a = linear_extension(&publications, &choices_a);
        let order_b = linear_extension(&publications, &choices_b);

        // Reference: extension A over an ephemeral causal store.
        let reference_store = CentralStore::new(bioinformatics_schema());
        setup(&reference_store);
        let (reference, reference_log) =
            run_extension(reference_store, None, &publications, &order_a, usize::MAX);

        // Extension B over a second ephemeral store.
        let other_store = CentralStore::new(bioinformatics_schema());
        setup(&other_store);
        let (other, other_log) =
            run_extension(other_store, None, &publications, &order_b, usize::MAX);

        // Extension B again, durable, crashing (and recovering
        // byte-identically) at an arbitrary point.
        let dir = scratch_dir();
        let durable_store = CentralStore::durable(bioinformatics_schema(), &dir)
            .expect("fresh durability directory");
        setup(&durable_store);
        let (durable, durable_log) =
            run_extension(durable_store, Some(&dir), &publications, &order_b, crash_at);

        prop_assert_eq!(&other_log, &reference_log, "decision streams diverged across extensions");
        prop_assert_eq!(&durable_log, &reference_log, "decision streams diverged across the crash");
        prop_assert_eq!(
            common::snapshot(&other.system),
            common::snapshot(&reference.system),
            "durable decision sets or final instances diverged across extensions"
        );
        prop_assert_eq!(
            common::snapshot(&durable.system),
            common::snapshot(&reference.system),
            "durable decision sets or final instances diverged across crash points"
        );
        let frontier = |conf: &Confederation<CentralStore>| {
            conf.system.store().causal_frontier().to_string()
        };
        prop_assert_eq!(frontier(&other), frontier(&reference), "causal frontiers diverged");
        prop_assert_eq!(frontier(&durable), frontier(&reference), "durable frontier diverged");
        std::fs::remove_dir_all(&dir).ok();
    }
}
