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

use orchestra::{Participant, ParticipantConfig};
use orchestra_model::schema::bioinformatics_schema;
use orchestra_model::{
    AntichainClock, CausalStamp, ParticipantId, Transaction, TrustPolicy, Tuple, Update,
};
use orchestra_store::{CentralStore, UpdateStore};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "orchestra-causal-prop-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn p(i: u32) -> ParticipantId {
    ParticipantId(i)
}

const PUBLISHERS: u32 = 3;

fn policies() -> Vec<TrustPolicy> {
    (1..=PUBLISHERS)
        .map(|i| {
            let mut policy = TrustPolicy::new(p(i));
            for j in 1..=PUBLISHERS {
                if i != j {
                    policy = policy.trusting(p(j), 1u32);
                }
            }
            policy
        })
        .collect()
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
/// and returns the per-participant decision stream. `crash_at` (durable
/// stores only) drops the store mid-stream and recovers it from disk,
/// asserting byte-identical durable state.
fn run_extension(
    mut store: CentralStore,
    dir: Option<&PathBuf>,
    publications: &[Publication],
    order: &[usize],
    crash_at: usize,
) -> (CentralStore, Vec<Participant>, Vec<String>) {
    let mut participants = clients();
    let mut log = Vec::new();
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
    for round in 0..2 {
        for (idx, participant) in participants.iter_mut().enumerate() {
            let report = participant.reconcile(&store).expect("reconcile succeeds");
            let mut accepted = report.accepted.clone();
            accepted.sort();
            let mut rejected = report.rejected.clone();
            rejected.sort();
            let mut deferred = report.deferred.clone();
            deferred.sort();
            log.push(format!(
                "round {round} reconcile p{} acc {accepted:?} rej {rejected:?} def {deferred:?}",
                idx + 1
            ));
        }
        if round > 0 {
            break;
        }
        for (idx, participant) in participants.iter_mut().enumerate() {
            let groups: Vec<_> =
                participant.deferred_conflicts().iter().map(|g| g.key.clone()).collect();
            if groups.is_empty() {
                continue;
            }
            let choices: Vec<orchestra_recon::ResolutionChoice> = groups
                .into_iter()
                .map(|key| orchestra_recon::ResolutionChoice { group: key, chosen_option: Some(0) })
                .collect();
            let outcome =
                participant.resolve_conflicts(&store, &choices).expect("resolution succeeds");
            let mut acc = outcome.newly_accepted.clone();
            acc.sort();
            let mut rej = outcome.newly_rejected.clone();
            rej.sort();
            log.push(format!("resolve p{} acc {acc:?} rej {rej:?}", idx + 1));
        }
    }
    (store, participants, log)
}

/// The per-participant durable accept/reject sets, sorted for comparison.
fn decision_sets(store: &CentralStore) -> Vec<(Vec<String>, Vec<String>)> {
    (1..=PUBLISHERS)
        .map(|i| {
            let mut acc: Vec<String> =
                store.accepted_set(p(i)).iter().map(|id| id.to_string()).collect();
            acc.sort();
            let mut rej: Vec<String> =
                store.rejected_set(p(i)).iter().map(|id| id.to_string()).collect();
            rej.sort();
            (acc, rej)
        })
        .collect()
}

fn instances_fingerprint(participants: &[Participant]) -> Vec<String> {
    participants.iter().map(|participant| format!("{:?}", participant.instance())).collect()
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
        let (reference_store, reference_clients, reference_log) =
            run_extension(reference_store, None, &publications, &order_a, usize::MAX);

        // Extension B over a second ephemeral store.
        let other_store = CentralStore::new(bioinformatics_schema());
        setup(&other_store);
        let (other_store, other_clients, other_log) =
            run_extension(other_store, None, &publications, &order_b, usize::MAX);

        // Extension B again, durable, crashing (and recovering
        // byte-identically) at an arbitrary point.
        let dir = scratch_dir();
        let durable_store = CentralStore::durable(bioinformatics_schema(), &dir)
            .expect("fresh durability directory");
        setup(&durable_store);
        let (durable_store, durable_clients, durable_log) =
            run_extension(durable_store, Some(&dir), &publications, &order_b, crash_at);

        prop_assert_eq!(&other_log, &reference_log, "decision streams diverged across extensions");
        prop_assert_eq!(&durable_log, &reference_log, "decision streams diverged across the crash");
        prop_assert_eq!(
            decision_sets(&other_store),
            decision_sets(&reference_store),
            "durable decision sets diverged across extensions"
        );
        prop_assert_eq!(
            decision_sets(&durable_store),
            decision_sets(&reference_store),
            "durable decision sets diverged across crash points"
        );
        prop_assert_eq!(
            instances_fingerprint(&other_clients),
            instances_fingerprint(&reference_clients),
            "final instances diverged"
        );
        prop_assert_eq!(
            instances_fingerprint(&durable_clients),
            instances_fingerprint(&reference_clients),
            "final durable-run instances diverged"
        );
        prop_assert_eq!(
            other_store.causal_frontier().to_string(),
            reference_store.causal_frontier().to_string(),
            "causal frontiers diverged"
        );
        prop_assert_eq!(
            durable_store.causal_frontier().to_string(),
            reference_store.causal_frontier().to_string(),
            "durable causal frontier diverged"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
