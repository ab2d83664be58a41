//! What the schedule-driven integration tests share: a small
//! [`Confederation`] whose participants trust each other, at one priority or
//! at ranks of their own, one strategy generating schedules of [`Step`]s for
//! it, and the renderings two runs are compared by. Each test binary uses a
//! part of it.
#![allow(dead_code)]

use orchestra::{CdssSystem, Participant};
use orchestra_model::schema::bioinformatics_schema;
use orchestra_model::{KeyValue, ParticipantId, Transaction, TransactionId, TrustPolicy, Tuple};
use orchestra_spec::{Group, Spec};
use orchestra_store::UpdateStore;
use orchestra_workload::{mutual_trust_policies, Confederation, Driver, Outcome, Step};
use proptest::prelude::*;
use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

pub fn p(i: u32) -> ParticipantId {
    ParticipantId(i)
}

pub fn func(org: &str, prot: &str, f: &str) -> Tuple {
    Tuple::of_text(&[org, prot, f])
}

/// A fresh directory for one durable store of the calling test binary.
pub fn scratch_dir(test: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("orchestra-{test}-{}-{seq}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// The policies of `participants` participants, ids from 1, each trusting
/// every other at one priority — so conflicting writes are deferred, not
/// settled by trust.
pub fn mutual(participants: u32) -> Vec<TrustPolicy> {
    mutual_trust_policies(participants as usize, 1)
}

/// The policies of `ranks.len()` participants, ids from 1: participant `i`
/// trusts participant `j ≠ i` at priority `ranks[i - 1][j - 1]`.
pub fn ranked(ranks: &[Vec<u32>]) -> Vec<TrustPolicy> {
    let policy = |(i, row): (usize, &Vec<u32>)| {
        let others = row.iter().enumerate().filter(|(j, _)| *j != i);
        others.fold(TrustPolicy::new(p(i as u32 + 1)), |policy, (j, rank)| {
            policy.trusting(p(j as u32 + 1), *rank)
        })
    };
    ranks.iter().enumerate().map(policy).collect()
}

/// [`mutual`]'s participants registered with `store`.
pub fn confederation<S: UpdateStore>(store: S, participants: u32) -> Confederation<S> {
    Confederation::new(store, mutual(participants))
}

/// A confederation of participants the store already knows, built outside a
/// schedule: carried over from another store, or registered by hand. A crash
/// and a rebuild inside a schedule are [`Step::Crash`] and [`Step::Rebuild`].
pub fn adopt<S: UpdateStore>(store: S, participants: Vec<Participant>) -> Confederation<S> {
    let mut system = CdssSystem::new(bioinformatics_schema(), store);
    for participant in participants {
        system.adopt_participant(participant).expect("unique participants");
    }
    Confederation { system, generators: Default::default(), totals: Default::default() }
}

/// What one participant does when its turn comes. A generated schedule is a
/// sequence of turns; a crash or a prune falls between two of them, never
/// between an edit and its publish.
#[derive(Debug, Clone, Copy)]
pub enum Turn {
    /// Execute an edit, leave it pending.
    Edit,
    /// Publish what is pending.
    Publish,
    /// Execute an edit and publish it.
    EditPublish,
    /// Execute an edit, publish it, then everyone reconciles as one wave.
    EditPublishWave,
    /// Publish what is pending, then reconcile.
    PublishReconcile,
    /// Reconcile.
    Reconcile,
    /// Keep option 0 of every open conflict group.
    Resolve,
    /// Keep the option the turn's value picks of every open conflict group.
    ResolveChosen,
    /// Go offline.
    Partition,
    /// Everyone offline rejoins.
    Heal,
}

/// The steps of one turn of `who` in a confederation of `all`.
pub fn turn(
    kind: Turn,
    who: ParticipantId,
    all: &[ParticipantId],
    key: usize,
    value: usize,
) -> Vec<Step> {
    let edit = Step::Edit { who, writes: vec![(key, value)] };
    let publish = Step::Publish(vec![who]);
    match kind {
        Turn::Edit => vec![edit],
        Turn::Publish => vec![publish],
        Turn::EditPublish => vec![edit, publish],
        Turn::EditPublishWave => vec![edit, publish, Step::Reconcile(all.to_vec())],
        Turn::PublishReconcile => vec![publish, Step::Reconcile(vec![who])],
        Turn::Reconcile => vec![Step::Reconcile(vec![who])],
        Turn::Resolve => vec![Step::Resolve { who, option: 0 }],
        Turn::ResolveChosen => vec![Step::Resolve { who, option: value }],
        Turn::Partition => vec![Step::Partition(vec![who])],
        Turn::Heal => vec![Step::Heal],
    }
}

/// The one schedule strategy: `len` turns, each of a uniformly drawn
/// participant of `1..=participants`, of a kind drawn uniformly from
/// `kinds` (repeat a kind to weight it), writing a key of `0..keys` and a
/// value of `0..values` when it edits. Small pools, so writes collide.
pub fn schedule(
    participants: u32,
    keys: usize,
    values: usize,
    kinds: &'static [Turn],
    len: Range<usize>,
) -> impl Strategy<Value = Vec<Vec<Step>>> {
    let all: Vec<ParticipantId> = (1..=participants).map(p).collect();
    let one = (1..participants + 1, 0..kinds.len(), 0..keys, 0..values)
        .prop_map(move |(who, kind, key, value)| turn(kinds[kind], p(who), &all, key, value));
    prop::collection::vec(one, len)
}

/// Everything compared between two runs of one schedule, per participant in
/// id order: the `Function` instance, the durable accepted and rejected
/// records, and the soft deferred set.
pub type Snapshot =
    Vec<(Vec<(KeyValue, Tuple)>, Vec<TransactionId>, Vec<TransactionId>, Vec<TransactionId>)>;

fn sorted(ids: impl IntoIterator<Item = TransactionId>) -> Vec<TransactionId> {
    let mut ids: Vec<TransactionId> = ids.into_iter().collect();
    ids.sort();
    ids
}

pub fn snapshot<S: UpdateStore>(system: &CdssSystem<S>) -> Snapshot {
    system
        .participant_ids()
        .into_iter()
        .map(|id| {
            let participant = system.participant(id).expect("listed");
            (
                participant.instance().relation_contents("Function"),
                sorted(system.store().accepted_set(id).iter().copied()),
                sorted(system.store().rejected_set(id).iter().copied()),
                sorted(participant.soft_state().deferred().keys().copied()),
            )
        })
        .collect()
}

/// A fresh confederation of `policies` over `store`, in causal mode if asked.
fn started<S: UpdateStore>(store: S, policies: Vec<TrustPolicy>, causal: bool) -> Confederation<S> {
    let conf = Confederation::new(store, policies);
    if causal {
        conf.system.enable_causal_mode().expect("fresh store accepts causal mode");
    }
    conf
}

/// Runs a schedule on a fresh confederation of `policies` over `store` under
/// `driver` and returns where it ended up, checking after every step that each
/// participant mirrors its decision record. The spec checks the same
/// schedule's [sequential run](run); every driver reaches that run's
/// decisions.
pub fn run_on<S: UpdateStore>(
    store: S,
    policies: Vec<TrustPolicy>,
    causal: bool,
    steps: &[Step],
    driver: &Driver<S>,
) -> Snapshot {
    let mut conf = started(store, policies, causal);
    for step in steps {
        conf.apply(step, driver).expect("step succeeds");
        assert_mirrors(&conf.system, step);
    }
    snapshot(&conf.system)
}

/// Every participant's mirror of its decision record equals the store's.
fn assert_mirrors<S: UpdateStore>(system: &CdssSystem<S>, step: &Step) {
    for id in system.participant_ids() {
        let (accepted, rejected) = system.participant(id).expect("listed").decision_record();
        assert_eq!(*accepted, *system.store().accepted_set(id), "{id}'s accepted after {step:?}");
        assert_eq!(*rejected, *system.store().rejected_set(id), "{id}'s rejected after {step:?}");
    }
}

/// Runs a schedule under the sequential driver, checked against the
/// executable spec, and returns where it ended up.
pub fn run<S: UpdateStore>(
    store: S,
    policies: Vec<TrustPolicy>,
    causal: bool,
    steps: &[Step],
) -> Snapshot {
    run_checked(store, policies, causal, steps, |_, _, _| ())
}

/// [`run`], in lockstep with the spec: after every step each participant's
/// mirror of its decision record is the store's; after every step that
/// decides something each participant's instance, decisions and deferred
/// set, and the deciders' conflict groups, are the spec's; `check` sees both
/// sides after every step; and the spec meets its functional requirements.
pub fn run_checked<S: UpdateStore>(
    store: S,
    policies: Vec<TrustPolicy>,
    causal: bool,
    steps: &[Step],
    mut check: impl FnMut(&Step, &CdssSystem<S>, &Spec),
) -> Snapshot {
    assert!(policies.len() <= 12, "the spec is quadratic; keep it to small confederations");
    let mut conf = started(store, policies, causal);
    let ids = conf.system.participant_ids();
    fn of<S: UpdateStore>(system: &CdssSystem<S>, id: ParticipantId) -> &Participant {
        system.participant(id).expect("listed")
    }
    let policies = ids.iter().map(|&id| of(&conf.system, id).policy().clone());
    let mut spec = Spec::new(bioinformatics_schema(), policies.collect::<Vec<_>>());
    for step in steps {
        // What each participant holds back: its pending transactions, then
        // the batches it buffered offline.
        let held = |id| {
            let (participant, ids) =
                (of(&conf.system, id), |b: &[Transaction]| b.iter().map(Transaction::id).collect());
            let buffered = participant.buffered_publications().iter().map(|(_, b)| ids(b));
            std::iter::once(ids(participant.pending_publications()))
                .chain(buffered)
                .collect::<Vec<Vec<_>>>()
        };
        let before: Vec<Vec<Vec<TransactionId>>> = ids.iter().map(|&id| held(id)).collect();
        conf.apply(step, &Driver::sequential()).expect("step succeeds");
        let system = &conf.system;
        assert_mirrors(system, step);
        let mut published = Vec::new();
        for (&id, batches) in ids.iter().zip(before) {
            let pending = of(system, id).pending_publications().iter().skip(batches[0].len());
            pending.for_each(|t| spec.execute(t.clone()));
            for batch in batches.into_iter().filter(|b| !b.is_empty()) {
                published.extend(system.store().epoch_of(batch[0]).map(|epoch| (epoch, id, batch)));
            }
        }
        published.sort();
        for (epoch, who, batch) in published {
            assert_eq!(spec.publish(who, &batch), epoch, "the store numbers epochs as the spec");
        }
        let online = |id: &&ParticipantId| !of(system, **id).is_offline();
        let deciders: Vec<ParticipantId> = match step {
            Step::Resolve { who, option } if online(&who) => {
                spec_resolve(&mut spec, *who, *option, false).into_iter().collect()
            }
            Step::ResolveAll => ids
                .iter()
                .filter(online)
                .flat_map(|&id| spec_resolve(&mut spec, id, 0, true))
                .collect(),
            Step::Reconcile(wave) => {
                let wave: Vec<ParticipantId> = wave.iter().filter(online).copied().collect();
                for &id in &wave {
                    spec.reconcile(id);
                }
                wave
            }
            _ => Vec::new(),
        };
        // After a step that decided something, the state is the spec's, and
        // so are the deciders' conflict groups.
        if !deciders.is_empty() {
            assert_eq!(snapshot(system), spec_snapshot(&spec, &ids), "{step:?} left another state");
        }
        for &id in &deciders {
            let groups = of(system, id).deferred_conflicts().iter().map(|g| Group {
                key: g.key.clone(),
                options: g.options.iter().map(|o| o.transactions.clone()).collect(),
            });
            assert_eq!(groups.collect::<Vec<_>>(), spec.groups(id), "{id}'s groups after {step:?}");
        }
        check(step, system, &spec);
    }
    assert_eq!(snapshot(&conf.system), spec_snapshot(&spec, &ids), "the run ended elsewhere");
    spec.check_requirements().expect("the spec meets its requirements");
    snapshot(&conf.system)
}

/// The spec's side of a resolving turn: `who` keeps option `option` of
/// every open conflict group, and is returned if it resolved something.
/// Nothing happens without a group, unless `rerun` asks for the deferred set
/// to be re-run regardless.
fn spec_resolve(
    spec: &mut Spec,
    who: ParticipantId,
    option: usize,
    rerun: bool,
) -> Option<ParticipantId> {
    let kept = |g: &Group| (g.key.clone(), Some(option % g.options.len()));
    let choices: Vec<_> = spec.groups(who).iter().map(kept).collect();
    let due = !choices.is_empty() || rerun && !spec.peer(who).deferred.is_empty();
    if due {
        spec.resolve(who, &choices);
    }
    due.then_some(who)
}

/// The spec's side of a [`Snapshot`].
fn spec_snapshot(spec: &Spec, ids: &[ParticipantId]) -> Snapshot {
    let view = |id: &ParticipantId| {
        let peer = spec.peer(*id);
        let decided = |a| sorted(peer.decided.iter().filter(|d| *d.1 == a).map(|d| *d.0));
        let function = peer.instance.relation_contents("Function");
        (function, decided(true), decided(false), sorted(peer.deferred.iter().copied()))
    };
    ids.iter().map(view).collect()
}

/// Applies the steps under the sequential driver and appends the decisions
/// of each to `log`, so two runs can be compared step for step. The store's
/// own events (a snapshot, a prune, a crash, a rebuild) decide nothing and
/// log nothing, so a run with them logs what the same run without them does.
pub fn logged<S: UpdateStore>(conf: &mut Confederation<S>, steps: &[Step], log: &mut Vec<String>) {
    for step in steps {
        let outcome = conf.apply(step, &Driver::sequential()).expect("step succeeds");
        if !matches!(step, Step::Snapshot | Step::Prune | Step::Crash | Step::Rebuild(_)) {
            log.push(decisions(&outcome));
        }
    }
}

/// The decisions of one step, without its timings: two runs that decide the
/// same render the same line.
pub fn decisions(outcome: &Outcome) -> String {
    use std::fmt::Write;
    let mut line = format!("published {:?}", outcome.published);
    for (who, report) in &outcome.reconciled {
        write!(
            line,
            " reconcile {who} recno {:?} acc {:?} rej {:?} def {:?}",
            report.recno,
            sorted(report.accepted.iter().copied()),
            sorted(report.rejected.iter().copied()),
            sorted(report.deferred.iter().copied()),
        )
        .expect("writing to a string");
    }
    for (who, report) in &outcome.resolved {
        write!(
            line,
            " resolve {who} acc {:?} rej {:?}",
            sorted(report.newly_accepted.iter().copied()),
            sorted(report.newly_rejected.iter().copied()),
        )
        .expect("writing to a string");
    }
    line
}
