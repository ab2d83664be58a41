//! An executable specification of the paper's reconciliation, slow on
//! purpose: the one oracle the optimised routes are compared with.
//!
//! It transcribes Definitions 3 and 4, Figures 4 and 5 (`ReconcileUpdates`,
//! `CheckState`, `DoGroup`, `UpdateSoftState`) and the resolution re-run of
//! Section 4.2, with no cursor, index, cache or memo: extensions come from
//! scanning the full log backwards, every pair of candidates is compared, and
//! the soft state is recomputed from the deferred set whenever it is read.
//! It trusts `orchestra-model` (the types, [`flatten()`], the Section 4
//! conflict table [`Update::conflict_kind_with`], [`TrustPolicy`]) and
//! `orchestra-storage`'s [`Database`] as the instance, and nothing else. It
//! departs from the paper in one place, the predicate `compared`.

#![forbid(unsafe_code)]

use orchestra_model::{
    flatten, ConflictKey, Epoch, KeyValue, ParticipantId, Priority, RelName, Schema, Transaction,
    TransactionId, TrustPolicy, Update,
};
use orchestra_storage::Database;
use std::collections::{BTreeMap, BTreeSet};

/// A member of a transaction extension: its id and its updates.
pub type Member<'a> = (TransactionId, &'a [Update]);

/// The roots one run of `ReconcileUpdates` accepted, rejected and deferred,
/// in candidate order.
pub type Decided = [Vec<TransactionId>; 3];

/// What `CheckState` and `DoGroup` decide about a candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Apply it.
    Accept,
    /// Never apply it.
    Reject,
    /// Leave it to the user.
    Defer,
}

/// A trusted, undecided transaction as retrieval hands it over.
#[derive(Debug, PartialEq, Eq)]
pub struct Candidate {
    /// The root transaction.
    pub id: TransactionId,
    /// `pri_i(X)`, the priority the participant gives it.
    pub priority: Priority,
    /// Its extension (Definition 3), in publication order, root last.
    pub members: Vec<TransactionId>,
}

/// A conflict group of `UpdateSoftState`.
#[derive(Debug, PartialEq, Eq)]
pub struct Group {
    /// The `(type, relation, key)` the group conflicts on.
    pub key: ConflictKey,
    /// The options, each the transactions proposing one net change.
    pub options: Vec<Vec<TransactionId>>,
}

/// The keys `u` touches: that of the tuple it reads (or inserts), then that
/// of the tuple it writes; none over a relation the schema lacks.
fn keys(schema: &Schema, u: &Update) -> Vec<KeyValue> {
    let Ok(rel) = schema.relation(&u.relation) else { return Vec::new() };
    u.read_tuple().into_iter().chain(u.written_tuple()).map(|t| rel.key_of(t)).collect()
}

/// The flattened update extension: the net effect of the members' updates.
fn flattening(schema: &Schema, extension: &[Member]) -> Vec<Update> {
    flatten(schema, extension.iter().flat_map(|(_, updates)| updates.iter()))
}

/// An extension with its flattening and the `(relation, key)` pairs that
/// touches.
struct Net<'a> {
    members: Vec<Member<'a>>,
    updates: Vec<Update>,
    touched: BTreeSet<(RelName, KeyValue)>,
}

impl<'a> Net<'a> {
    fn new(schema: &Schema, members: Vec<Member<'a>>) -> Self {
        let updates = flattening(schema, &members);
        let pairs =
            |u: &Update| keys(schema, u).into_iter().map(|k| (u.relation.clone(), k)).collect();
        let touched = updates.iter().flat_map(|u| -> Vec<_> { pairs(u) }).collect();
        Net { members, updates, touched }
    }
}

/// Definition 4: the keys on which two candidates directly conflict. None
/// when one extension contains the other; otherwise every update of one
/// against every update of the other, both flattened without the members
/// they share.
pub fn direct_conflict(schema: &Schema, a: &[Member], b: &[Member]) -> BTreeSet<ConflictKey> {
    definition_4(schema, &Net::new(schema, a.to_vec()), &Net::new(schema, b.to_vec()))
}

/// [`direct_conflict`] of two extensions with their flattenings.
fn definition_4(schema: &Schema, a: &Net, b: &Net) -> BTreeSet<ConflictKey> {
    let ids = |net: &Net| net.members.iter().map(|(id, _)| *id).collect::<BTreeSet<_>>();
    let (ours, theirs) = (ids(a), ids(b));
    if ours.is_subset(&theirs) || theirs.is_subset(&ours) || !compared(a, b) {
        return BTreeSet::new();
    }
    let unshared = |net: &Net| match ours.is_disjoint(&theirs) {
        true => net.updates.clone(),
        false => {
            let shared = |id: &TransactionId| ours.contains(id) && theirs.contains(id);
            let kept = net.members.iter().filter(|(id, _)| !shared(id)).copied();
            flattening(schema, &kept.collect::<Vec<_>>())
        }
    };
    let (left, right) = (unshared(a), unshared(b));
    let pairs = left.iter().flat_map(|u| right.iter().map(move |o| (u, o)));
    let conflict = |(u, o): (&Update, &Update)| {
        let (kind, key) = u.conflict_kind_with(o, schema)?;
        Some(ConflictKey::new(kind, u.relation.clone(), key))
    };
    pairs.filter_map(conflict).collect()
}

/// The one place this spec departs from the paper (ROADMAP item 3).
/// Definition 4 compares two candidates without their shared members,
/// whatever their full flattenings touch; `FindConflicts` compares them only
/// when their full flattenings touch a common `(relation, key)`, and so does
/// this predicate. It misses a shared `a → b` that one candidate takes back
/// to `a` and the other on to `c`: the ignored test
/// `definition_4_counts_a_pair_that_meets_only_without_its_shared_members`
/// holds that pair. The fix of item 3 deletes this predicate.
fn compared(a: &Net, b: &Net) -> bool {
    !a.touched.is_disjoint(&b.touched)
}

/// `CheckState` (Figure 5): defer a candidate whose flattened extension
/// touches a dirty value; reject one whose extension holds a rejected
/// transaction, or with a net update that does not apply to the instance or
/// conflicts with a net update of the participant's own delta; accept the
/// rest.
pub fn check_state(
    schema: &Schema,
    extension: &[Member],
    instance: &Database,
    own_delta: &[Update],
    dirty: &BTreeSet<(RelName, KeyValue)>,
    rejected: &BTreeSet<TransactionId>,
) -> Verdict {
    let (net, own) = (Net::new(schema, extension.to_vec()), flatten(schema, own_delta));
    let clashes = |u: &Update| {
        !instance.is_compatible(u)
            || instance.check_constraints(u).is_err()
            || own.iter().any(|o| u.conflict_kind_with(o, schema).is_some())
    };
    if !net.touched.is_disjoint(dirty) {
        Verdict::Defer
    } else if extension.iter().any(|(id, _)| rejected.contains(id))
        || net.updates.iter().any(clashes)
    {
        Verdict::Reject
    } else {
        Verdict::Accept
    }
}

/// `DoGroup` (Figure 5) for the candidates of one priority: one that
/// conflicts with an accepted candidate of higher priority is rejected, else
/// one that conflicts with a deferred one of higher priority is deferred;
/// then both sides of every conflict within the group are deferred.
fn do_group(priority: Priority, of: &[Priority], conflicts: &[(usize, usize)], v: &mut [Verdict]) {
    let partners = |i| {
        conflicts.iter().filter_map(move |&(a, b)| (a == i).then_some(b).or((b == i).then_some(a)))
    };
    let group: Vec<usize> =
        (0..of.len()).filter(|&i| of[i] == priority && v[i] != Verdict::Reject).collect();
    for &i in &group {
        let higher: Vec<Verdict> =
            partners(i).filter(|&j| of[j] > priority).map(|j| v[j]).collect();
        if higher.contains(&Verdict::Accept) {
            v[i] = Verdict::Reject;
        } else if higher.contains(&Verdict::Defer) {
            v[i] = Verdict::Defer;
        }
    }
    for &i in &group {
        for j in partners(i).filter(|&j| of[j] == priority) {
            if v[i] != Verdict::Reject && v[j] != Verdict::Reject {
                (v[i], v[j]) = (Verdict::Defer, Verdict::Defer);
            }
        }
    }
}

/// Applies net updates, skipping those whose effect the instance already
/// shows; false, with the instance half changed, if one does not apply.
fn apply(schema: &Schema, instance: &mut Database, net: &[Update]) -> bool {
    let satisfied = |db: &Database, u| db.already_satisfied(u, &keys(schema, u));
    net.iter().all(|u| satisfied(instance, u) || instance.apply_update(u).is_ok())
}

/// One participant as the spec sees it.
pub struct Peer {
    policy: TrustPolicy,
    /// Its instance: its own transactions as executed, accepted extensions
    /// as applied.
    pub instance: Database,
    /// Every decision, `true` for an accept.
    pub decided: BTreeMap<TransactionId, bool>,
    /// The deferred transactions.
    pub deferred: BTreeSet<TransactionId>,
    /// Every decision in the order it was taken.
    journal: Vec<(TransactionId, bool)>,
    /// What the instance applied, in order: an own transaction, or the
    /// members of an accepted extension not applied before.
    units: Vec<Vec<TransactionId>>,
    /// The epoch its last retrieval reached.
    reconciled: Epoch,
    /// Its updates published since its last reconciliation.
    own_delta: Vec<Update>,
}

impl Peer {
    fn decide(&mut self, decisions: impl IntoIterator<Item = (TransactionId, bool)>) {
        for (id, accepted) in decisions {
            self.journal.push((id, accepted));
            self.decided.insert(id, accepted);
        }
    }
}

/// A confederation as the paper defines it: the published log and, per
/// participant, its trust policy, instance, decisions and deferred set.
pub struct Spec {
    schema: Schema,
    /// Every transaction executed, by id.
    transactions: BTreeMap<TransactionId, Transaction>,
    /// The published log, in publication order.
    log: Vec<(Epoch, TransactionId)>,
    peers: BTreeMap<ParticipantId, Peer>,
}

impl Spec {
    /// A confederation of one participant per policy, nothing published.
    pub fn new(schema: Schema, policies: impl IntoIterator<Item = TrustPolicy>) -> Self {
        let peer = |policy: TrustPolicy| Peer {
            policy,
            instance: Database::new(schema.clone()),
            decided: BTreeMap::new(),
            deferred: BTreeSet::new(),
            journal: Vec::new(),
            units: Vec::new(),
            reconciled: Epoch::default(),
            own_delta: Vec::new(),
        };
        let peers = policies.into_iter().map(|policy| (policy.owner(), peer(policy))).collect();
        Spec { schema: schema.clone(), transactions: BTreeMap::new(), log: Vec::new(), peers }
    }

    /// A participant's state.
    pub fn peer(&self, who: ParticipantId) -> &Peer {
        &self.peers[&who]
    }

    fn peer_mut(&mut self, who: ParticipantId) -> &mut Peer {
        self.peers.get_mut(&who).expect("a participant")
    }

    /// Its originator executes `txn` on its own instance.
    pub fn execute(&mut self, txn: Transaction) {
        let peer = self.peer_mut(txn.origin());
        peer.instance.apply_transaction(&txn).expect("an executed transaction applies");
        peer.units.push(vec![txn.id()]);
        self.transactions.insert(txn.id(), txn);
    }

    /// `who` publishes transactions it executed, its own and so accepted, as
    /// the next epoch.
    pub fn publish(&mut self, who: ParticipantId, ids: &[TransactionId]) -> Epoch {
        let epoch = Epoch(self.log.last().map_or(0, |(epoch, _)| epoch.0) + 1);
        self.log.extend(ids.iter().map(|id| (epoch, *id)));
        let own: Vec<Update> =
            ids.iter().flat_map(|id| self.transactions[id].updates()).cloned().collect();
        let peer = self.peer_mut(who);
        peer.decide(ids.iter().map(|id| (*id, true)));
        peer.own_delta.extend(own);
        epoch
    }

    fn txn(&self, pos: usize) -> &Transaction {
        &self.transactions[&self.log[pos].1]
    }

    /// `ante(X)` of the transaction at log position `pos`: for each tuple it
    /// deletes or modifies, the latest earlier transaction that inserted it
    /// or modified a tuple into it.
    fn antecedents(&self, pos: usize) -> Vec<usize> {
        let writes = |w: &Update, r: &Update| {
            w.relation == r.relation && w.written_tuple() == r.read_tuple()
        };
        let latest =
            |r| (0..pos).rev().find(|&q| self.txn(q).updates().iter().any(|w| writes(w, r)));
        self.txn(pos)
            .updates()
            .iter()
            .filter(|u| u.read_tuple().is_some())
            .filter_map(latest)
            .collect()
    }

    /// Definition 3: the transaction `id` and the transitive closure of its
    /// antecedents that `peer` has not accepted, in publication order.
    fn candidate(&self, peer: &Peer, id: TransactionId) -> Candidate {
        let pos = self.log.iter().position(|(_, x)| *x == id).expect("a published transaction");
        let (mut members, mut todo) = (BTreeSet::from([pos]), vec![pos]);
        while let Some(q) = todo.pop() {
            for a in self.antecedents(q) {
                if peer.decided.get(&self.log[a].1) != Some(&true) && members.insert(a) {
                    todo.push(a);
                }
            }
        }
        let priority = peer.policy.priority_of_transaction(self.txn(pos), &self.schema);
        Candidate { id, priority, members: members.into_iter().map(|q| self.log[q].1).collect() }
    }

    fn members(&self, ids: &[TransactionId]) -> Vec<Member<'_>> {
        ids.iter().map(|id| (*id, self.transactions[id].updates())).collect()
    }

    /// Retrieval: what was published after the epoch `who` last reconciled,
    /// up to the latest, that it trusts, has not decided and did not publish,
    /// in publication order.
    pub fn retrieve(&self, who: ParticipantId) -> Vec<Candidate> {
        let peer = &self.peers[&who];
        let trusted = |id: &TransactionId| {
            peer.policy.priority_of_transaction(&self.transactions[id], &self.schema).is_trusted()
        };
        let retrieved = |&&(epoch, id): &&(Epoch, TransactionId)| {
            epoch > peer.reconciled
                && id.participant != who
                && !peer.decided.contains_key(&id)
                && trusted(&id)
        };
        self.log.iter().filter(retrieved).map(|(_, id)| self.candidate(peer, *id)).collect()
    }

    /// `ReconcileUpdates` (Figure 4) over what retrieval hands `who` now,
    /// against its updates published since its last reconciliation.
    pub fn reconcile(&mut self, who: ParticipantId) -> Decided {
        let (candidates, latest) = (self.retrieve(who), self.log.last().map(|(epoch, _)| *epoch));
        let peer = self.peer_mut(who);
        peer.reconciled = latest.unwrap_or_default();
        let own = std::mem::take(&mut peer.own_delta);
        self.reconcile_updates(who, &candidates, &own)
    }

    /// Conflict resolution (Section 4.2): for each `(group, kept option)`
    /// choice the transactions of the group's other options are rejected
    /// (`None` keeps none, and a kept transaction wins over a losing option
    /// of the same call), then `ReconcileUpdates` re-runs over the remaining
    /// deferred transactions as if freshly published.
    pub fn resolve(
        &mut self,
        who: ParticipantId,
        choices: &[(ConflictKey, Option<usize>)],
    ) -> Decided {
        let (groups, mut rejected) = (self.groups(who), BTreeSet::new());
        for (key, kept) in choices {
            let Some(group) = groups.iter().find(|g| g.key == *key) else { continue };
            let losing = group.options.iter().enumerate().filter(|(i, _)| Some(*i) != *kept);
            rejected.extend(losing.flat_map(|(_, option)| option.iter().copied()));
            for id in kept.and_then(|i| group.options.get(i)).into_iter().flatten() {
                rejected.remove(id);
            }
        }
        let peer = self.peer_mut(who);
        let deferred = std::mem::take(&mut peer.deferred);
        let newly: Vec<TransactionId> = deferred.intersection(&rejected).copied().collect();
        peer.decide(newly.iter().map(|id| (*id, false)));
        let remaining =
            deferred.difference(&rejected).map(|id| self.candidate(self.peer(who), *id));
        let [accepted, rerun_rejected, deferred] =
            self.reconcile_updates(who, &remaining.collect::<Vec<_>>(), &[]);
        [accepted, newly.into_iter().chain(rerun_rejected).collect(), deferred]
    }

    /// Lines 5–21 of `ReconcileUpdates` for `who` over `candidates`.
    fn reconcile_updates(
        &mut self,
        who: ParticipantId,
        candidates: &[Candidate],
        own: &[Update],
    ) -> Decided {
        let (schema, peer, dirty) = (&self.schema, &self.peers[&who], self.dirty(who));
        let rejected = peer.decided.iter().filter(|(_, a)| !**a).map(|(id, _)| *id).collect();
        let extensions: Vec<Vec<Member>> =
            candidates.iter().map(|c| self.members(&c.members)).collect();
        // Lines 5-8: CheckState; line 9: FindConflicts; lines 10-12: DoGroup
        // by decreasing priority.
        let check =
            |e: &Vec<Member>| check_state(schema, e, &peer.instance, own, &dirty, &rejected);
        let mut verdicts: Vec<Verdict> = extensions.iter().map(check).collect();
        let conflicts: Vec<_> =
            self.find_conflicts(candidates).into_iter().map(|(i, j, _)| (i, j)).collect();
        let of: Vec<Priority> = candidates.iter().map(|c| c.priority).collect();
        for priority in of.iter().collect::<BTreeSet<_>>().into_iter().rev() {
            do_group(*priority, &of, &conflicts, &mut verdicts);
        }
        // Lines 14-19: apply each accepted extension without the members an
        // earlier one applied; one that does not apply is rejected.
        let (mut instance, mut used, mut units) = (peer.instance.clone(), BTreeSet::new(), vec![]);
        for (i, candidate) in candidates.iter().enumerate() {
            if verdicts[i] != Verdict::Accept {
                continue;
            }
            let fresh: Vec<Member> =
                extensions[i].iter().filter(|(id, _)| !used.contains(id)).copied().collect();
            let mut applied = instance.clone();
            if apply(schema, &mut applied, &flattening(schema, &fresh)) {
                instance = applied;
                used.extend(candidate.members.iter().copied());
                units.push(fresh.iter().map(|(id, _)| *id).collect());
            } else {
                verdicts[i] = Verdict::Reject;
            }
        }
        let mut decided: Decided = Default::default();
        for (candidate, verdict) in candidates.iter().zip(&verdicts) {
            match verdict {
                Verdict::Accept => decided[0].push(candidate.id),
                Verdict::Reject => decided[1].push(candidate.id),
                Verdict::Defer if !used.contains(&candidate.id) => decided[2].push(candidate.id),
                Verdict::Defer => {}
            }
        }
        // Record: whatever was applied is accepted (a rejected root among
        // it too), the rejected rest is rejected; line 21's deferred set.
        let peer = self.peer_mut(who);
        peer.instance = instance;
        peer.units.extend(units);
        peer.decide(used.iter().map(|id| (*id, true)));
        peer.decide(decided[1].iter().filter(|id| !used.contains(id)).map(|id| (*id, false)));
        peer.deferred.extend(decided[2].iter().copied());
        peer.deferred.retain(|id| !used.contains(id));
        decided
    }

    /// `FindConflicts` (Figure 5) by Definition 4, over every pair of
    /// candidates: each pair `i < j` that directly conflicts, with its keys.
    fn find_conflicts(
        &self,
        candidates: &[Candidate],
    ) -> Vec<(usize, usize, BTreeSet<ConflictKey>)> {
        let nets: Vec<Net> =
            candidates.iter().map(|c| Net::new(&self.schema, self.members(&c.members))).collect();
        let keys = |(i, j): (usize, usize)| (i, j, definition_4(&self.schema, &nets[i], &nets[j]));
        let pairs = (0..nets.len()).flat_map(|i| (i + 1..nets.len()).map(move |j| (i, j)));
        pairs.map(keys).filter(|(_, _, keys)| !keys.is_empty()).collect()
    }

    fn deferred(&self, who: ParticipantId) -> Vec<Candidate> {
        self.peer(who).deferred.iter().map(|id| self.candidate(self.peer(who), *id)).collect()
    }

    /// The dirty values: every `(relation, key)` a deferred transaction's
    /// flattened extension touches.
    fn dirty(&self, who: ParticipantId) -> BTreeSet<(RelName, KeyValue)> {
        let net = |c: &Candidate| Net::new(&self.schema, self.members(&c.members)).touched;
        self.deferred(who).iter().flat_map(net).collect()
    }

    /// `UpdateSoftState` (Figure 5): the direct conflicts among the deferred
    /// transactions, grouped by key in key order. A group's transactions, by
    /// id, gather along subsumption behind the one whose extension contains
    /// the others, and gatherings whose representatives propose the same net
    /// change, compared without origins, are one option.
    pub fn groups(&self, who: ParticipantId) -> Vec<Group> {
        let deferred = self.deferred(who);
        let mut by_key: BTreeMap<ConflictKey, BTreeSet<usize>> = BTreeMap::new();
        for (i, j, keys) in self.find_conflicts(&deferred) {
            keys.into_iter().for_each(|key| by_key.entry(key).or_default().extend([i, j]));
        }
        let contains = |a: usize, b: usize| {
            deferred[b].members.iter().all(|m| deferred[a].members.contains(m))
        };
        let change = |i: usize| {
            let net = flattening(&self.schema, &self.members(&deferred[i].members));
            let change = |u: &Update| (u.relation.clone(), u.kind(), u.read_tuple().cloned());
            let mut changes: Vec<_> =
                net.iter().map(|u| (change(u), u.written_tuple().cloned())).collect();
            changes.sort();
            changes
        };
        let group = |(key, members): (ConflictKey, BTreeSet<usize>)| {
            let mut gathered: Vec<(usize, Vec<usize>)> = Vec::new();
            for i in members {
                match gathered.iter_mut().find(|(rep, _)| contains(*rep, i) || contains(i, *rep)) {
                    Some((rep, cluster)) => {
                        *rep = if contains(*rep, i) { *rep } else { i };
                        cluster.push(i);
                    }
                    None => gathered.push((i, vec![i])),
                }
            }
            let mut options: Vec<(_, Vec<TransactionId>)> = Vec::new();
            for (rep, cluster) in gathered {
                let (change, ids) = (change(rep), cluster.iter().map(|&i| deferred[i].id));
                match options.iter_mut().find(|(c, _)| *c == change) {
                    Some((_, option)) => option.extend(ids),
                    None => options.push((change, ids.collect())),
                }
            }
            Group { key, options: options.into_iter().map(|(_, option)| option).collect() }
        };
        by_key.into_iter().map(group).collect()
    }

    /// The functional requirements of a reconciling replica: an accept or a
    /// reject never changes; no transaction is accepted by reconciliation
    /// without its antecedents; and each instance is its accepted units
    /// applied in acceptance order.
    pub fn check_requirements(&self) -> Result<(), String> {
        for (who, peer) in &self.peers {
            if let Some((id, _)) = peer.journal.iter().find(|(id, a)| peer.decided[id] != *a) {
                return Err(format!("{who} changed its decision on {id}"));
            }
            let accepted = |id: &TransactionId| peer.decided.get(id) == Some(&true);
            for (pos, (_, id)) in self.log.iter().enumerate() {
                let mut antecedents = self.antecedents(pos).into_iter().map(|a| self.log[a].1);
                let missing = antecedents.find(|a| !accepted(a));
                if let (true, Some(a)) = (id.participant != *who && accepted(id), missing) {
                    return Err(format!("{who} accepted {id} without its antecedent {a}"));
                }
            }
            let mut replayed = Database::new(self.schema.clone());
            for unit in &peer.units {
                if !apply(
                    &self.schema,
                    &mut replayed,
                    &flattening(&self.schema, &self.members(unit)),
                ) {
                    return Err(format!("{who}'s accepted unit {unit:?} does not replay"));
                }
            }
            if replayed != peer.instance {
                return Err(format!("{who}'s instance is not its accepted units replayed"));
            }
        }
        Ok(())
    }
}
