//! Client-side soft state: dirty values, deferred transactions, conflict
//! groups and options, and the user's resolution of those groups.
//!
//! The paper keeps this state soft (reconstructible from the update store):
//! deferred transactions are those whose conflicts have no unique winner, the
//! *dirty value* set contains every key value such a transaction reads or
//! writes (so that later transactions touching those keys also defer, keeping
//! the deferred transactions applicable), and conflict groups/options are the
//! unit of user-driven conflict resolution (Section 4.2): picking an option
//! of a group rejects the others ([`SoftState::resolve`]), and the remaining
//! deferred transactions are reconciled again as if freshly published.

use crate::extension::{direct_conflicts, runs, subsumes, CandidateTransaction, FlatExtension};
use orchestra_model::{ConflictKey, KeyValue, RelName, Schema, TransactionId, Tuple, UpdateKind};
use orchestra_obs::Span;
use orchestra_storage::{Result, StorageError};
use rustc_hash::{FxHashMap, FxHashSet};
use std::cell::OnceCell;
use std::fmt;
use std::sync::Arc;

/// One user decision: for the conflict group identified by `group`, keep the
/// option at index `chosen_option` (all other options' transactions are
/// rejected). To reject *every* option of a group, pass `chosen_option:
/// None`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResolutionChoice {
    /// The conflict group being resolved.
    pub group: ConflictKey,
    /// Index of the option to keep, or `None` to reject all options.
    pub chosen_option: Option<usize>,
}

/// A group of transactions within a conflict group that make the same
/// modification to the conflicting key value. At most one option per conflict
/// group can be accepted when the user resolves the conflict.
///
/// `Debug` and equality are over the transactions and the
/// [`ConflictOption::description`].
#[derive(Clone)]
pub struct ConflictOption {
    /// The transactions proposing this modification.
    pub transactions: Vec<TransactionId>,
    /// The flattened extension of the option's representative: the net
    /// change every transaction of the option proposes.
    change: Arc<FlatExtension>,
}

impl ConflictOption {
    /// A rendering of the proposed net change, for display to the resolving
    /// user: one line per net update, sorted, joined by `; `. It is rendered
    /// on each call; reconciliation itself never reads it.
    pub fn description(&self) -> String {
        describe(&self.change)
    }
}

impl fmt::Debug for ConflictOption {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ConflictOption")
            .field("transactions", &self.transactions)
            .field("description", &self.description())
            .finish()
    }
}

impl PartialEq for ConflictOption {
    fn eq(&self, other: &Self) -> bool {
        self.transactions == other.transactions
            && (Arc::ptr_eq(&self.change, &other.change)
                || self.description() == other.description())
    }
}

impl Eq for ConflictOption {}

/// All options recorded for one conflict-group key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConflictGroup {
    /// The `(type, relation, key)` identity of the group.
    pub key: ConflictKey,
    /// The mutually exclusive options.
    pub options: Vec<ConflictOption>,
}

impl ConflictGroup {
    /// Every transaction involved in the group, across all options.
    #[cfg(test)]
    pub(crate) fn transactions(&self) -> Vec<TransactionId> {
        let mut out = Vec::new();
        for opt in &self.options {
            for t in &opt.transactions {
                if !out.contains(t) {
                    out.push(*t);
                }
            }
        }
        out
    }
}

/// The reconciling participant's soft state between reconciliations.
#[derive(Debug, Clone, Default)]
pub struct SoftState {
    /// Key values made dirty by deferred transactions, per relation. Keyed
    /// by relation first so lookups borrow a `&str` and never intern or
    /// clone on the engine's per-update hot path.
    dirty: FxHashMap<RelName, FxHashSet<KeyValue>>,
    /// Deferred candidates, retained so they can be reconsidered when the
    /// user resolves conflicts.
    deferred: FxHashMap<TransactionId, CandidateTransaction>,
    /// Conflict groups recorded by the most recent reconciliation.
    conflict_groups: Vec<ConflictGroup>,
}

impl SoftState {
    /// Creates empty soft state.
    pub fn new() -> Self {
        SoftState::default()
    }

    /// Returns true if `(relation, key)` is dirty (touched by a deferred
    /// transaction).
    pub fn is_dirty(&self, relation: &str, key: &KeyValue) -> bool {
        self.dirty.get(relation).map(|keys| keys.contains(key)).unwrap_or(false)
    }

    /// The number of dirty key values.
    #[cfg(test)]
    pub(crate) fn dirty_len(&self) -> usize {
        self.dirty.values().map(FxHashSet::len).sum()
    }

    /// The deferred candidates, keyed by root transaction id.
    pub fn deferred(&self) -> &FxHashMap<TransactionId, CandidateTransaction> {
        &self.deferred
    }

    /// Returns true if the transaction is currently deferred.
    pub(crate) fn is_deferred(&self, id: TransactionId) -> bool {
        self.deferred.contains_key(&id)
    }

    /// The conflict groups recorded by the most recent reconciliation.
    pub fn conflict_groups(&self) -> &[ConflictGroup] {
        &self.conflict_groups
    }

    /// Moves the deferred candidates out, by id. The dirty values and the
    /// conflict groups stay until the next [`SoftState::rebuild`].
    pub(crate) fn take_deferred(&mut self) -> Vec<CandidateTransaction> {
        let mut deferred: Vec<CandidateTransaction> =
            self.deferred.drain().map(|(_, cand)| cand).collect();
        deferred.sort_unstable_by_key(|cand| cand.id);
        deferred
    }

    /// The soft-state half of conflict resolution (Section 4.2): for each
    /// choice, the transactions of the group's options other than the kept
    /// one are rejected, and the kept option's transactions are cleared of
    /// the rejections the choices before it made (a keep wins over a losing
    /// option of an earlier choice). A choice naming no recorded group is
    /// ignored.
    ///
    /// Returns the deferred transactions so rejected, sorted, and the
    /// remaining deferred candidates, by id, which the caller reconciles
    /// again as if freshly published once the rejections are part of its
    /// rejected record. The soft state is left empty: no deferred set, no
    /// dirty value, no group.
    ///
    /// A choice that keeps an option its group does not have is refused
    /// with [`StorageError::Resolution`] before anything changes: rejections
    /// are final, and such a choice would reject every option of the group.
    pub fn resolve(
        &mut self,
        choices: &[ResolutionChoice],
    ) -> Result<(Vec<TransactionId>, Vec<CandidateTransaction>)> {
        let mut rejected: FxHashSet<TransactionId> = FxHashSet::default();
        for choice in choices {
            let Some(group) = self.conflict_groups.iter().find(|g| g.key == choice.group) else {
                continue;
            };
            let kept = choice.chosen_option;
            if let Some(at) = kept.filter(|&at| at >= group.options.len()) {
                return Err(StorageError::Resolution(format!(
                    "conflict group {} has {} options; option {at} does not exist",
                    group.key,
                    group.options.len()
                )));
            }
            for (at, option) in group.options.iter().enumerate() {
                if Some(at) != kept {
                    rejected.extend(option.transactions.iter().copied());
                }
            }
            if let Some(at) = kept {
                for id in &group.options[at].transactions {
                    rejected.remove(id);
                }
            }
        }
        self.dirty.clear();
        self.conflict_groups.clear();
        let (rejected, remaining): (Vec<CandidateTransaction>, Vec<CandidateTransaction>) =
            self.take_deferred().into_iter().partition(|cand| rejected.contains(&cand.id));
        Ok((rejected.into_iter().map(|cand| cand.id).collect(), remaining))
    }

    /// Implements the paper's `UpdateSoftState` (Figure 5): clears the soft
    /// state of the previous reconciliation and rebuilds it from the set of
    /// deferred transactions, which it takes over.
    ///
    /// For every deferred candidate the dirty-value set receives every key its
    /// flattened extension touches; pairwise direct conflicts between deferred
    /// candidates are grouped by conflict key, and within each group the
    /// candidates proposing an identical net change are combined into a single
    /// option.
    ///
    /// Each candidate's flattening is read from the candidate itself (see
    /// [`CandidateTransaction::flattening`]): one deferred by an earlier
    /// reconciliation with an unchanged chain, or handed over by the engine
    /// that just flattened it, is not flattened again. The conflict pairs
    /// are found under `span` (see [`direct_conflicts`]).
    pub fn rebuild(&mut self, deferred: Vec<CandidateTransaction>, schema: &Schema, span: &Span) {
        self.dirty.clear();
        self.conflict_groups.clear();
        self.deferred.clear();

        // Every key a deferred candidate's flattened extension touches is
        // dirty.
        let flattened: Vec<Arc<FlatExtension>> =
            deferred.iter().map(|c| Arc::clone(c.flattening(schema))).collect();
        for flat in &flattened {
            for (_, key, update) in flat.touched() {
                self.dirty.entry(update.relation.clone()).or_default().insert(key.clone());
            }
        }
        // Pairwise direct conflicts are grouped by conflict key: one entry
        // per key and candidate conflicting on it, sorted, so each group is
        // one run, the groups follow in key order and a group's candidates
        // in id order.
        let conflicts = direct_conflicts(&deferred, &flattened, schema, span);
        let mut on_key: Vec<(&ConflictKey, TransactionId, usize)> = Vec::new();
        for (i, j, keys) in &conflicts {
            for key in keys {
                on_key.extend([(key, deferred[*i].id, *i), (key, deferred[*j].id, *j)]);
            }
        }
        on_key.sort_unstable();
        on_key.dedup();

        // Within each group, combine compatible transactions into the same
        // option: a transaction subsumed by another (it is an antecedent of
        // the other's extension) rides along with its subsumer, and
        // transactions proposing the same net change merge, so each option
        // represents one distinct final value the user can pick.
        //
        // Each clustered candidate's member ids, built once for every group
        // it is in: `subsumes(member_ids(a), b)` says whether `a`'s extension
        // contains `b`'s.
        let member_sets: Vec<OnceCell<FxHashSet<TransactionId>>> =
            deferred.iter().map(|_| OnceCell::new()).collect();
        let member_ids = |at: usize| member_sets[at].get_or_init(|| deferred[at].member_ids());
        for group in runs(&on_key, |a, b| a.0 == b.0) {
            // Cluster members along subsumption chains. The representative of
            // a cluster, named by its position, is its maximal member (the
            // one whose extension contains the others).
            let mut clusters: Vec<(usize, Vec<TransactionId>)> = Vec::new();
            for &(_, id, at) in group {
                let gathers = |rep: usize| {
                    subsumes(member_ids(rep), &deferred[at])
                        || subsumes(member_ids(at), &deferred[rep])
                };
                match clusters.iter_mut().find(|(rep, _)| gathers(*rep)) {
                    Some((rep, cluster_members)) => {
                        if !subsumes(member_ids(*rep), &deferred[at]) {
                            *rep = at;
                        }
                        cluster_members.push(id);
                    }
                    None => clusters.push((at, vec![id])),
                }
            }

            // Merge clusters whose representatives propose the same net
            // change (two participants independently publishing the same
            // value fall into one option).
            let mut options: Vec<(Vec<Change<'_>>, ConflictOption)> = Vec::new();
            for (rep, cluster_members) in clusters {
                let flat = &flattened[rep];
                let change = net_change(flat);
                match options.iter_mut().find(|(c, _)| *c == change) {
                    Some((_, opt)) => opt.transactions.extend(cluster_members),
                    None => {
                        let transactions = cluster_members;
                        let option = ConflictOption { transactions, change: Arc::clone(flat) };
                        options.push((change, option));
                    }
                }
            }
            self.conflict_groups.push(ConflictGroup {
                key: group[0].0.clone(),
                options: options.into_iter().map(|(_, o)| o).collect(),
            });
        }

        for cand in deferred {
            self.deferred.insert(cand.id, cand);
        }
    }
}

/// One net update as an option compares it: relation, kind, the tuple read
/// and the tuple written. The proposing participant is left out.
type Change<'a> = (&'a str, UpdateKind, Option<&'a Tuple>, Option<&'a Tuple>);

/// The net change a flattened extension proposes, as a sorted multiset:
/// two options are one exactly when these are equal.
fn net_change(flat: &FlatExtension) -> Vec<Change<'_>> {
    let mut change: Vec<Change<'_>> = flat
        .updates()
        .iter()
        .map(|u| (u.relation.as_str(), u.kind(), u.read_tuple(), u.written_tuple()))
        .collect();
    change.sort_unstable();
    change
}

/// The rendering of a flattened extension's net change that an option shows
/// the resolving user: one line per net update, sorted, joined by `; `.
fn describe(flat: &FlatExtension) -> String {
    let mut lines: Vec<String> = flat
        .updates()
        .iter()
        .map(|u| {
            format!("{} {} {:?} -> {:?}", u.relation, u.kind(), u.read_tuple(), u.written_tuple())
        })
        .collect();
    lines.sort();
    lines.join("; ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use orchestra_model::schema::bioinformatics_schema;
    use orchestra_model::{ParticipantId, Priority, Transaction, Tuple, Update};

    fn p(i: u32) -> ParticipantId {
        ParticipantId(i)
    }

    fn func(org: &str, prot: &str, f: &str) -> Tuple {
        Tuple::of_text(&[org, prot, f])
    }

    fn cand(i: u32, j: u64, updates: Vec<Update>) -> CandidateTransaction {
        let txn = Transaction::from_parts(p(i), j, updates).unwrap();
        CandidateTransaction::new(&txn, Priority(1), vec![])
    }

    #[test]
    fn fresh_soft_state_is_clean() {
        let s = SoftState::new();
        assert_eq!(s.dirty_len(), 0);
        assert!(s.deferred().is_empty());
        assert!(s.conflict_groups().is_empty());
        assert!(!s.is_dirty("Function", &KeyValue::of_text(&["rat", "prot1"])));
    }

    #[test]
    fn rebuild_marks_dirty_values_and_groups_conflicts() {
        let schema = bioinformatics_schema();
        let mut s = SoftState::new();
        let c1 =
            cand(2, 0, vec![Update::insert("Function", func("rat", "prot1", "cell-resp"), p(2))]);
        let c2 = cand(3, 0, vec![Update::insert("Function", func("rat", "prot1", "immune"), p(3))]);
        s.rebuild(vec![c1.clone(), c2.clone()], &schema, &Span::default());

        assert!(s.is_dirty("Function", &KeyValue::of_text(&["rat", "prot1"])));
        assert!(!s.is_dirty("Function", &KeyValue::of_text(&["mouse", "prot2"])));
        assert!(s.is_deferred(c1.id));
        assert!(s.is_deferred(c2.id));

        assert_eq!(s.conflict_groups().len(), 1);
        let group = &s.conflict_groups()[0];
        assert_eq!(group.options.len(), 2);
        assert_eq!(group.transactions().len(), 2);
    }

    #[test]
    fn identical_changes_merge_into_one_option() {
        let schema = bioinformatics_schema();
        let mut s = SoftState::new();
        // Two different participants propose the same value; a third proposes
        // a divergent one. The group should have two options, one of which
        // carries two transactions.
        let same_a =
            cand(2, 0, vec![Update::insert("Function", func("rat", "prot1", "immune"), p(2))]);
        let same_b =
            cand(3, 0, vec![Update::insert("Function", func("rat", "prot1", "immune"), p(3))]);
        let diff =
            cand(4, 0, vec![Update::insert("Function", func("rat", "prot1", "cell-resp"), p(4))]);
        s.rebuild(vec![same_a, same_b, diff], &schema, &Span::default());

        assert_eq!(s.conflict_groups().len(), 1);
        let group = &s.conflict_groups()[0];
        assert_eq!(group.options.len(), 2);
        let sizes: Vec<usize> = group.options.iter().map(|o| o.transactions.len()).collect();
        assert!(sizes.contains(&2));
        assert!(sizes.contains(&1));
    }

    #[test]
    fn options_merge_on_the_same_net_change_in_any_order_from_anyone() {
        let schema = bioinformatics_schema();
        let mut s = SoftState::new();
        let (a, b) = (func("rat", "prot1", "a"), func("mouse", "prot2", "b"));
        let insert = |t: &Tuple, who| Update::insert("Function", t.clone(), p(who));
        let forward = cand(2, 0, vec![insert(&a, 2), insert(&b, 2)]);
        let backward = cand(3, 0, vec![insert(&b, 3), insert(&a, 3)]);
        let other = cand(4, 0, vec![insert(&func("rat", "prot1", "c"), 4)]);
        let ids = [forward.id, backward.id, other.id];
        s.rebuild(vec![forward, backward, other], &schema, &Span::default());

        assert_eq!(s.conflict_groups().len(), 1);
        let options = &s.conflict_groups()[0].options;
        assert_eq!(options.len(), 2);
        assert_eq!(options[0].transactions, ids[..2]);
        assert_eq!(options[1].transactions, ids[2..]);
        // Lines sorted and joined, as the resolving user reads them.
        let line = |t: &Tuple| format!("Function insert None -> Some({t:?})");
        assert_eq!(options[0].description(), format!("{}; {}", line(&b), line(&a)));
        assert_eq!(options[1].description(), line(&func("rat", "prot1", "c")));
    }

    #[test]
    fn rebuild_clears_previous_state() {
        let schema = bioinformatics_schema();
        let mut s = SoftState::new();
        let c1 = cand(2, 0, vec![Update::insert("Function", func("rat", "prot1", "a"), p(2))]);
        let c2 = cand(3, 0, vec![Update::insert("Function", func("rat", "prot1", "b"), p(3))]);
        s.rebuild(vec![c1, c2], &schema, &Span::default());
        assert_eq!(s.dirty_len(), 1);

        s.rebuild(vec![], &schema, &Span::default());
        assert_eq!(s.dirty_len(), 0);
        assert!(s.deferred().is_empty());
        assert!(s.conflict_groups().is_empty());
    }

    /// Two conflicting inserts on (rat, prot1), deferred: options `a`, `b`.
    fn deferred_pair(schema: &Schema) -> (SoftState, CandidateTransaction, CandidateTransaction) {
        let mut s = SoftState::new();
        let c1 = cand(2, 0, vec![Update::insert("Function", func("rat", "prot1", "a"), p(2))]);
        let c2 = cand(3, 0, vec![Update::insert("Function", func("rat", "prot1", "b"), p(3))]);
        s.rebuild(vec![c1.clone(), c2.clone()], schema, &Span::default());
        (s, c1, c2)
    }

    #[test]
    fn resolve_hands_back_the_deferred_candidates_and_empties_the_state() {
        let schema = bioinformatics_schema();
        let (mut s, c1, c2) = deferred_pair(&schema);
        let group = s.conflict_groups()[0].key.clone();
        let choice = ResolutionChoice { group, chosen_option: Some(1) };
        let (rejected, remaining) = s.resolve(&[choice]).unwrap();
        assert_eq!(rejected, vec![c1.id]);
        assert_eq!(remaining.iter().map(|c| c.id).collect::<Vec<_>>(), vec![c2.id]);
        assert!(s.deferred().is_empty() && s.conflict_groups().is_empty());
        assert_eq!(s.dirty_len(), 0);
    }

    #[test]
    fn resolve_refuses_an_option_the_group_lacks_and_changes_nothing() {
        let schema = bioinformatics_schema();
        let (mut s, c1, c2) = deferred_pair(&schema);
        let group = s.conflict_groups()[0].key.clone();
        let valid = ResolutionChoice { group: group.clone(), chosen_option: Some(0) };
        let out_of_range = ResolutionChoice { group, chosen_option: Some(2) };
        let refused = s.resolve(&[valid, out_of_range]);
        assert!(matches!(refused, Err(StorageError::Resolution(_))), "got {refused:?}");
        assert!(s.is_deferred(c1.id) && s.is_deferred(c2.id));
        assert_eq!((s.conflict_groups().len(), s.dirty_len()), (1, 1));
    }

    #[test]
    fn non_conflicting_deferred_candidates_produce_no_groups() {
        let schema = bioinformatics_schema();
        let mut s = SoftState::new();
        let c1 = cand(2, 0, vec![Update::insert("Function", func("rat", "prot1", "a"), p(2))]);
        let c2 = cand(3, 0, vec![Update::insert("Function", func("mouse", "prot2", "b"), p(3))]);
        s.rebuild(vec![c1, c2], &schema, &Span::default());
        assert!(s.conflict_groups().is_empty());
        assert_eq!(s.dirty_len(), 2);
    }
}
