//! Candidate transactions and their update extensions.
//!
//! A *candidate transaction* is a fully trusted, not-yet-decided transaction
//! presented to the reconciliation engine, together with its transaction
//! extension (Definition 3): the transitive closure of its undecided
//! antecedents, in publication (`Δ`) order, ending with the root transaction
//! itself. The *update extension* (Section 4.2) is the flattened update
//! footprint of that list — the net changes the reconciling peer would apply
//! if it accepted the transaction.

use orchestra_model::{
    flatten_keyed, ConflictKey, KeyValue, NetUpdates, Priority, Schema, Transaction, TransactionId,
    Update,
};
use rustc_hash::{FxHashMap, FxHashSet};
use std::fmt;
use std::sync::Arc;

/// A flattened update extension together with the `(relation, key)` pairs it
/// touches: what [`flatten_keyed`] returns, under the name the paper's
/// `ReconcileUpdates` knows it by.
///
/// The keys are computed once per flattening, and every check that needs one
/// — dirty values, the participant's own delta, `FindConflicts`,
/// `UpdateSoftState`, the instance's compatibility check and its apply —
/// borrows it instead of deriving (and allocating) it again.
///
/// The updates may alias the update store's log: an extension that is one
/// transaction touching pairwise distinct keys flattens to that transaction's
/// own shared update list, so holding a `FlatExtension` can keep a log entry's
/// updates alive, and nothing here may assume it owns them.
pub type FlatExtension = NetUpdates;

/// Updates indexed by the `(relation, key)` pairs they touch.
pub(crate) type KeyIndex<'a> = FxHashMap<(&'a str, &'a KeyValue), Vec<&'a Update>>;

/// Indexes a flattened extension's updates by the pairs they touch, borrowing
/// every key.
pub(crate) fn by_key(flat: &FlatExtension) -> KeyIndex<'_> {
    let mut index = KeyIndex::default();
    for (relation, key, update) in flat.touched() {
        index.entry((relation, key)).or_default().push(update);
    }
    index
}

/// The conflict-group keys on which `flat`'s updates conflict with the
/// updates indexed in `other`, comparing only updates that touch a common
/// `(relation, key)` pair.
///
/// This is complete with respect to the paper's conflict definition: every
/// conflicting pair of updates (divergent inserts, delete versus write,
/// divergent replacements of the same source) necessarily touches a common
/// key, so probing by key loses nothing while avoiding the quadratic
/// comparison of unrelated updates.
pub(crate) fn conflict_keys_with(
    flat: &FlatExtension,
    other: &KeyIndex<'_>,
    schema: &Schema,
) -> Vec<ConflictKey> {
    let mut keys = Vec::new();
    for (relation, key, u) in flat.touched() {
        for other in other.get(&(relation, key)).into_iter().flatten() {
            if let Some((kind, ckey)) = u.conflict_kind_with(other, schema) {
                let ck = ConflictKey::new(kind, u.relation.clone(), ckey);
                if !keys.contains(&ck) {
                    keys.push(ck);
                }
            }
        }
    }
    keys
}

/// Finds the conflict-group keys on which two flattened update sets conflict,
/// comparing only updates that touch a common `(relation, key)` pair — which
/// every conflicting pair does.
pub fn conflict_keys_between(
    left: &FlatExtension,
    right: &FlatExtension,
    schema: &Schema,
) -> Vec<ConflictKey> {
    conflict_keys_with(left, &by_key(right), schema)
}

/// The candidates (by position) touching one `(relation, key)` pair, in
/// position order. Nearly every pair is touched by one candidate, so the
/// first is held inline and only a second one allocates.
#[derive(Debug)]
pub struct Touching {
    first: usize,
    rest: Vec<usize>,
}

impl Touching {
    /// The touching candidates' positions, ascending (at least one).
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        std::iter::once(self.first).chain(self.rest.iter().copied())
    }
}

/// Indexes candidates (by position) under every `(relation, key)` pair their
/// flattened extensions touch, each candidate at most once per pair.
pub fn candidates_by_key(flats: &[Arc<FlatExtension>]) -> FxHashMap<(&str, &KeyValue), Touching> {
    let mut by_key: FxHashMap<(&str, &KeyValue), Touching> = FxHashMap::default();
    for (i, flat) in flats.iter().enumerate() {
        for (relation, key, _) in flat.touched() {
            // A candidate's entries under one pair are consecutive, so
            // comparing with the last entry deduplicates.
            by_key
                .entry((relation, key))
                .and_modify(|touching| {
                    if touching.rest.last().unwrap_or(&touching.first) != &i {
                        touching.rest.push(i);
                    }
                })
                .or_insert(Touching { first: i, rest: Vec::new() });
        }
    }
    by_key
}

/// `FindConflicts` (Figure 5): the pairwise direct conflicts among
/// `candidates`, whose flattened extensions are `flats` (in the same order).
/// Returns `(i, j, keys)` for every pair `i < j` that directly conflicts, with
/// the conflict-group keys it conflicts on; pairs where one candidate
/// subsumes the other are skipped.
///
/// A hash index from touched `(relation, key)` pairs to candidates keeps the
/// common case near-linear (the paper's analysis assumes a hash table-based
/// conflict detection step): only candidates that touch a common key are
/// compared, and the flattened extensions are reused unless the pair shares
/// extension members, in which case the exact Definition 4 check (excluding
/// shared members) is performed.
pub fn direct_conflicts(
    candidates: &[CandidateTransaction],
    flats: &[Arc<FlatExtension>],
    schema: &Schema,
) -> Vec<(usize, usize, Vec<ConflictKey>)> {
    let by_key = candidates_by_key(flats);
    let mut found = Vec::new();
    if by_key.values().all(|touching| touching.rest.is_empty()) {
        return found;
    }

    let member_sets: Vec<FxHashSet<TransactionId>> =
        candidates.iter().map(|c| c.member_ids()).collect();
    let mut checked: FxHashSet<(usize, usize)> = FxHashSet::default();
    for touching in by_key.values().filter(|touching| !touching.rest.is_empty()) {
        for (pos, i) in touching.iter().enumerate() {
            for &j in &touching.rest[pos..] {
                if !checked.insert((i, j)) {
                    continue;
                }
                let (a_members, b_members) = (&member_sets[i], &member_sets[j]);
                let a_subsumes = b_members.iter().all(|id| a_members.contains(id));
                let b_subsumes = a_members.iter().all(|id| b_members.contains(id));
                if a_subsumes || b_subsumes {
                    continue;
                }
                let shares_members = a_members.iter().any(|id| b_members.contains(id));
                let keys = if shares_members {
                    candidates[i].direct_conflict_keys(&candidates[j], schema)
                } else {
                    conflict_keys_between(&flats[i], &flats[j], schema)
                };
                if !keys.is_empty() {
                    found.push((i, j, keys));
                }
            }
        }
    }
    found
}

/// The [`direct_conflicts`] as `DoGroup` consumes them: every conflicting
/// root transaction with the roots it directly conflicts with.
pub fn conflict_sets(
    candidates: &[CandidateTransaction],
    flats: &[Arc<FlatExtension>],
    schema: &Schema,
) -> FxHashMap<TransactionId, FxHashSet<TransactionId>> {
    let mut conflicts: FxHashMap<TransactionId, FxHashSet<TransactionId>> = FxHashMap::default();
    for (i, j, _) in direct_conflicts(candidates, flats, schema) {
        let (a, b) = (candidates[i].id, candidates[j].id);
        conflicts.entry(a).or_default().insert(b);
        conflicts.entry(b).or_default().insert(a);
    }
    conflicts
}

/// A trusted, undecided transaction together with its transaction extension,
/// as handed to the reconciliation engine by the update store.
///
/// `Debug` and equality are over the id, the priority and the members: the
/// shared flattening a candidate may carry is derived from them.
#[derive(Clone)]
pub struct CandidateTransaction {
    /// The root transaction id (the transaction the peer is deciding on).
    pub id: TransactionId,
    /// The priority `pri_i(X)` the reconciling participant assigns to the
    /// root transaction.
    pub priority: Priority,
    /// The transaction extension: every member transaction (undecided
    /// antecedents first, root last), in publication order, with its updates.
    /// The update lists are shared (`Arc`) with the update store's log, so
    /// building and cloning candidates never copies an update.
    pub members: Vec<(TransactionId, Arc<Vec<Update>>)>,
    /// The root's own flattening, as the update store derived it once for
    /// every participant (see [`CandidateTransaction::shared_flattening`]).
    shared: Option<Arc<FlatExtension>>,
}

impl CandidateTransaction {
    /// Builds a candidate from the root transaction and its already-resolved
    /// extension member transactions (antecedents in publication order; the
    /// root itself may be included or will be appended).
    pub fn new(root: &Transaction, priority: Priority, antecedents: Vec<Transaction>) -> Self {
        let mut members: Vec<(TransactionId, Arc<Vec<Update>>)> =
            antecedents.into_iter().map(|t| (t.id(), t.shared_updates())).collect();
        if members.last().map(|(id, _)| *id) != Some(root.id()) {
            members.push((root.id(), root.shared_updates()));
        }
        CandidateTransaction::from_members(root.id(), priority, members)
    }

    /// Builds a candidate directly from already-shared member update lists
    /// (antecedents in publication order, root last). This is the store-side
    /// constructor: the update lists are borrowed from the log by reference
    /// count, so no update is copied.
    pub fn from_members(
        id: TransactionId,
        priority: Priority,
        members: Vec<(TransactionId, Arc<Vec<Update>>)>,
    ) -> Self {
        CandidateTransaction { id, priority, members, shared: None }
    }

    /// Hands the candidate the flattening of its root transaction that the
    /// update store derived once for every participant reconciling it (see
    /// [`orchestra_storage::LogEntry::own_flattening`]).
    pub fn with_shared_flattening(mut self, flat: Option<&Arc<FlatExtension>>) -> Self {
        self.shared = flat.cloned();
        self
    }

    /// The flattened extension the update store shares with every
    /// participant: present when the extension is the root alone and the
    /// flattening handed over is that root's update list itself, shared
    /// rather than rebuilt — so it is exactly what [`Self::flattened`] would
    /// compute.
    pub fn shared_flattening(&self) -> Option<&Arc<FlatExtension>> {
        let shared = self.shared.as_ref()?;
        match self.members.as_slice() {
            [(id, updates)] if *id == self.id && shared.shares(updates) => Some(shared),
            _ => None,
        }
    }

    /// The flattened update extension, shared: the store's flattening when
    /// the candidate carries one, a fresh one otherwise.
    pub fn flattened_shared(&self, schema: &Schema) -> Arc<FlatExtension> {
        match self.shared_flattening() {
            Some(shared) => Arc::clone(shared),
            None => Arc::new(self.flattened(schema)),
        }
    }

    /// The ids of every member of the extension (antecedents plus root).
    pub fn member_ids(&self) -> FxHashSet<TransactionId> {
        self.members.iter().map(|(id, _)| *id).collect()
    }

    /// Drops extension members the participant has since accepted (the root
    /// itself is always kept). Definition 3 defines the extension over
    /// *undecided* antecedents, so a candidate deferred across
    /// reconciliations must shed members as they get accepted — their effects
    /// are part of the instance by then, and keeping them would distort
    /// conflict detection and subsumption. This also makes a deferred
    /// candidate reconstructible from the store alone (crash recovery builds
    /// it against the current accepted set and must get the same chain).
    ///
    /// `accepted` is a predicate so the caller can probe several sets in
    /// place instead of materialising their union.
    pub fn prune_accepted_members(&mut self, accepted: impl Fn(&TransactionId) -> bool) {
        if self.members.iter().any(|(id, _)| *id != self.id && accepted(id)) {
            self.members.retain(|(id, _)| *id == self.id || !accepted(id));
        }
    }

    /// An order-sensitive fingerprint of the extension's member list. Two
    /// candidates for the same root transaction share a fingerprint exactly
    /// when their antecedent chains are identical, which is what makes the
    /// flattened extension reusable across reconciliations.
    fn member_fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut hasher = rustc_hash::FxHasher::default();
        for (id, _) in &self.members {
            id.hash(&mut hasher);
        }
        hasher.finish()
    }

    /// The update footprint `uf` of the extension: every member update, in
    /// publication order.
    pub fn update_footprint(&self) -> Vec<Update> {
        self.members.iter().flat_map(|(_, us)| us.iter().cloned()).collect()
    }

    /// The flattened update extension — the net effect of the whole extension
    /// with intermediate steps removed — with the keys it touches.
    pub fn flattened(&self, schema: &Schema) -> FlatExtension {
        self.flattened_excluding(schema, &FxHashSet::default())
    }

    /// The flattened update extension restricted to members *not* in
    /// `exclude` — used both for direct-conflict detection (excluding shared
    /// antecedents) and at application time (excluding already-used
    /// transactions). Flattens straight from the shared member lists; no
    /// update is copied on the way in.
    pub fn flattened_excluding(
        &self,
        schema: &Schema,
        exclude: &FxHashSet<TransactionId>,
    ) -> FlatExtension {
        let members = self.members.iter().filter(|(id, _)| !exclude.contains(id));
        flatten_keyed(schema, members.map(|(_, updates)| updates))
    }

    /// Returns true if this candidate subsumes `other`: its extension is a
    /// superset of the other's extension.
    pub fn subsumes(&self, other: &CandidateTransaction) -> bool {
        let mine = self.member_ids();
        other.members.iter().all(|(id, _)| mine.contains(id))
    }

    /// Definition 4 (*direct conflict*): the two extensions conflict on
    /// updates that do not come from shared member transactions.
    pub fn directly_conflicts_with(&self, other: &CandidateTransaction, schema: &Schema) -> bool {
        !self.direct_conflict_keys(other, schema).is_empty()
    }

    /// The conflict-group keys on which the two candidates directly conflict
    /// (empty if they do not conflict). Shared member transactions are
    /// excluded from both sides before comparison, as required by
    /// Definition 4.
    fn direct_conflict_keys(
        &self,
        other: &CandidateTransaction,
        schema: &Schema,
    ) -> Vec<ConflictKey> {
        let mine = self.member_ids();
        let theirs = other.member_ids();
        let shared: FxHashSet<TransactionId> = mine.intersection(&theirs).copied().collect();
        conflict_keys_between(
            &self.flattened_excluding(schema, &shared),
            &other.flattened_excluding(schema, &shared),
            schema,
        )
    }
}

impl fmt::Debug for CandidateTransaction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CandidateTransaction")
            .field("id", &self.id)
            .field("priority", &self.priority)
            .field("members", &self.members)
            .finish()
    }
}

impl PartialEq for CandidateTransaction {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id && self.priority == other.priority && self.members == other.members
    }
}

impl Eq for CandidateTransaction {}

/// Memoised flattened update extensions, each with the keys it touches.
///
/// A reconciliation flattens every candidate at most once: a candidate that
/// carries the store's [shared flattening](CandidateTransaction::shared_flattening)
/// is not flattened by the participant at all, every other one is flattened
/// through this cache. `CheckState`'s dirty-value and own-delta probes,
/// `FindConflicts`, the apply step (unless a shared antecedent was already
/// applied) and `UpdateSoftState` all read that one [`FlatExtension`] and its
/// borrowed keys. Across reconciliations, a deferred candidate is
/// re-presented — with an unchanged antecedent chain — until its conflict
/// resolves. The cache holds the flattening of every deferred candidate,
/// shared ones included, keyed by `(root id, member fingerprint)`, so an
/// unchanged chain is re-used for free, while a chain that gained or lost
/// members (for example because an antecedent was accepted in the meantime)
/// misses and is recomputed.
///
/// Entries are shared ([`Arc`]), so a cache hit costs one reference-count
/// bump. The owner is responsible for pruning entries for transactions that
/// can no longer reappear (see [`ExtensionCache::retain`]).
#[derive(Debug, Clone, Default)]
pub struct ExtensionCache {
    entries: std::cell::RefCell<CacheMap>,
    hits: std::cell::Cell<u64>,
    misses: std::cell::Cell<u64>,
}

/// Cached flattenings keyed by `(root id, member fingerprint)`.
type CacheMap = FxHashMap<(TransactionId, u64), Arc<FlatExtension>>;

impl ExtensionCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        ExtensionCache::default()
    }

    /// The flattened update extension of a candidate, computed at most once
    /// per distinct antecedent chain (and not at all when the candidate
    /// carries the store's shared flattening).
    pub fn flattened(&self, cand: &CandidateTransaction, schema: &Schema) -> Arc<FlatExtension> {
        let key = (cand.id, cand.member_fingerprint());
        if let Some(hit) = self.entries.borrow().get(&key) {
            self.hits.set(self.hits.get() + 1);
            return Arc::clone(hit);
        }
        self.misses.set(self.misses.get() + 1);
        let flat = cand.flattened_shared(schema);
        self.entries.borrow_mut().insert(key, Arc::clone(&flat));
        flat
    }

    /// Drops every entry whose root transaction fails the predicate. Called
    /// after a reconciliation with "is still deferred": accepted and rejected
    /// transactions are durably decided at the store and never reappear as
    /// candidates, so their flattenings are dead weight.
    pub fn retain(&self, keep: impl Fn(TransactionId) -> bool) {
        self.entries.borrow_mut().retain(|(id, _), _| keep(*id));
    }

    /// Number of cached flattenings.
    pub fn len(&self) -> usize {
        self.entries.borrow().len()
    }

    /// Returns true if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.borrow().is_empty()
    }

    /// `(hits, misses)` since construction.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits.get(), self.misses.get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orchestra_model::schema::bioinformatics_schema;
    use orchestra_model::{ParticipantId, Tuple};

    fn p(i: u32) -> ParticipantId {
        ParticipantId(i)
    }

    fn func(org: &str, prot: &str, f: &str) -> Tuple {
        Tuple::of_text(&[org, prot, f])
    }

    fn txn(i: u32, j: u64, updates: Vec<Update>) -> Transaction {
        Transaction::from_parts(p(i), j, updates).unwrap()
    }

    #[test]
    fn candidate_flattens_its_extension() {
        let schema = bioinformatics_schema();
        // X3:0 inserts, X3:1 revises (the paper's epoch-1 example): the
        // flattened extension of X3:1 is a single insert of the final value.
        let x0 =
            txn(3, 0, vec![Update::insert("Function", func("rat", "prot1", "cell-metab"), p(3))]);
        let x1 = txn(
            3,
            1,
            vec![Update::modify(
                "Function",
                func("rat", "prot1", "cell-metab"),
                func("rat", "prot1", "immune"),
                p(3),
            )],
        );
        let cand = CandidateTransaction::new(&x1, Priority(1), vec![x0.clone()]);
        assert_eq!(cand.members.len(), 2);
        assert_eq!(cand.member_ids().len(), 2);
        assert_eq!(cand.update_footprint().len(), 2);
        let flat = cand.flattened(&schema);
        assert_eq!(flat.updates().len(), 1);
        assert_eq!(flat.updates()[0].written_tuple().unwrap(), &func("rat", "prot1", "immune"));
    }

    #[test]
    fn root_is_not_duplicated_if_supplied_in_antecedents() {
        let x0 = txn(1, 0, vec![Update::insert("Function", func("a", "b", "c"), p(1))]);
        let cand = CandidateTransaction::new(&x0, Priority(1), vec![x0.clone()]);
        assert_eq!(cand.members.len(), 1);
    }

    #[test]
    fn subsumption() {
        let x0 = txn(1, 0, vec![Update::insert("Function", func("a", "p", "v1"), p(1))]);
        let x1 = txn(
            2,
            0,
            vec![Update::modify("Function", func("a", "p", "v1"), func("a", "p", "v2"), p(2))],
        );
        let small = CandidateTransaction::new(&x0, Priority(1), vec![]);
        let big = CandidateTransaction::new(&x1, Priority(1), vec![x0.clone()]);
        assert!(big.subsumes(&small));
        assert!(!small.subsumes(&big));
        assert!(big.subsumes(&big.clone()));
    }

    #[test]
    fn direct_conflict_ignores_shared_members() {
        let schema = bioinformatics_schema();
        // Shared antecedent x0 inserts a tuple; two candidates each modify it
        // to a different value. They directly conflict on the divergent
        // modifications, but the shared insert itself is not a conflict.
        let x0 = txn(1, 0, vec![Update::insert("Function", func("rat", "prot1", "base"), p(1))]);
        let x1 = txn(
            2,
            0,
            vec![Update::modify(
                "Function",
                func("rat", "prot1", "base"),
                func("rat", "prot1", "immune"),
                p(2),
            )],
        );
        let x2 = txn(
            3,
            0,
            vec![Update::modify(
                "Function",
                func("rat", "prot1", "base"),
                func("rat", "prot1", "cell-resp"),
                p(3),
            )],
        );
        let c1 = CandidateTransaction::new(&x1, Priority(1), vec![x0.clone()]);
        let c2 = CandidateTransaction::new(&x2, Priority(1), vec![x0.clone()]);
        assert!(c1.directly_conflicts_with(&c2, &schema));
        let keys = c1.direct_conflict_keys(&c2, &schema);
        assert_eq!(keys.len(), 1);

        // Without excluding the shared member, the flattened extensions are
        // both inserts of divergent values; with the exclusion they are
        // modifies, which is the conflict the paper wants to report.
        let kinds: Vec<_> = keys.iter().map(|k| k.kind).collect();
        assert_eq!(kinds, vec![orchestra_model::ConflictKind::DivergentModify]);
    }

    #[test]
    fn no_conflict_between_identical_extensions() {
        let schema = bioinformatics_schema();
        let x0 = txn(1, 0, vec![Update::insert("Function", func("rat", "prot1", "v"), p(1))]);
        let c1 = CandidateTransaction::new(&x0, Priority(1), vec![]);
        let c2 = CandidateTransaction::new(&x0, Priority(2), vec![]);
        // A candidate shares all members with a copy of itself, so there is
        // nothing left to conflict on.
        assert!(!c1.directly_conflicts_with(&c2, &schema));
    }

    #[test]
    fn divergent_inserts_directly_conflict() {
        let schema = bioinformatics_schema();
        let x1 =
            txn(2, 0, vec![Update::insert("Function", func("rat", "prot1", "cell-resp"), p(2))]);
        let x2 = txn(3, 0, vec![Update::insert("Function", func("rat", "prot1", "immune"), p(3))]);
        let c1 = CandidateTransaction::new(&x1, Priority(1), vec![]);
        let c2 = CandidateTransaction::new(&x2, Priority(1), vec![]);
        assert!(c1.directly_conflicts_with(&c2, &schema));
        assert!(c2.directly_conflicts_with(&c1, &schema));
    }

    #[test]
    fn candidates_are_indexed_once_per_key_in_position_order() {
        let schema = bioinformatics_schema();
        let flat = |updates: Vec<Update>| {
            let cand = CandidateTransaction::new(&txn(1, 0, updates), Priority(1), vec![]);
            Arc::new(cand.flattened(&schema))
        };
        let flats = [
            flat(vec![Update::insert("Function", func("rat", "prot1", "a"), p(1))]),
            flat(vec![Update::insert("Function", func("rat", "prot2", "b"), p(1))]),
            flat(vec![
                Update::delete("Function", func("rat", "prot1", "a"), p(1)),
                Update::insert("Function", func("rat", "prot3", "c"), p(1)),
            ]),
            flat(vec![Update::insert("Function", func("rat", "prot1", "d"), p(1))]),
        ];
        let by_key = candidates_by_key(&flats);
        let touching = |protein: &str| {
            let key = KeyValue::of_text(&["rat", protein]);
            by_key[&("Function", &key)].iter().collect::<Vec<usize>>()
        };
        assert_eq!(by_key.len(), 3);
        assert_eq!(touching("prot1"), vec![0, 2, 3]);
        assert_eq!(touching("prot2"), vec![1]);
        assert_eq!(touching("prot3"), vec![2]);
    }

    #[test]
    fn touched_keys_cover_flattened_extension() {
        let schema = bioinformatics_schema();
        let x0 = txn(
            3,
            0,
            vec![
                Update::insert("Function", func("mouse", "prot2", "cell-resp"), p(3)),
                Update::modify(
                    "Function",
                    func("mouse", "prot2", "cell-resp"),
                    func("mouse", "prot3", "cell-resp"),
                    p(3),
                ),
            ],
        );
        let cand = CandidateTransaction::new(&x0, Priority(1), vec![]);
        let flat = cand.flattened(&schema);
        let keys: Vec<_> = flat.touched().map(|(relation, key, _)| (relation, key)).collect();
        // Flattened to a single insert of (mouse, prot3, ...): only that key.
        assert_eq!(keys, vec![("Function", &KeyValue::of_text(&["mouse", "prot3"]))]);
    }
}
