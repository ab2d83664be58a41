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
use std::cell::OnceCell;
use std::collections::hash_map::Entry;
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

/// Updates indexed by the `(relation, key)` pair each touches first (see
/// [`first_keys`]).
pub(crate) type KeyIndex<'a> = FxHashMap<(&'a str, &'a KeyValue), Vec<&'a Update>>;

/// Every update of `flat` that touches a key, with the key it touches first:
/// that of the tuple it reads or, for an insertion, inserts. Two updates
/// conflict only if they touch one `(relation, key)` pair first, and then
/// [`Update::conflict_kind_keyed`] decides it.
fn first_keys(flat: &FlatExtension) -> impl Iterator<Item = (&Update, &KeyValue)> {
    flat.iter().filter_map(|(update, keys)| Some((update, keys.first()?)))
}

/// Indexes a flattened extension's updates by the pair each touches first,
/// borrowing every key.
pub(crate) fn by_key(flat: &FlatExtension) -> KeyIndex<'_> {
    let mut index = KeyIndex::with_capacity_and_hasher(flat.updates().len(), Default::default());
    for (update, key) in first_keys(flat) {
        index.entry((update.relation.as_str(), key)).or_default().push(update);
    }
    index
}

/// The conflict-group keys on which `flat`'s updates conflict with the
/// updates indexed in `other`.
///
/// This is [`Update::conflict_kind_with`] over every pair of updates, one
/// from each side: a pair that touches different keys first never conflicts,
/// so probing by first key loses nothing while avoiding the quadratic
/// comparison of unrelated updates, and at a shared first key the check
/// needs neither the schema nor another key.
pub(crate) fn conflict_keys_with(flat: &FlatExtension, other: &KeyIndex<'_>) -> Vec<ConflictKey> {
    let mut keys = Vec::new();
    for (u, key) in first_keys(flat) {
        for other in other.get(&(u.relation.as_str(), key)).into_iter().flatten() {
            if let Some(kind) = u.conflict_kind_keyed(other) {
                let ck = ConflictKey::new(kind, u.relation.clone(), key.clone());
                if !keys.contains(&ck) {
                    keys.push(ck);
                }
            }
        }
    }
    keys
}

/// Finds the conflict-group keys on which two flattened update sets conflict,
/// comparing only updates that touch a common `(relation, key)` pair first —
/// which every conflicting pair does.
pub fn conflict_keys_between(left: &FlatExtension, right: &FlatExtension) -> Vec<ConflictKey> {
    conflict_keys_with(left, &by_key(right))
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
    index_candidates(flats, |_, _| {})
}

/// [`candidates_by_key`], calling `touched_twice(i, j)` for every pair of
/// candidates `i < j` as it files `j` under a pair `i` touches (once per
/// such pair of keys).
fn index_candidates(
    flats: &[Arc<FlatExtension>],
    mut touched_twice: impl FnMut(usize, usize),
) -> FxHashMap<(&str, &KeyValue), Touching> {
    let touched = flats.iter().map(|flat| flat.touched_len()).sum();
    let mut by_key: FxHashMap<(&str, &KeyValue), Touching> =
        FxHashMap::with_capacity_and_hasher(touched, Default::default());
    for (j, flat) in flats.iter().enumerate() {
        for (relation, key, _) in flat.touched() {
            match by_key.entry((relation, key)) {
                Entry::Vacant(vacant) => {
                    vacant.insert(Touching { first: j, rest: Vec::new() });
                }
                // A candidate's entries under one pair are consecutive, so
                // comparing with the last entry deduplicates.
                Entry::Occupied(mut occupied) => {
                    let touching = occupied.get_mut();
                    if *touching.rest.last().unwrap_or(&touching.first) != j {
                        touching.iter().for_each(|i| touched_twice(i, j));
                        touching.rest.push(j);
                    }
                }
            }
        }
    }
    by_key
}

/// `FindConflicts` (Figure 5): the pairwise direct conflicts among
/// `candidates`, whose flattened extensions are `flats` (in the same order).
/// Returns `(i, j, keys)` for every pair `i < j` that directly conflicts, with
/// the conflict-group keys it conflicts on, in ascending `(i, j)` order;
/// pairs where one candidate subsumes the other are skipped.
///
/// A hash index from touched `(relation, key)` pairs to candidates keeps the
/// common case near-linear (the paper's analysis assumes a hash table-based
/// conflict detection step): only candidates whose flattened extensions
/// touch a common key are compared. A pair that shares no extension member
/// is compared on those flattenings, by key. A pair that shares members
/// gets the exact Definition 4 check: both extensions are flattened again
/// without the shared members. Member ids and key indexes are built only for
/// candidates in a compared pair, each at most once.
///
/// Two candidates that share a member can conflict under Definition 4 while
/// their full flattenings touch no common key: a shared `a → b` that one
/// takes back to `a` and the other on to `c` flattens to nothing beside
/// `a → c`, but without the shared member it is `b → a` against `b → c`.
/// Such a pair is not compared.
pub fn direct_conflicts(
    candidates: &[CandidateTransaction],
    flats: &[Arc<FlatExtension>],
    schema: &Schema,
) -> Vec<(usize, usize, Vec<ConflictKey>)> {
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    index_candidates(flats, |i, j| pairs.push((i, j)));
    let mut found = Vec::new();
    if pairs.is_empty() {
        return found;
    }
    pairs.sort_unstable();
    pairs.dedup();

    let member_ids: Vec<OnceCell<FxHashSet<TransactionId>>> =
        candidates.iter().map(|_| OnceCell::new()).collect();
    let indexes: Vec<OnceCell<KeyIndex<'_>>> = flats.iter().map(|_| OnceCell::new()).collect();
    for (i, j) in pairs {
        let a = member_ids[i].get_or_init(|| candidates[i].member_ids());
        let b = member_ids[j].get_or_init(|| candidates[j].member_ids());
        if b.iter().all(|id| a.contains(id)) || a.iter().all(|id| b.contains(id)) {
            // One extension subsumes the other.
            continue;
        }
        let keys = if a.iter().any(|id| b.contains(id)) {
            let shared = |id: &TransactionId| a.contains(id) && b.contains(id);
            candidates[i].conflict_keys_excluding(&candidates[j], shared, schema)
        } else {
            conflict_keys_with(&flats[i], indexes[j].get_or_init(|| by_key(&flats[j])))
        };
        if !keys.is_empty() {
            found.push((i, j, keys));
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

    /// The flattened update extension — the net effect of the whole extension
    /// with intermediate steps removed — with the keys it touches.
    pub fn flattened(&self, schema: &Schema) -> FlatExtension {
        self.flattened_excluding(schema, |_| false)
    }

    /// The flattened update extension restricted to members `exclude` says
    /// no to — used both for direct-conflict detection (excluding shared
    /// antecedents) and at application time (excluding already-used
    /// transactions). Flattens straight from the shared member lists; no
    /// update is copied on the way in.
    pub fn flattened_excluding(
        &self,
        schema: &Schema,
        exclude: impl Fn(&TransactionId) -> bool,
    ) -> FlatExtension {
        let members = self.members.iter().filter(|(id, _)| !exclude(id));
        flatten_keyed(schema, members.map(|(_, updates)| updates))
    }

    /// Returns true if this candidate subsumes `other`: its extension is a
    /// superset of the other's extension.
    pub fn subsumes(&self, other: &CandidateTransaction) -> bool {
        let mine = self.member_ids();
        other.members.iter().all(|(id, _)| mine.contains(id))
    }

    /// The conflict-group keys on which the two candidates' extensions
    /// conflict once the members `shared` names are left out of both.
    fn conflict_keys_excluding(
        &self,
        other: &CandidateTransaction,
        shared: impl Fn(&TransactionId) -> bool,
        schema: &Schema,
    ) -> Vec<ConflictKey> {
        conflict_keys_between(
            &self.flattened_excluding(schema, &shared),
            &other.flattened_excluding(schema, &shared),
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

    /// The members of a candidate's extension as the spec takes them.
    fn members(cand: &CandidateTransaction) -> Vec<orchestra_spec::Member<'_>> {
        cand.members.iter().map(|(id, updates)| (*id, updates.as_slice())).collect()
    }

    /// Definition 4 between two candidates, as the spec states it.
    fn definition_4(a: &CandidateTransaction, b: &CandidateTransaction) -> Vec<ConflictKey> {
        let schema = bioinformatics_schema();
        orchestra_spec::direct_conflict(&schema, &members(a), &members(b)).into_iter().collect()
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
        let keys = definition_4(&c1, &c2);

        // Without excluding the shared member, the flattened extensions are
        // both inserts of divergent values; with the exclusion they are
        // modifies, which is the conflict the paper wants to report.
        let kinds: Vec<_> = keys.iter().map(|k| k.kind).collect();
        assert_eq!(kinds, vec![orchestra_model::ConflictKind::DivergentModify]);
        let candidates = [c1, c2];
        let flats: Vec<_> = candidates.iter().map(|c| c.flattened_shared(&schema)).collect();
        assert_eq!(direct_conflicts(&candidates, &flats, &schema), vec![(0, 1, keys)]);
    }

    #[test]
    fn no_conflict_between_identical_extensions() {
        let x0 = txn(1, 0, vec![Update::insert("Function", func("rat", "prot1", "v"), p(1))]);
        let c1 = CandidateTransaction::new(&x0, Priority(1), vec![]);
        let c2 = CandidateTransaction::new(&x0, Priority(2), vec![]);
        // A candidate shares all members with a copy of itself, so there is
        // nothing left to conflict on.
        assert!(definition_4(&c1, &c2).is_empty());
    }

    #[test]
    fn divergent_inserts_directly_conflict() {
        let x1 =
            txn(2, 0, vec![Update::insert("Function", func("rat", "prot1", "cell-resp"), p(2))]);
        let x2 = txn(3, 0, vec![Update::insert("Function", func("rat", "prot1", "immune"), p(3))]);
        let c1 = CandidateTransaction::new(&x1, Priority(1), vec![]);
        let c2 = CandidateTransaction::new(&x2, Priority(1), vec![]);
        assert!(!definition_4(&c1, &c2).is_empty());
        assert_eq!(definition_4(&c1, &c2), definition_4(&c2, &c1));
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

    mod oracle {
        use super::*;
        use orchestra_model::ConflictKind;
        use proptest::prelude::*;
        use std::collections::BTreeSet;

        /// An update's shape: kind, then the tuple it reads or inserts, then
        /// the tuple a modification writes, each as (key, value) over three
        /// keys and three values. Kind 4 is an `XRef` insertion, another
        /// relation.
        type Spec = (u8, u8, u8, (u8, u8));

        fn spec() -> impl Strategy<Value = Spec> {
            (0u8..5, 0u8..3, 0u8..3, (0u8..3, 0u8..3))
        }

        fn function(key: u8, value: u8) -> Tuple {
            func("rat", &format!("k{key}"), &format!("v{value}"))
        }

        /// Kind 2 modifies in place, kind 3 may move the tuple to another
        /// key.
        fn update((kind, key, value, (to_key, to_value)): Spec, origin: ParticipantId) -> Update {
            match kind {
                0 => Update::insert("Function", function(key, value), origin),
                1 => Update::delete("Function", function(key, value), origin),
                2 => Update::modify(
                    "Function",
                    function(key, value),
                    function(key, to_value),
                    origin,
                ),
                3 => Update::modify(
                    "Function",
                    function(key, value),
                    function(to_key, to_value),
                    origin,
                ),
                _ => {
                    let xref = Tuple::of_text(&["rat", &format!("k{key}"), "db", "acc"]);
                    Update::insert("XRef", xref, origin)
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// The keyed path reads each update's first key off its
            /// flattening, and that is the key `conflict_kind_with` derives:
            /// the key of the tuple the update reads or inserts. So on every
            /// pair of updates, `conflict_keys_between` is
            /// `conflict_kind_with`. The fixed moves meet other updates, and
            /// each other, only at the key they write.
            #[test]
            fn the_keyed_check_is_conflict_kind_with_on_every_pair(
                specs in prop::collection::vec(spec(), 2..10)
            ) {
                let schema = bioinformatics_schema();
                let mut updates: Vec<Update> = specs.into_iter().map(|s| update(s, p(1))).collect();
                updates.push(update((3, 0, 0, (2, 0)), p(1)));
                updates.push(update((3, 1, 0, (2, 1)), p(1)));
                let flats: Vec<NetUpdates> = updates
                    .iter()
                    .map(|u| flatten_keyed(&schema, [&Arc::new(vec![u.clone()])]))
                    .collect();
                for flat in &flats {
                    for (u, key) in first_keys(flat) {
                        let rel = schema.relation(&u.relation).unwrap();
                        let read_or_inserted = u.read_tuple().or(u.written_tuple()).unwrap();
                        prop_assert_eq!(key, &rel.key_of(read_or_inserted), "{}", u);
                    }
                }
                for left in &flats {
                    for right in &flats {
                        let (u, o) = (&left.updates()[0], &right.updates()[0]);
                        let expected: Vec<ConflictKey> = u
                            .conflict_kind_with(o, &schema)
                            .map(|(kind, key)| ConflictKey::new(kind, u.relation.clone(), key))
                            .into_iter()
                            .collect();
                        prop_assert_eq!(conflict_keys_between(left, right), expected, "{} against {}", u, o);
                    }
                }
            }

            /// `direct_conflicts` is the spec's Definition 4 (on the pairs
            /// whose full flattenings share a key, its one departure from
            /// the paper), over random candidate sets: six transactions,
            /// each a candidate two times in three, with any earlier ones as
            /// its extension, so candidates share antecedents and some
            /// extensions contain others.
            #[test]
            fn direct_conflicts_is_definition_4_on_key_sharing_pairs(
                pool in prop::collection::vec(prop::collection::vec(spec(), 1..4), 6),
                picks in prop::collection::vec((0u8..3, 0u8..64), 6)
            ) {
                let schema = bioinformatics_schema();
                let txns: Vec<Transaction> = pool
                    .into_iter()
                    .enumerate()
                    .map(|(i, specs)| {
                        let origin = p(i as u32 + 1);
                        txn(origin.0, 0, specs.into_iter().map(|s| update(s, origin)).collect())
                    })
                    .collect();
                let candidates: Vec<CandidateTransaction> = picks
                    .iter()
                    .enumerate()
                    .filter(|(_, (pick, _))| *pick > 0)
                    .map(|(root, (_, mask))| {
                        let antecedents = (0..root).filter(|a| mask & (1 << a) != 0);
                        let antecedents = antecedents.map(|a| txns[a].clone()).collect();
                        CandidateTransaction::new(&txns[root], Priority(1), antecedents)
                    })
                    .collect();
                let flats: Vec<Arc<FlatExtension>> =
                    candidates.iter().map(|cand| cand.flattened_shared(&schema)).collect();
                let found: Vec<(usize, usize, Vec<ConflictKey>)> =
                    direct_conflicts(&candidates, &flats, &schema);
                let pairs: Vec<(usize, usize)> = found.iter().map(|(i, j, _)| (*i, *j)).collect();
                prop_assert!(pairs.windows(2).all(|w| w[0] < w[1]), "ascending (i, j)");
                let found: BTreeSet<(usize, usize, BTreeSet<ConflictKey>)> = found
                    .into_iter()
                    .map(|(i, j, keys)| (i, j, keys.into_iter().collect()))
                    .collect();
                let pairs = (0..candidates.len()).flat_map(|i| (i + 1..candidates.len()).map(move |j| (i, j)));
                let expected = pairs
                    .map(|(i, j)| (i, j, definition_4(&candidates[i], &candidates[j]).into_iter().collect()))
                    .filter(|(_, _, keys): &(usize, usize, BTreeSet<ConflictKey>)| !keys.is_empty())
                    .collect();
                prop_assert_eq!(found, expected);
            }
        }

        /// The known gap against Definition 4 (ROADMAP item 3): both
        /// candidates extend a shared `a → b`, one back to `a` and the other
        /// on to `c`. Their full flattenings are nothing and `a → c`, which
        /// share no key, so `direct_conflicts` never compares them, and
        /// neither does the spec's one departure from the paper; without the
        /// shared member they are `b → a` against `b → c`, a divergent
        /// modify.
        #[test]
        #[ignore = "known gap against Definition 4, ROADMAP item 3"]
        fn definition_4_counts_a_pair_that_meets_only_without_its_shared_members() {
            let schema = bioinformatics_schema();
            let modify = |from, to, who| {
                let origin = p(who);
                let update = Update::modify("Function", function(0, from), function(0, to), origin);
                txn(who, 0, vec![update])
            };
            let (shared, back, on) = (modify(0, 1, 1), modify(1, 0, 2), modify(1, 2, 3));
            let candidates = [
                CandidateTransaction::new(&back, Priority(1), vec![shared.clone()]),
                CandidateTransaction::new(&on, Priority(1), vec![shared]),
            ];
            let keys = definition_4(&candidates[0], &candidates[1]);
            let kinds: Vec<ConflictKind> = keys.iter().map(|key| key.kind).collect();
            assert_eq!(kinds, vec![ConflictKind::DivergentModify]);
            let flats: Vec<Arc<FlatExtension>> =
                candidates.iter().map(|cand| cand.flattened_shared(&schema)).collect();
            assert_eq!(direct_conflicts(&candidates, &flats, &schema), vec![(0, 1, keys)]);
        }
    }
}
