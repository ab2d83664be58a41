//! Candidate transactions and their update extensions.
//!
//! A *candidate transaction* is a fully trusted, not-yet-decided transaction
//! presented to the reconciliation engine, together with its transaction
//! extension (Definition 3): the transitive closure of its undecided
//! antecedents, in publication (`Δ`) order, ending with the root transaction
//! itself. The *update extension* (Section 4.2) is the flattened update
//! footprint of that list — the net changes the reconciling peer would apply
//! if it accepted the transaction.
//!
//! [`direct_conflicts`] is the one conflict detector. Its sorted
//! `(i, j, keys)` list over candidate positions is the only form a conflict
//! takes: `DoGroup`, the soft-state rebuild and the network-centric plan all
//! read it, and `CheckState`'s own-delta rule probes the same sorted touches
//! built over the participant's own net delta.

use orchestra_model::{
    flatten_keyed, ConflictKey, KeyValue, NetUpdates, Priority, Schema, Transaction, TransactionId,
    Update,
};
use orchestra_obs::Span;
use rustc_hash::{FxHashSet, FxHasher};
use std::cell::OnceCell;
use std::fmt;
use std::hash::{BuildHasher, BuildHasherDefault};
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
/// own shared update list, so holding a `FlatExtension` can keep a published
/// transaction's updates alive, and nothing here may assume it owns them.
pub type FlatExtension = NetUpdates;

/// Every update of `flat` that touches a key, with the key it touches first:
/// that of the tuple it reads or, for an insertion, inserts. Two updates
/// conflict only if they touch one `(relation, key)` pair first, and then
/// [`Update::conflict_kind_keyed`] decides it.
fn first_keys(flat: &FlatExtension) -> impl Iterator<Item = (&Update, &KeyValue)> {
    flat.iter().filter_map(|(update, keys)| Some((update, keys.first()?)))
}

/// The hash a touched `(relation, key)` pair is sorted by.
fn pair_hash(relation: &str, key: &KeyValue) -> u64 {
    BuildHasherDefault::<FxHasher>::default().hash_one((relation, key))
}

/// Finds the conflict-group keys on which two flattened update sets conflict,
/// comparing only updates that touch a common `(relation, key)` pair first —
/// which every conflicting pair does.
fn conflict_keys_between(left: &FlatExtension, right: &FlatExtension) -> Vec<ConflictKey> {
    conflict_keys(&TouchedPairs::new([left, right]).meetings())
}

/// One `(relation, key)` pair a flattening touches: the flattening's
/// position, the update touching the pair and whether it is the key that
/// update touches first, under the pair's hash.
struct Touch<'a> {
    hash: u64,
    position: usize,
    key: &'a KeyValue,
    update: &'a Update,
    first: bool,
}

impl Touch<'_> {
    /// The touched relation.
    fn relation(&self) -> &str {
        self.update.relation.as_str()
    }

    /// Whether both touch one `(relation, key)` pair.
    fn same_pair(&self, other: &Touch<'_>) -> bool {
        self.key == other.key && self.relation() == other.relation()
    }
}

/// The maximal runs of consecutive items that `same` holds between.
pub(crate) fn runs<T>(items: &[T], same: impl Fn(&T, &T) -> bool) -> impl Iterator<Item = &[T]> {
    let mut rest = items;
    std::iter::from_fn(move || {
        let first = rest.first()?;
        let len = rest.iter().position(|item| !same(first, item)).unwrap_or(rest.len());
        let (run, tail) = rest.split_at(len);
        rest = tail;
        Some(run)
    })
}

/// Every `(relation, key)` pair some flattenings touch, as one run of
/// touches per pair, each run in position order.
///
/// One pass files every touched pair of every flattening in one vector and
/// sorts it by `(hash, position)`. A run of equal hashes then holds one pair
/// unless two pairs collide on the hash; such a run is reordered by the
/// pairs themselves, so colliding pairs never meet.
pub(crate) struct TouchedPairs<'a> {
    touches: Vec<Touch<'a>>,
    /// Whether two pairs collided on a hash.
    collided: bool,
}

impl<'a> TouchedPairs<'a> {
    pub(crate) fn new(flats: impl IntoIterator<Item = &'a FlatExtension> + Clone) -> Self {
        let touched = flats.clone().into_iter().map(FlatExtension::touched_len).sum();
        let mut touches = Vec::with_capacity(touched);
        for (position, flat) in flats.into_iter().enumerate() {
            for (update, keys) in flat.iter() {
                for (nth, key) in keys.iter().enumerate() {
                    let hash = pair_hash(update.relation.as_str(), key);
                    touches.push(Touch { hash, position, key, update, first: nth == 0 });
                }
            }
        }
        touches.sort_unstable_by_key(|touch| (touch.hash, touch.position));
        let mut collided = false;
        let mut start = 0;
        while start < touches.len() {
            let hash = touches[start].hash;
            let len = touches[start..].iter().position(|touch| touch.hash != hash);
            let end = len.map_or(touches.len(), |len| start + len);
            let run = &mut touches[start..end];
            if !run.iter().all(|touch| touch.same_pair(&run[0])) {
                collided = true;
                run.sort_by(|a, b| {
                    (a.relation(), a.key, a.position).cmp(&(b.relation(), b.key, b.position))
                });
            }
            start = end;
        }
        TouchedPairs { touches, collided }
    }

    /// The touches of each pair.
    fn runs(&self) -> impl Iterator<Item = &[Touch<'a>]> {
        let collided = self.collided;
        runs(&self.touches, move |a, b| a.hash == b.hash && (!collided || a.same_pair(b)))
    }

    /// Whether an update of `flat` conflicts with a touching update: each
    /// update of `flat` is found by binary search at the pair it touches
    /// first, and [`Update::conflict_kind_keyed`], with `flat`'s update as
    /// the receiver, decides it against every update touching that pair
    /// first. This is the question [`direct_conflicts`] asks of two
    /// flattenings that share no member.
    pub(crate) fn conflict_with(&self, flat: &FlatExtension) -> bool {
        !self.touches.is_empty()
            && first_keys(flat).any(|(update, key)| {
                let relation = update.relation.as_str();
                let hash = pair_hash(relation, key);
                let start = self.touches.partition_point(|touch| touch.hash < hash);
                self.touches[start..]
                    .iter()
                    .take_while(|touch| touch.hash == hash)
                    .filter(|touch| touch.first && touch.key == key && touch.relation() == relation)
                    .any(|touch| update.conflict_kind_keyed(touch.update).is_some())
            })
    }

    /// Every meeting of two flattenings at a pair they touch.
    fn meetings(&self) -> Vec<Meeting<'_>> {
        let mut found = Vec::new();
        for run in self.runs() {
            for (n, a) in run.iter().enumerate() {
                for b in run[n + 1..].iter().filter(|b| b.position != a.position) {
                    found.push(Meeting { pair: (a.position, b.position), at: (a, b) });
                }
            }
        }
        found
    }
}

/// Two flattenings touching one `(relation, key)` pair: their positions
/// `(i, j)`, `i < j`, and their touches there.
struct Meeting<'a> {
    pair: (usize, usize),
    at: (&'a Touch<'a>, &'a Touch<'a>),
}

/// The conflict-group keys of `meetings`, sorted and each once. Two updates
/// conflict only if they touch one pair first, and then
/// [`Update::conflict_kind_keyed`] decides it, so the meetings of two
/// flattenings carry every conflict between them.
fn conflict_keys(meetings: &[Meeting<'_>]) -> Vec<ConflictKey> {
    let mut keys = Vec::new();
    for (a, b) in meetings.iter().map(|meeting| meeting.at).filter(|(a, b)| a.first && b.first) {
        if let Some(kind) = a.update.conflict_kind_keyed(b.update) {
            keys.push(ConflictKey::new(kind, a.update.relation.clone(), a.key.clone()));
        }
    }
    keys.sort_unstable();
    keys.dedup();
    keys
}

/// Calls `each_key(relation, key, touching)` for every `(relation, key)`
/// pair that `flats` touch, with the positions of the flattenings touching
/// it, ascending and each once.
pub fn candidates_by_key(
    flats: &[Arc<FlatExtension>],
    mut each_key: impl FnMut(&str, &KeyValue, &[usize]),
) {
    let mut touching = Vec::new();
    for run in TouchedPairs::new(flats.iter().map(|flat| &**flat)).runs() {
        touching.clear();
        touching.extend(run.iter().map(|touch| touch.position));
        touching.dedup();
        each_key(run[0].relation(), run[0].key, &touching);
    }
}

/// Whether the extension whose member ids are `members` subsumes `other`'s:
/// it contains every member of it.
pub(crate) fn subsumes(members: &FxHashSet<TransactionId>, other: &CandidateTransaction) -> bool {
    other.members.iter().all(|(id, _)| members.contains(id))
}

/// `FindConflicts` (Figure 5): the pairwise direct conflicts among
/// `candidates`, whose flattened extensions are `flats` (in the same order).
/// Returns `(i, j, keys)` for every pair `i < j` that directly conflicts, with
/// the conflict-group keys it conflicts on (sorted), in ascending `(i, j)`
/// order; pairs where one candidate subsumes the other are skipped.
///
/// One sorted pass over every touched `(relation, key)` pair keeps the
/// common case near-linear (the paper's analysis assumes a hash table-based
/// conflict detection step): the pairs are sorted by hash, and only
/// candidates whose flattened extensions touch a common key are compared.
/// The same pass decides a pair that shares no extension member: its
/// conflicts are those of its updates at the keys they both touch first. A
/// pair that shares members gets the exact Definition 4 check: both
/// extensions are flattened again without the shared members. Member ids
/// are built only for candidates in a compared pair, each at most once.
///
/// Two candidates that share a member can conflict under Definition 4 while
/// their full flattenings touch no common key: a shared `a → b` that one
/// takes back to `a` and the other on to `c` flattens to nothing beside
/// `a → c`, but without the shared member it is `b → a` against `b → c`.
/// Such a pair is not compared.
///
/// The sorted pass, with the disjoint pairs it decides, runs in a
/// `pair_pass` child of `span`, and the pairs that share members in a
/// `shared_member_pairs` child.
pub fn direct_conflicts(
    candidates: &[CandidateTransaction],
    flats: &[Arc<FlatExtension>],
    schema: &Schema,
    span: &Span,
) -> Vec<(usize, usize, Vec<ConflictKey>)> {
    let pair_pass = span.child("pair_pass", &[("candidates", candidates.len() as u64)]);
    let touched = TouchedPairs::new(flats.iter().map(|flat| &**flat));
    let mut meetings = touched.meetings();
    let mut found = Vec::new();
    if meetings.is_empty() {
        return found;
    }
    meetings.sort_unstable_by_key(|meeting| meeting.pair);

    let member_ids: Vec<OnceCell<FxHashSet<TransactionId>>> =
        candidates.iter().map(|_| OnceCell::new()).collect();
    // A pair that shares members is decided after the pass, in its place in
    // `found`.
    let mut sharing = Vec::new();
    for pair in runs(&meetings, |a, b| a.pair == b.pair) {
        let (i, j) = pair[0].pair;
        let a = member_ids[i].get_or_init(|| candidates[i].member_ids());
        let b = member_ids[j].get_or_init(|| candidates[j].member_ids());
        // Figure 5's skip. Without it a subsuming pair still finds no
        // conflict (the subsumed side flattens to nothing without the shared
        // members), but only after the shared-member check flattens both
        // sides again. On `engine_trace` (2-core host, three runs each) the
        // skip holds `shared_member_pairs` at 2.7–2.8 ms against 3.3–3.4 ms
        // without it, and `pair_pass` plus `shared_member_pairs` at 7.2–7.6
        // ms against 7.6–7.8 ms, so it stays.
        if subsumes(a, &candidates[j]) || subsumes(b, &candidates[i]) {
            continue;
        }
        if a.iter().any(|id| b.contains(id)) {
            sharing.push(found.len());
            found.push((i, j, Vec::new()));
        } else {
            let keys = conflict_keys(pair);
            if !keys.is_empty() {
                found.push((i, j, keys));
            }
        }
    }
    drop(pair_pass);

    let _shared = span.child("shared_member_pairs", &[("pairs", sharing.len() as u64)]);
    for at in sharing {
        let (i, j, _) = found[at];
        let a = member_ids[i].get_or_init(|| candidates[i].member_ids());
        let b = member_ids[j].get_or_init(|| candidates[j].member_ids());
        let shared = |id: &TransactionId| a.contains(id) && b.contains(id);
        found[at].2 = candidates[i].conflict_keys_excluding(&candidates[j], shared, schema);
    }
    found.retain(|(_, _, keys)| !keys.is_empty());
    found
}

/// A trusted, undecided transaction together with its transaction extension,
/// as handed to the reconciliation engine by the update store.
///
/// `Debug` and equality are over the id, the priority and the members: the
/// flattening a candidate carries is derived from them (see
/// [`CandidateTransaction::flattening`]).
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
    /// building and cloning candidates never copies an update. Once the
    /// candidate is flattened, members are dropped only through
    /// [`CandidateTransaction::prune_accepted_members`], which flattens the
    /// changed chain again.
    pub members: Vec<(TransactionId, Arc<Vec<Update>>)>,
    /// The flattened extension, handed over by the update store or derived
    /// on first use; a clone made once it is filled shares it. A candidate
    /// has one owner at a time, so unlike the transaction's own flattening,
    /// which every participant reads, the slot takes no atomic operation.
    flattening: OnceCell<Arc<FlatExtension>>,
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
        CandidateTransaction { id, priority, members, flattening: OnceCell::new() }
    }

    /// Hands the candidate the flattening the update store derived once for
    /// every participant reconciling the same member list: for the root
    /// alone, the root transaction's own flattening (see
    /// [`orchestra_model::Transaction::own_flattening`]); for a chain, the
    /// store's memo entry for exactly these members. `flat` must be what
    /// [`Self::flattened`] computes for the members as they stand — the
    /// store keys its memo by the member list to guarantee it — and it is
    /// kept until [`Self::prune_accepted_members`] changes them.
    pub fn with_shared_flattening(mut self, flat: Option<&Arc<FlatExtension>>) -> Self {
        if let Some(flat) = flat {
            self.flattening = OnceCell::from(Arc::clone(flat));
        }
        self
    }

    /// The flattened update extension, derived at most once per member
    /// list: the store's flattening when the candidate carries one, else
    /// [`Self::flattened`] on the first call. A candidate deferred across
    /// reconciliations keeps it in the soft state, so `UpdateSoftState` and
    /// every later run that re-presents the unchanged chain read the same
    /// [`Arc`]. `schema` must be Σ, as for
    /// [`orchestra_model::Transaction::own_flattening`].
    pub fn flattening(&self, schema: &Schema) -> &Arc<FlatExtension> {
        self.flattening.get_or_init(|| Arc::new(self.flattened(schema)))
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
            // A changed chain is flattened again.
            self.flattening.take();
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use orchestra_model::schema::bioinformatics_schema;
    use orchestra_model::{ParticipantId, Tuple};
    use rustc_hash::FxHashMap;

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
        assert!(subsumes(&big.member_ids(), &small));
        assert!(!subsumes(&small.member_ids(), &big));
        assert!(subsumes(&big.member_ids(), &big.clone()));
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
        let flats: Vec<_> = candidates.iter().map(|c| Arc::clone(c.flattening(&schema))).collect();
        assert_eq!(
            direct_conflicts(&candidates, &flats, &schema, &Span::default()),
            vec![(0, 1, keys)]
        );
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
        let mut seen = FxHashMap::default();
        candidates_by_key(&flats, |relation, key, touching| {
            let previous = seen.insert((relation.to_string(), key.clone()), touching.to_vec());
            assert!(previous.is_none(), "{relation} {key} is visited once");
        });
        let touching = |protein: &str| {
            let key = KeyValue::of_text(&["rat", protein]);
            seen[&("Function".to_string(), key)].clone()
        };
        assert_eq!(seen.len(), 3);
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
                    candidates.iter().map(|cand| Arc::clone(cand.flattening(&schema))).collect();
                let found: Vec<(usize, usize, Vec<ConflictKey>)> =
                    direct_conflicts(&candidates, &flats, &schema, &Span::default());
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

        /// `direct_conflicts` by brute force: every pair `i < j` whose
        /// flattenings share a touched `(relation, key)`, where neither
        /// extension subsumes the other, with the keys on which
        /// `conflict_kind_with` finds a conflict between any update of one
        /// side and any of the other (each side flattened without the
        /// members both share), sorted.
        fn all_pairs(
            candidates: &[CandidateTransaction],
            flats: &[Arc<FlatExtension>],
        ) -> Vec<(usize, usize, Vec<ConflictKey>)> {
            let schema = bioinformatics_schema();
            let touched = |flat: &FlatExtension| -> BTreeSet<(String, KeyValue)> {
                flat.touched()
                    .map(|(relation, key, _)| (relation.to_string(), key.clone()))
                    .collect()
            };
            let mut found = Vec::new();
            for j in 0..candidates.len() {
                for i in 0..j {
                    if touched(&flats[i]).is_disjoint(&touched(&flats[j])) {
                        continue;
                    }
                    let (a, b) = (candidates[i].member_ids(), candidates[j].member_ids());
                    if a.is_subset(&b) || b.is_subset(&a) {
                        continue;
                    }
                    let shared = |id: &TransactionId| a.contains(id) && b.contains(id);
                    let left = candidates[i].flattened_excluding(&schema, shared);
                    let right = candidates[j].flattened_excluding(&schema, shared);
                    let mut keys: Vec<ConflictKey> = left
                        .updates()
                        .iter()
                        .flat_map(|u| right.updates().iter().map(move |o| (u, o)))
                        .filter_map(|(u, o)| {
                            let (kind, key) = u.conflict_kind_with(o, &schema)?;
                            Some(ConflictKey::new(kind, u.relation.clone(), key))
                        })
                        .collect();
                    keys.sort();
                    keys.dedup();
                    if !keys.is_empty() {
                        found.push((i, j, keys));
                    }
                }
            }
            found.sort_by_key(|(i, j, _)| (*i, *j));
            found
        }

        /// Candidates of `txns`: transaction `root` is one when its pick is
        /// not 0, with the earlier transactions its mask names as its
        /// extension.
        fn candidates_of(txns: &[Transaction], picks: &[(u8, u16)]) -> Vec<CandidateTransaction> {
            picks
                .iter()
                .enumerate()
                .filter(|(_, (pick, _))| *pick > 0)
                .map(|(root, (_, mask))| {
                    let antecedents = (0..root).filter(|a| mask & (1 << a) != 0);
                    let antecedents = antecedents.map(|a| txns[a].clone()).collect();
                    CandidateTransaction::new(&txns[root], Priority(1), antecedents)
                })
                .collect()
        }

        /// Twelve one-update transactions on three keys: runs of three or
        /// more candidates at one key, and key-changing modifies, make every
        /// case of the sorted pass occur (`the_sorted_pass_meets_runs_and_keys_touched_twice`).
        fn small_universe() -> impl Strategy<Value = (Vec<Vec<Spec>>, Vec<(u8, u16)>)> {
            let pool = prop::collection::vec(prop::collection::vec(spec(), 1..3), 12);
            (pool, prop::collection::vec((0u8..3, 0u16..4096), 12))
        }

        fn transactions(pool: Vec<Vec<Spec>>) -> Vec<Transaction> {
            let each = |(i, specs): (usize, Vec<Spec>)| {
                let origin = p(i as u32 + 1);
                txn(origin.0, 0, specs.into_iter().map(|s| update(s, origin)).collect())
            };
            pool.into_iter().enumerate().map(each).collect()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// The sorted pass finds exactly the pairs, and the keys, of a
            /// brute-force scan over all pairs.
            #[test]
            fn direct_conflicts_is_the_all_pairs_scan(case in small_universe()) {
                let (pool, picks) = case;
                let schema = bioinformatics_schema();
                let candidates = candidates_of(&transactions(pool), &picks);
                let flats: Vec<Arc<FlatExtension>> =
                    candidates.iter().map(|cand| Arc::clone(cand.flattening(&schema))).collect();
                prop_assert_eq!(direct_conflicts(&candidates, &flats, &schema, &Span::default()), all_pairs(&candidates, &flats));
            }
        }

        /// The cases the all-pairs proptest relies on: three candidates
        /// touching one key, one of them touching it twice (a deletion of
        /// `k1` and a move from `k0` onto `k1`), and a pair that meets only
        /// at a key one side touches first and the other second.
        #[test]
        fn the_sorted_pass_meets_runs_and_keys_touched_twice() {
            let schema = bioinformatics_schema();
            let txns = transactions(vec![
                vec![(1, 1, 0, (0, 0)), (3, 0, 0, (1, 1))],
                vec![(0, 1, 2, (0, 0))],
                vec![(2, 1, 0, (1, 2))],
                vec![(3, 2, 0, (1, 0))],
            ]);
            let candidates = candidates_of(&txns, &[(1, 0); 4]);
            let flats: Vec<Arc<FlatExtension>> =
                candidates.iter().map(|cand| Arc::clone(cand.flattening(&schema))).collect();
            let k1 = KeyValue::of_text(&["rat", "k1"]);
            let twice = flats[0].touched().filter(|(_, key, _)| **key == k1).count();
            assert_eq!(twice, 2, "{:?}", flats[0]);
            let mut touching = Vec::new();
            candidates_by_key(&flats, |_, key, positions| {
                if *key == k1 {
                    touching = positions.to_vec();
                }
            });
            assert_eq!(touching, vec![0, 1, 2, 3]);
            // The deletion of `k1` meets the insertion and the in-place
            // modify there; the move onto `k1` meets everyone only second.
            let found = direct_conflicts(&candidates, &flats, &schema, &Span::default());
            assert_eq!(found, all_pairs(&candidates, &flats));
            let pairs: Vec<(usize, usize)> = found.iter().map(|(i, j, _)| (*i, *j)).collect();
            assert_eq!(pairs, vec![(0, 1), (0, 2)]);
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
                candidates.iter().map(|cand| Arc::clone(cand.flattening(&schema))).collect();
            assert_eq!(
                direct_conflicts(&candidates, &flats, &schema, &Span::default()),
                vec![(0, 1, keys)]
            );
        }
    }
}
