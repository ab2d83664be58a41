//! Net-effect ("flattening") computation over update sequences.
//!
//! Section 4.2 of the paper relies on a `flatten(s)` function that takes an
//! ordered sequence of updates and produces a set of mutually independent
//! updates with all dependency chains removed, in the style of Heraclitus
//! deltas: if a transaction chain inserts a tuple and then modifies it, the
//! flattened form is a single insertion of the final value; if it inserts and
//! then deletes, the net effect is empty; and so on.
//!
//! Flattening is what implements the paper's *least interaction* principle —
//! intermediate states of a tuple are disregarded, only final states are
//! compared for conflicts.

use crate::ids::ParticipantId;
use crate::intern::RelName;
use crate::schema::{RelationSchema, Schema};
use crate::tuple::{KeyValue, Tuple};
use crate::update::{Update, UpdateOp};
use rustc_hash::{FxHashMap, FxHashSet};
use std::sync::Arc;

/// A set of mutually independent updates together with the keys each one
/// touches, as [`flatten_keyed`] produces them.
///
/// The keys are derived once, while flattening, and every later step that
/// needs one — the conflict indexes, the dirty-value probe, the instance's
/// compatibility check and its apply — borrows it from here.
///
/// The keys are held without spare capacity: a published transaction keeps
/// one of these as long as it lives (see
/// [`crate::Transaction::own_flattening`]).
#[derive(Debug, Clone)]
pub struct NetUpdates {
    /// Shared: when nothing had to be rewritten this is the flattened
    /// transaction's own update list.
    updates: Arc<Vec<Update>>,
    /// The touched keys of every update, update after update.
    keys: Box<[KeyValue]>,
    /// `ends[i]` is where update `i`'s keys end in `keys` (and update
    /// `i + 1`'s begin); none when every update touches exactly one key.
    ends: Option<Box<[usize]>>,
}

impl NetUpdates {
    /// Files each update's touched keys (in the updates' order) behind it.
    fn new(
        updates: Arc<Vec<Update>>,
        touched: impl IntoIterator<Item = Option<TouchedKeys>>,
    ) -> Self {
        let mut keys = Vec::with_capacity(updates.len());
        let mut ends = Vec::with_capacity(updates.len());
        for touched in touched {
            if let Some((first, second)) = touched {
                keys.push(first);
                keys.extend(second);
            }
            ends.push(keys.len());
        }
        let one_each = ends.iter().enumerate().all(|(i, &end)| end == i + 1);
        let ends = (!one_each).then(|| ends.into_boxed_slice());
        NetUpdates { updates, keys: keys.into_boxed_slice(), ends }
    }

    /// The net updates, in an order they apply in (see [`flatten`]).
    pub fn updates(&self) -> &[Update] {
        &self.updates
    }

    /// Whether the net updates are `updates` itself, shared rather than
    /// rebuilt (see [`flatten_keyed`]).
    pub fn shares(&self, updates: &Arc<Vec<Update>>) -> bool {
        Arc::ptr_eq(&self.updates, updates)
    }

    /// Every update with the keys it touches: the key of the tuple it reads
    /// (or, for an insertion, writes) first, then the key of the tuple it
    /// writes when a modification changes it. An update over a relation the
    /// schema does not declare touches no key.
    pub fn iter(&self) -> impl Iterator<Item = (&Update, &[KeyValue])> {
        let mut start = 0;
        self.updates.iter().enumerate().map(move |(i, update)| {
            let end = self.ends.as_ref().map_or(i + 1, |ends| ends[i]);
            let keys = &self.keys[start..end];
            start = end;
            (update, keys)
        })
    }

    /// How many `(relation, key)` pairs [`NetUpdates::touched`] yields.
    pub fn touched_len(&self) -> usize {
        self.keys.len()
    }

    /// Every `(relation, key)` pair read or written, with the update that
    /// touches it. A pair touched by two updates appears twice.
    pub fn touched(&self) -> impl Iterator<Item = (&str, &KeyValue, &Update)> {
        self.iter().flat_map(|(update, keys)| {
            keys.iter().map(move |key| (update.relation.as_str(), key, update))
        })
    }
}

/// The keys one update touches, in [`NetUpdates::iter`]'s order: the key of
/// the tuple it reads (or inserts), and the key it writes if that is another.
type TouchedKeys = (KeyValue, Option<KeyValue>);

/// The keys `update` touches; none if the schema does not declare its
/// relation.
fn touched_keys(schema: &Schema, update: &Update) -> Option<TouchedKeys> {
    let rel = schema.relation(&update.relation).ok()?;
    Some(match &update.op {
        UpdateOp::Insert(t) | UpdateOp::Delete(t) => (rel.key_of(t), None),
        UpdateOp::Modify { from, to } => {
            (rel.key_of(from), (!rel.same_key(from, to)).then(|| rel.key_of(to)))
        }
    })
}

/// Flattens an ordered sequence of updates into a set of mutually independent
/// updates with intermediate steps removed.
///
/// Chaining rules (per relation, per key; a modification that changes key
/// attributes migrates the chain to the new key):
///
/// | existing net effect | next update       | new net effect            |
/// |---------------------|-------------------|----------------------------|
/// | —                   | insert t          | insert t                   |
/// | —                   | delete t          | delete t                   |
/// | —                   | modify a→b        | modify a→b                 |
/// | insert a            | modify a→b        | insert b                   |
/// | insert a            | delete a          | (nothing)                  |
/// | modify a→b          | modify b→c        | modify a→c (or nothing if a = c) |
/// | modify a→b          | delete b          | delete a                   |
/// | delete a            | insert b (same key) | modify a→b (or nothing if a = b) |
///
/// The last rule holds however the two meet under `a`'s key: `b` may be
/// inserted elsewhere and moved there, and `a` may be moved away, replaced,
/// and deleted afterwards. A tuple moved under a key whose tuple another
/// chain deleted or moved away stays an update of its own; the two touch
/// that key, and the one that vacates it comes first in the result. Otherwise
/// the net updates are in the order their chains began.
///
/// The provenance (`origin`) of each resulting update is taken from the last
/// update contributing to the chain, matching the paper's treatment of the
/// final state as the one that matters.
///
/// Updates over relations unknown to the schema are passed through untouched;
/// flattening never drops information it cannot interpret.
///
/// The input is any sequence of borrowed updates — a slice, or a chain over
/// several shared update lists — so callers never copy a footprint together
/// just to flatten it.
pub fn flatten<'a>(schema: &Schema, updates: impl IntoIterator<Item = &'a Update>) -> Vec<Update> {
    flatten_chains(schema, updates).into_iter().map(|(update, _)| update).collect()
}

/// [`flatten`] over the update lists of a transaction extension's members, in
/// publication order, returning the net updates with the keys they touch.
///
/// When the extension is a single transaction whose updates touch pairwise
/// distinct keys, no chain forms and the net updates *are* the transaction's
/// updates: its list is shared, not rebuilt. That test is made here, on what
/// the input is, so no caller chooses between the two routes. A caller
/// holding the one member as a [`crate::Transaction`] asks it instead
/// ([`crate::Transaction::own_flattening`]): the transaction derives that
/// flattening once and shares it with every holder, so reconciling or
/// replaying it alone keys it once for the whole confederation.
pub fn flatten_keyed<'a>(
    schema: &Schema,
    members: impl IntoIterator<Item = &'a Arc<Vec<Update>>>,
) -> NetUpdates {
    let mut members = members.into_iter();
    let (first, second) = (members.next(), members.next());
    if let (Some(only), None) = (first, second) {
        if let Some(net) = flatten_own(schema, only) {
            return net;
        }
    }
    let members = first.into_iter().chain(second).chain(members);
    let (updates, touched): (Vec<_>, Vec<_>) =
        flatten_chains(schema, members.flat_map(|updates| updates.iter())).into_iter().unzip();
    NetUpdates::new(Arc::new(updates), touched)
}

/// `updates` as their own flattening — what [`flatten_keyed`] returns for
/// that one list when it shares it — or none when it would rebuild it.
///
/// That is when every `(relation, key)` pair the updates touch is touched
/// once: each update then starts a chain nothing continues, and the chaining
/// rules would emit it unchanged and in place. A transaction that touches a
/// key twice has none.
pub fn flatten_own(schema: &Schema, updates: &Arc<Vec<Update>>) -> Option<NetUpdates> {
    let touched = updates.iter().map(|u| touched_keys(schema, u));
    let net = NetUpdates::new(Arc::clone(updates), touched);
    let distinct = net.keys.len() < 2 || {
        let mut seen = FxHashSet::with_capacity_and_hasher(net.keys.len(), Default::default());
        net.touched().all(|(relation, key, _)| seen.insert((relation, key)))
    };
    distinct.then_some(net)
}

/// One tuple's life over the sequence: what the state held when the sequence
/// began (`pre`; none for a tuple the sequence inserted) and what it holds at
/// the end (`post`; none for a tuple the sequence deleted), each with its key.
/// Neither: the chain has no net effect.
struct Chain {
    pre: Option<(KeyValue, Tuple)>,
    post: Option<(KeyValue, Tuple)>,
    /// Origin of the last contribution.
    origin: ParticipantId,
    /// Sequence number of the first contribution.
    first: usize,
}

impl Chain {
    /// Sets the tuple the chain ends in; false if that is the tuple it began
    /// with (a→…→a), which leaves the chain no net effect.
    fn end_in(&mut self, key: KeyValue, tuple: &Tuple, origin: ParticipantId) -> bool {
        self.origin = origin;
        if self.pre.as_ref().is_some_and(|(_, pre)| pre == tuple) {
            (self.pre, self.post) = (None, None);
            return false;
        }
        self.post = Some((key, tuple.clone()));
        true
    }
}

/// The chains of one relation.
struct Chains<'s> {
    rel: &'s RelationSchema,
    all: Vec<Chain>,
    /// The chain whose tuple lives under a key now.
    live: FxHashMap<KeyValue, usize>,
    /// The chain that ended in the deletion of what the state held under a
    /// key.
    gone: FxHashMap<KeyValue, usize>,
}

impl<'s> Chains<'s> {
    fn new(rel: &'s RelationSchema) -> Self {
        Chains { rel, all: Vec::new(), live: FxHashMap::default(), gone: FxHashMap::default() }
    }

    fn begin(
        &mut self,
        pre: Option<(KeyValue, Tuple)>,
        origin: ParticipantId,
        seq: usize,
    ) -> usize {
        self.all.push(Chain { pre, post: None, origin, first: seq });
        self.all.len() - 1
    }

    /// Chain `idx`'s tuple comes to live under `key` as `tuple`.
    fn arrive(&mut self, mut idx: usize, key: KeyValue, tuple: &Tuple, origin: ParticipantId) {
        if self.all[idx].pre.is_none() {
            if let Some(deleted) = self.gone.remove(&key) {
                // delete a; insert b under a's key => modify a→b, whether b
                // was inserted there or moved there.
                self.all[idx].post = None;
                idx = deleted;
            }
        }
        if self.all[idx].end_in(key.clone(), tuple, origin) {
            self.live.insert(key, idx);
        }
    }

    /// Chain `idx`'s tuple, no longer live, is deleted.
    fn depart(&mut self, idx: usize, origin: ParticipantId) {
        self.all[idx].origin = origin;
        self.all[idx].post = None;
        // insert a; delete a => nothing
        let Some((key, pre)) = self.all[idx].pre.clone() else { return };
        match self.live.get(&key) {
            // A tuple inserted under the key this one left before it was
            // deleted replaces it: modify a→b (or nothing if a = b).
            Some(&inserted) if self.all[inserted].pre.is_none() => {
                let post = self.all[inserted].post.take();
                if post.as_ref().is_some_and(|(_, post)| *post == pre) {
                    self.all[idx].pre = None;
                    self.live.remove(&key);
                } else {
                    self.all[idx].post = post;
                    self.live.insert(key, idx);
                }
            }
            _ => {
                self.gone.entry(key).or_insert(idx);
            }
        }
    }

    /// Takes one update into the chains; false if it continues no chain and
    /// can begin none (it is not well formed after what came before it).
    fn take(&mut self, seq: usize, u: &Update) -> bool {
        match &u.op {
            UpdateOp::Insert(t) => {
                let key = self.rel.key_of(t);
                if self.live.contains_key(&key) {
                    // Inserting over an insert/modify of the same key: keep
                    // the chain and record the insert separately, so no
                    // information is lost.
                    return false;
                }
                let idx = self.begin(None, u.origin, seq);
                self.arrive(idx, key, t, u.origin);
            }
            UpdateOp::Delete(t) => {
                let key = self.rel.key_of(t);
                match self.live.remove(&key) {
                    Some(idx) => self.depart(idx, u.origin),
                    // Double delete of the same key: keep the first.
                    None if self.gone.contains_key(&key) => {}
                    None => {
                        let idx = self.begin(Some((key, t.clone())), u.origin, seq);
                        self.depart(idx, u.origin);
                    }
                }
            }
            UpdateOp::Modify { from, to } => {
                let from_key = self.rel.key_of(from);
                let stays = self.rel.same_key(from, to);
                match self.live.get(&from_key) {
                    // In place: the chain keeps its key and its index entry.
                    Some(&idx) if stays => {
                        let (key, _) = self.all[idx].post.take().expect("a live chain has a tuple");
                        if !self.all[idx].end_in(key, to, u.origin) {
                            self.live.remove(&from_key);
                        }
                    }
                    Some(&idx) => {
                        self.live.remove(&from_key);
                        self.arrive(idx, self.rel.key_of(to), to, u.origin);
                    }
                    // delete a; modify a→b: keep the delete and pass the
                    // modify through.
                    None if self.gone.contains_key(&from_key) => return false,
                    None => {
                        let to_key = if stays { from_key.clone() } else { self.rel.key_of(to) };
                        let idx = self.begin(Some((from_key, from.clone())), u.origin, seq);
                        self.all[idx].post = Some((to_key.clone(), to.clone()));
                        self.live.insert(to_key, idx);
                    }
                }
            }
        }
        true
    }
}

/// A net update with the sequence number its chain began at and the keys it
/// touches (none under an unknown relation).
type Net = (usize, Update, Option<TouchedKeys>);

/// The chaining rules of [`flatten`]: every net update with the keys it
/// touches — the keys its chain began and ended under are handed on, not
/// derived again.
fn flatten_chains<'a>(
    schema: &Schema,
    updates: impl IntoIterator<Item = &'a Update>,
) -> Vec<(Update, Option<TouchedKeys>)> {
    let mut chains: FxHashMap<RelName, Chains<'_>> = FxHashMap::default();
    // Updates passed through as they are: (sequence number, update).
    let mut passthrough: Vec<(usize, &Update)> = Vec::new();
    for (seq, u) in updates.into_iter().enumerate() {
        let taken = schema.relation(&u.relation).is_ok_and(|rel| {
            chains.entry(u.relation.clone()).or_insert_with(|| Chains::new(rel)).take(seq, u)
        });
        if !taken {
            passthrough.push((seq, u));
        }
    }

    let mut out: Vec<Net> =
        passthrough.into_iter().map(|(seq, u)| (seq, u.clone(), touched_keys(schema, u))).collect();
    for (relation, per_rel) in chains {
        for Chain { pre, post, origin, first } in per_rel.all {
            let (update, touched) = match (pre, post) {
                (None, None) => continue,
                (None, Some((key, t))) => {
                    (Update::insert(relation.clone(), t, origin), (key, None))
                }
                (Some((key, t)), None) => {
                    (Update::delete(relation.clone(), t, origin), (key, None))
                }
                (Some((from_key, from)), Some((to_key, to))) => {
                    let moved = (from_key != to_key).then_some(to_key);
                    (Update::modify(relation.clone(), from, to, origin), (from_key, moved))
                }
            };
            out.push((first, update, Some(touched)));
        }
    }
    out.sort_by_key(|(seq, ..)| *seq);
    vacate_before_filling(out).into_iter().map(|(_, update, touched)| (update, touched)).collect()
}

/// Puts every update that places a tuple under a key behind the update that
/// takes away what the state holds there, keeping the order otherwise.
///
/// Only a modification that changes the key can fill a key another update
/// vacates (a deletion and an insertion under one key are one chain), so a
/// flattening without one is in order already. Tuples that swap keys need
/// each other to go first; they are left as they stand.
fn vacate_before_filling(nets: Vec<Net>) -> Vec<Net> {
    let moves = |(_, _, touched): &Net| matches!(touched, Some((_, Some(_))));
    if !nets.iter().any(moves) {
        return nets;
    }
    // The key each update vacates and the key it fills, if any.
    fn ends((_, update, touched): &Net) -> Option<(Option<&KeyValue>, Option<&KeyValue>)> {
        let (first, second) = touched.as_ref()?;
        Some(match (&update.op, second) {
            (UpdateOp::Insert(_), _) => (None, Some(first)),
            (UpdateOp::Delete(_), _) => (Some(first), None),
            (UpdateOp::Modify { .. }, Some(second)) => (Some(first), Some(second)),
            (UpdateOp::Modify { .. }, None) => (None, None),
        })
    }
    let mut vacated_by: FxHashMap<(&str, &KeyValue), usize> = FxHashMap::default();
    for (i, net) in nets.iter().enumerate() {
        if let Some((Some(key), _)) = ends(net) {
            vacated_by.entry((net.1.relation.as_str(), key)).or_insert(i);
        }
    }
    let mut order = Vec::with_capacity(nets.len());
    let mut placed = vec![false; nets.len()];
    for i in 0..nets.len() {
        // Whoever vacates the key `i` fills goes first, and so on back.
        let mut waiting = Vec::new();
        let mut next = Some(i);
        while let Some(j) = next.filter(|j| !placed[*j] && !waiting.contains(j)) {
            waiting.push(j);
            next = ends(&nets[j])
                .and_then(|(_, fills)| vacated_by.get(&(nets[j].1.relation.as_str(), fills?)))
                .copied();
        }
        for j in waiting.into_iter().rev() {
            placed[j] = true;
            order.push(j);
        }
    }
    let mut nets: Vec<Option<Net>> = nets.into_iter().map(Some).collect();
    order.into_iter().filter_map(|i| nets[i].take()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ParticipantId;
    use crate::schema::bioinformatics_schema;
    use crate::update::UpdateKind;

    fn p(i: u32) -> ParticipantId {
        ParticipantId(i)
    }

    fn func(org: &str, prot: &str, f: &str) -> Tuple {
        Tuple::of_text(&[org, prot, f])
    }

    #[test]
    fn insert_then_modify_becomes_single_insert() {
        // The paper's X3:0, X3:1 chain from Figure 2.
        let schema = bioinformatics_schema();
        let updates = vec![
            Update::insert("Function", func("rat", "prot1", "cell-metab"), p(3)),
            Update::modify(
                "Function",
                func("rat", "prot1", "cell-metab"),
                func("rat", "prot1", "immune"),
                p(3),
            ),
        ];
        let flat = flatten(&schema, &updates);
        assert_eq!(flat.len(), 1);
        assert_eq!(flat[0].kind(), UpdateKind::Insert);
        assert_eq!(flat[0].written_tuple().unwrap(), &func("rat", "prot1", "immune"));
    }

    #[test]
    fn insert_then_modify_to_new_key_becomes_insert_of_new_key() {
        // The paper's X3:2, X3:3 example in Section 4.2: +(mouse, prot2,
        // cell-resp) then (mouse, prot2, cell-resp) -> (mouse, prot3,
        // cell-resp) minimizes to +(mouse, prot3, cell-resp).
        let schema = bioinformatics_schema();
        let updates = vec![
            Update::insert("Function", func("mouse", "prot2", "cell-resp"), p(3)),
            Update::modify(
                "Function",
                func("mouse", "prot2", "cell-resp"),
                func("mouse", "prot3", "cell-resp"),
                p(3),
            ),
        ];
        let flat = flatten(&schema, &updates);
        assert_eq!(flat.len(), 1);
        assert_eq!(flat[0].kind(), UpdateKind::Insert);
        assert_eq!(flat[0].written_tuple().unwrap(), &func("mouse", "prot3", "cell-resp"));
    }

    #[test]
    fn insert_then_delete_cancels() {
        let schema = bioinformatics_schema();
        let updates = vec![
            Update::insert("Function", func("rat", "prot1", "immune"), p(1)),
            Update::delete("Function", func("rat", "prot1", "immune"), p(1)),
        ];
        assert!(flatten(&schema, &updates).is_empty());
    }

    #[test]
    fn modify_chain_composes() {
        let schema = bioinformatics_schema();
        let updates = vec![
            Update::modify("Function", func("rat", "prot1", "a"), func("rat", "prot1", "b"), p(1)),
            Update::modify("Function", func("rat", "prot1", "b"), func("rat", "prot1", "c"), p(2)),
        ];
        let flat = flatten(&schema, &updates);
        assert_eq!(flat.len(), 1);
        assert_eq!(flat[0].read_tuple().unwrap(), &func("rat", "prot1", "a"));
        assert_eq!(flat[0].written_tuple().unwrap(), &func("rat", "prot1", "c"));
        assert_eq!(flat[0].origin, p(2));
    }

    #[test]
    fn modify_back_to_original_cancels() {
        let schema = bioinformatics_schema();
        let updates = vec![
            Update::modify("Function", func("rat", "prot1", "a"), func("rat", "prot1", "b"), p(1)),
            Update::modify("Function", func("rat", "prot1", "b"), func("rat", "prot1", "a"), p(1)),
        ];
        assert!(flatten(&schema, &updates).is_empty());
    }

    #[test]
    fn modify_then_delete_becomes_delete_of_original() {
        let schema = bioinformatics_schema();
        let updates = vec![
            Update::modify("Function", func("rat", "prot1", "a"), func("rat", "prot1", "b"), p(1)),
            Update::delete("Function", func("rat", "prot1", "b"), p(1)),
        ];
        let flat = flatten(&schema, &updates);
        assert_eq!(flat.len(), 1);
        assert_eq!(flat[0].kind(), UpdateKind::Delete);
        assert_eq!(flat[0].read_tuple().unwrap(), &func("rat", "prot1", "a"));
    }

    #[test]
    fn delete_then_insert_becomes_modify() {
        let schema = bioinformatics_schema();
        let updates = vec![
            Update::delete("Function", func("rat", "prot1", "a"), p(1)),
            Update::insert("Function", func("rat", "prot1", "b"), p(1)),
        ];
        let flat = flatten(&schema, &updates);
        assert_eq!(flat.len(), 1);
        assert_eq!(flat[0].kind(), UpdateKind::Modify);
        assert_eq!(flat[0].read_tuple().unwrap(), &func("rat", "prot1", "a"));
        assert_eq!(flat[0].written_tuple().unwrap(), &func("rat", "prot1", "b"));
    }

    #[test]
    fn delete_then_reinsert_same_value_cancels() {
        let schema = bioinformatics_schema();
        let updates = vec![
            Update::delete("Function", func("rat", "prot1", "a"), p(1)),
            Update::insert("Function", func("rat", "prot1", "a"), p(1)),
        ];
        assert!(flatten(&schema, &updates).is_empty());
    }

    #[test]
    fn independent_keys_are_preserved_in_order() {
        let schema = bioinformatics_schema();
        let updates = vec![
            Update::insert("Function", func("rat", "prot1", "a"), p(1)),
            Update::insert("Function", func("mouse", "prot2", "b"), p(1)),
            Update::insert("XRef", Tuple::of_text(&["rat", "prot1", "db", "acc"]), p(1)),
        ];
        let flat = flatten(&schema, &updates);
        assert_eq!(flat.len(), 3);
        assert_eq!(flat[0].written_tuple().unwrap(), &func("rat", "prot1", "a"));
        assert_eq!(flat[1].written_tuple().unwrap(), &func("mouse", "prot2", "b"));
        assert_eq!(flat[2].relation, "XRef");
    }

    #[test]
    fn unknown_relations_pass_through() {
        let schema = bioinformatics_schema();
        let updates = vec![Update::insert("Mystery", Tuple::of_text(&["x"]), p(1))];
        let flat = flatten(&schema, &updates);
        assert_eq!(flat, updates);
    }

    #[test]
    fn one_transaction_on_distinct_keys_is_its_own_flattening() {
        let schema = bioinformatics_schema();
        let own = Arc::new(vec![
            Update::insert("Function", func("rat", "prot1", "a"), p(1)),
            Update::modify(
                "Function",
                func("mouse", "prot2", "x"),
                func("mouse", "prot3", "x"),
                p(1),
            ),
            Update::insert("Mystery", Tuple::of_text(&["x"]), p(1)),
            Update::insert("XRef", Tuple::of_text(&["rat", "prot1", "db", "acc"]), p(1)),
        ]);
        let net = flatten_keyed(&schema, [&own]);
        assert!(Arc::ptr_eq(&net.updates, &own), "the list is shared, not rebuilt");
        let keys: Vec<Vec<String>> =
            net.iter().map(|(_, keys)| keys.iter().map(|k| k.to_string()).collect()).collect();
        assert_eq!(
            keys,
            vec![
                vec!["[rat, prot1]".to_owned()],
                // The key read, then the key written.
                vec!["[mouse, prot2]".to_owned(), "[mouse, prot3]".to_owned()],
                vec![],
                vec!["[rat, prot1, db, acc]".to_owned()],
            ]
        );
        assert_eq!(net.touched().count(), 4);

        // The same key twice — a chain — or a second member: rebuilt.
        let chained = Arc::new(vec![
            Update::insert("Function", func("rat", "prot1", "a"), p(1)),
            Update::modify("Function", func("rat", "prot1", "a"), func("rat", "prot1", "b"), p(1)),
        ]);
        let net = flatten_keyed(&schema, [&chained]);
        assert!(!Arc::ptr_eq(&net.updates, &chained));
        assert_eq!(net.updates(), flatten(&schema, chained.iter()));
        let net = flatten_keyed(&schema, [&own, &chained]);
        assert_eq!(net.updates(), flatten(&schema, own.iter().chain(chained.iter())));
    }

    #[test]
    fn a_deletion_and_an_insertion_under_one_key_are_one_replacement_however_they_meet() {
        // a(k1) -> b(k2), delete b, and c inserted under k1 before or after
        // that deletion: `a` is replaced by `c`, one update on k1.
        let schema = bioinformatics_schema();
        let moved =
            Update::modify("Function", func("rat", "prot1", "a"), func("rat", "prot2", "b"), p(1));
        let deleted = Update::delete("Function", func("rat", "prot2", "b"), p(1));
        let inserted = |f| Update::insert("Function", func("rat", "prot1", f), p(1));
        for updates in [
            vec![moved.clone(), deleted.clone(), inserted("c")],
            vec![moved.clone(), inserted("c"), deleted.clone()],
        ] {
            let net = flatten_keyed(&schema, [&Arc::new(updates)]);
            let replaced = Update::modify(
                "Function",
                func("rat", "prot1", "a"),
                func("rat", "prot1", "c"),
                p(1),
            );
            assert_eq!(net.updates(), [replaced]);
            let keys: Vec<&[KeyValue]> = net.iter().map(|(_, keys)| keys).collect();
            assert_eq!(keys, [[KeyValue::of_text(&["rat", "prot1"])]]);
        }
        // Replaced by itself: nothing.
        assert!(flatten(&schema, &[moved.clone(), inserted("a"), deleted.clone()]).is_empty());
        assert!(flatten(&schema, &[moved, deleted, inserted("a")]).is_empty());

        // d inserted under k3 and moved under k1, which `a` was deleted from.
        let updates = [
            Update::insert("Function", func("rat", "prot3", "d"), p(1)),
            Update::delete("Function", func("rat", "prot1", "a"), p(2)),
            Update::modify("Function", func("rat", "prot3", "d"), func("rat", "prot1", "d"), p(3)),
        ];
        assert_eq!(
            flatten(&schema, &updates),
            [Update::modify(
                "Function",
                func("rat", "prot1", "a"),
                func("rat", "prot1", "d"),
                p(3)
            )]
        );
    }

    #[test]
    fn a_tuple_moved_under_a_vacated_key_follows_the_update_that_vacates_it() {
        let schema = bioinformatics_schema();
        // y's chain begins first, but y can only move under k1 once `a` has
        // left it; x is deleted from k2 after `a`'s chain began, but before
        // `a` can move there.
        let updates = [
            Update::modify("Function", func("rat", "prot3", "y"), func("rat", "prot3", "z"), p(1)),
            Update::modify("Function", func("rat", "prot1", "a"), func("rat", "prot1", "b"), p(1)),
            Update::delete("Function", func("rat", "prot2", "x"), p(1)),
            Update::modify("Function", func("rat", "prot1", "b"), func("rat", "prot2", "b"), p(1)),
            Update::modify("Function", func("rat", "prot3", "z"), func("rat", "prot1", "z"), p(1)),
        ];
        let net = flatten_keyed(&schema, [&Arc::new(updates.to_vec())]);
        assert_eq!(
            net.updates(),
            [
                Update::delete("Function", func("rat", "prot2", "x"), p(1)),
                Update::modify(
                    "Function",
                    func("rat", "prot1", "a"),
                    func("rat", "prot2", "b"),
                    p(1)
                ),
                Update::modify(
                    "Function",
                    func("rat", "prot3", "y"),
                    func("rat", "prot1", "z"),
                    p(1)
                ),
            ]
        );
        let key = |protein| KeyValue::of_text(&["rat", protein]);
        let keys: Vec<&[KeyValue]> = net.iter().map(|(_, keys)| keys).collect();
        assert_eq!(keys[0], [key("prot2")]);
        assert_eq!(keys[1], [key("prot1"), key("prot2")]);
        assert_eq!(keys[2], [key("prot3"), key("prot1")]);
    }

    #[test]
    fn flattening_is_idempotent() {
        let schema = bioinformatics_schema();
        let updates = vec![
            Update::insert("Function", func("rat", "prot1", "a"), p(1)),
            Update::modify("Function", func("rat", "prot1", "a"), func("rat", "prot1", "b"), p(1)),
            Update::insert("Function", func("mouse", "prot2", "x"), p(1)),
            Update::delete("Function", func("mouse", "prot2", "x"), p(1)),
            Update::delete("Function", func("dog", "prot9", "z"), p(1)),
        ];
        let once = flatten(&schema, &updates);
        let twice = flatten(&schema, &once);
        assert_eq!(once, twice);
    }
}
