//! The append-only log of published transactions.
//!
//! This corresponds to the published-update log that the paper's central
//! update store keeps inside the RDBMS: every published transaction is
//! recorded with the epoch in which it was published, and indexes allow the
//! store to answer "which transactions were published between epochs a and
//! b", to resolve transaction identifiers, and to chase antecedent chains
//! (which transaction wrote the tuple value this transaction modifies or
//! deletes?).
//!
//! # Positions and retention
//!
//! Every published transaction is assigned a permanent, monotonically
//! increasing **log position**. Positions are the publication order the
//! antecedent chase and the replay streams rely on, so they never change —
//! retention ([`TransactionLog::prune_below`]) removes entries but leaves the
//! surviving positions untouched. Positions are also assigned in epoch order
//! (a publish never goes back to an earlier epoch), so the entries live in
//! one vector sorted by both: a lookup by position indexes it directly while
//! the positions it asks about are dense, and an epoch range is two binary
//! searches. A pruned log answers every query exactly like the unpruned one
//! *for the transactions that can still be reached*: the
//! [`TransactionLog::pinned_ancestors`] closure computes the set of
//! sub-horizon entries that future antecedent chases can still reach, and
//! pruning retains exactly those.

use crate::error::{Result, StorageError};
use orchestra_model::{Epoch, RelName, Schema, Transaction, TransactionId, Tuple};
use rustc_hash::{FxHashMap, FxHashSet};
use std::collections::{BTreeMap, BinaryHeap};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// One entry of the published-transaction log.
///
/// The transaction is stored behind an [`Arc`] so that read paths (candidate
/// construction, replay streams, point lookups) hand out shared references
/// instead of deep copies — and with them the transaction's own flattening,
/// memoised on the shared [`Transaction`] (see
/// [`Transaction::own_flattening`]).
///
/// An entry also carries the positions of its transaction's direct
/// antecedents: derived state that `Debug`, equality and the snapshot and WAL
/// bytes leave out (see [`TransactionLog::entry_antecedents`]).
#[derive(Clone)]
pub struct LogEntry {
    /// Epoch in which the transaction was published.
    pub epoch: Epoch,
    /// The published transaction, shared with every reader.
    pub transaction: Arc<Transaction>,
    /// The log positions of the transaction's direct antecedents, chased on
    /// first use.
    antecedents: OnceLock<Box<[u64]>>,
}

impl LogEntry {
    /// An entry for a transaction published in `epoch`.
    pub fn new(epoch: Epoch, transaction: Arc<Transaction>) -> Self {
        LogEntry { epoch, transaction, antecedents: OnceLock::new() }
    }
}

impl fmt::Debug for LogEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LogEntry")
            .field("epoch", &self.epoch)
            .field("transaction", &self.transaction)
            .finish()
    }
}

impl PartialEq for LogEntry {
    fn eq(&self, other: &Self) -> bool {
        self.epoch == other.epoch && self.transaction == other.transaction
    }
}

impl Eq for LogEntry {}

/// Append-only log of published transactions with id and written-tuple
/// indexes, supporting convergence-horizon retention.
#[derive(Clone, Default)]
pub struct TransactionLog {
    /// Live entries with their permanent log positions, in position order —
    /// which is also epoch order. Dense until the first prune; afterwards
    /// only pinned entries remain below the pruned horizon, and the entries
    /// above it stay dense. `pub(crate)` for the binary snapshot codec
    /// ([`crate::codec`]), which rebuilds the log entry by entry through
    /// [`TransactionLog::push_decoded`] and re-derives the indexes.
    pub(crate) entries: Vec<(u64, LogEntry)>,
    /// The next position to assign — the number of transactions ever
    /// published, including pruned ones.
    pub(crate) next_pos: u64,
    by_id: FxHashMap<TransactionId, u64>,
    /// For each relation, then each tuple value ever written in it, the log
    /// positions of the live transactions that wrote it, in publication
    /// order. Two levels so lookups borrow the update's relation and tuple.
    writers: FxHashMap<RelName, FxHashMap<Tuple, Vec<u64>>>,
}

impl fmt::Debug for TransactionLog {
    /// Canonical rendering: only the entries themselves (a position → entry
    /// map) and the position counter are printed. The lookup indexes are
    /// derived state whose hash-map layout depends on insertion history;
    /// excluding them keeps the output identical between a live log and one
    /// rebuilt by crash recovery — including a pruned one.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let entries: BTreeMap<u64, &LogEntry> =
            self.entries.iter().map(|(pos, entry)| (*pos, entry)).collect();
        f.debug_struct("TransactionLog")
            .field("entries", &entries)
            .field("next_pos", &self.next_pos)
            .finish_non_exhaustive()
    }
}

/// Adds the entry at `pos` to the id and writers indexes.
fn index_entry(
    by_id: &mut FxHashMap<TransactionId, u64>,
    writers: &mut FxHashMap<RelName, FxHashMap<Tuple, Vec<u64>>>,
    pos: u64,
    transaction: &Transaction,
) {
    by_id.insert(transaction.id(), pos);
    for update in transaction.updates() {
        let Some(written) = update.written_tuple() else { continue };
        let by_tuple = match writers.get_mut(&update.relation) {
            Some(by_tuple) => by_tuple,
            None => writers.entry(update.relation.clone()).or_default(),
        };
        // One hash per written value; the clone is a reference-count bump.
        by_tuple.entry(written.clone()).or_default().push(pos);
    }
}

impl TransactionLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        TransactionLog::default()
    }

    /// Rebuilds the derived indexes (used after deserialisation and after a
    /// prune).
    pub fn rebuild_indexes(&mut self) {
        self.by_id.clear();
        self.writers.clear();
        for (pos, entry) in &self.entries {
            index_entry(&mut self.by_id, &mut self.writers, *pos, &entry.transaction);
        }
    }

    /// Appends one decoded snapshot entry, refusing one that would leave the
    /// entries out of position or epoch order.
    pub(crate) fn push_decoded(&mut self, pos: u64, entry: LogEntry) -> Result<()> {
        if let Some((last_pos, last)) = self.entries.last() {
            if pos <= *last_pos || entry.epoch < last.epoch {
                return Err(StorageError::Persistence(format!(
                    "snapshot log entry at position {pos}, epoch {} follows position \
                     {last_pos}, epoch {}",
                    entry.epoch, last.epoch
                )));
            }
        }
        self.entries.push((pos, entry));
        Ok(())
    }

    /// Where the live entry at log position `pos` sits in `entries`. The
    /// entries above the last prune are dense, so a live entry there sits as
    /// far from the last entry as its position is from the last position;
    /// anything else (a pinned entry below the pruned horizon) is found by
    /// binary search.
    fn index_of(&self, pos: u64) -> Option<usize> {
        let (last, _) = self.entries.last()?;
        let back = usize::try_from(last.checked_sub(pos)?).ok()?;
        match self.entries.len().checked_sub(back + 1) {
            Some(index) if self.entries[index].0 == pos => Some(index),
            _ => self.entries.binary_search_by_key(&pos, |(p, _)| *p).ok(),
        }
    }

    /// The live entry at a position the indexes hold.
    fn at(&self, pos: u64) -> &LogEntry {
        &self.entries[self.index_of(pos).expect("indexed positions are live")].1
    }

    /// Appends a published transaction. Publishing the same transaction id
    /// twice is an error, and so is an epoch below the last entry's: log
    /// positions follow epoch order.
    pub fn publish(&mut self, epoch: Epoch, transaction: Transaction) -> Result<()> {
        if self.by_id.contains_key(&transaction.id()) {
            return Err(StorageError::TransactionLog(format!(
                "transaction {} already published",
                transaction.id()
            )));
        }
        if let Some((_, last)) = self.entries.last() {
            if epoch < last.epoch {
                return Err(StorageError::TransactionLog(format!(
                    "transaction {} published in epoch {epoch}, before the log's last epoch {}",
                    transaction.id(),
                    last.epoch
                )));
            }
        }
        let pos = self.next_pos;
        self.next_pos += 1;
        index_entry(&mut self.by_id, &mut self.writers, pos, &transaction);
        self.entries.push((pos, LogEntry::new(epoch, Arc::new(transaction))));
        Ok(())
    }

    /// Number of *live* (unpruned) transactions in the log.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns true if the log holds no live transactions.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of transactions ever published, including pruned ones.
    pub fn total_published(&self) -> u64 {
        self.next_pos
    }

    /// Looks up a transaction's log entry by id.
    pub fn entry(&self, id: TransactionId) -> Option<&LogEntry> {
        self.by_id.get(&id).map(|&pos| self.at(pos))
    }

    /// Looks up a transaction by id.
    pub fn get(&self, id: TransactionId) -> Option<&Transaction> {
        self.entry(id).map(|entry| entry.transaction.as_ref())
    }

    /// Looks up a transaction by id, returning a shared handle (a
    /// reference-count bump, never a deep copy).
    pub fn get_arc(&self, id: TransactionId) -> Option<Arc<Transaction>> {
        self.entry(id).map(|entry| Arc::clone(&entry.transaction))
    }

    /// The epoch in which a transaction was published.
    pub fn epoch_of(&self, id: TransactionId) -> Option<Epoch> {
        self.entry(id).map(|entry| entry.epoch)
    }

    /// The log position (publication order) of a transaction. Positions are
    /// permanent: they survive pruning unchanged.
    pub fn position_of(&self, id: TransactionId) -> Option<u64> {
        self.by_id.get(&id).copied()
    }

    /// All live entries, in publication order.
    pub fn entries(&self) -> impl Iterator<Item = &LogEntry> + '_ {
        self.entries.iter().map(|(_, entry)| entry)
    }

    /// Transactions published in epochs `(after, up_to]`, in publication
    /// order. This is the "relevant transactions" query of the paper: the
    /// updates a participant has not yet seen.
    pub fn in_range(&self, after: Epoch, up_to: Epoch) -> Vec<&Transaction> {
        let start = self.entries.partition_point(|(_, entry)| entry.epoch <= after);
        let end = self.entries.partition_point(|(_, entry)| entry.epoch <= up_to);
        let range = self.entries.get(start..end).unwrap_or_default();
        range.iter().map(|(_, entry)| entry.transaction.as_ref()).collect()
    }

    /// The positions of the direct antecedents of a transaction (Definition
    /// 3's `ante(X)`): for each tuple value that `txn` deletes or modifies,
    /// the most recently published transaction that inserted that tuple
    /// value or modified some tuple into it.
    ///
    /// `before` bounds the search to transactions published strictly before
    /// the given log position (`self.next_pos` for a transaction not yet in
    /// the log, or its own position for a published one). For a published
    /// transaction `before` must not exceed its own position: one that reads
    /// a tuple it also writes would list itself.
    fn antecedent_positions(&self, txn: &Transaction, before: u64) -> Vec<u64> {
        debug_assert!(self.position_of(txn.id()).map_or(true, |own| before <= own));
        let mut out: Vec<u64> = Vec::new();
        for u in txn.updates() {
            let Some(read) = u.read_tuple() else { continue };
            let Some(writers) = self.writers.get(&u.relation).and_then(|m| m.get(read)) else {
                continue;
            };
            // Most recent writer strictly before `before`: for a published
            // transaction that is its own position, so it never finds itself.
            if let Some(&pos) = writers.iter().rfind(|&&p| p < before) {
                if !out.contains(&pos) {
                    out.push(pos);
                }
            }
        }
        out
    }

    /// The positions of the direct antecedents of the live entry at `pos`,
    /// chased through the writers index the first time they are asked for
    /// and memoised in the entry.
    ///
    /// The memo never goes stale. Later publications take later positions,
    /// so they cannot be the most recent writer before `pos`. Pruning keeps
    /// every direct antecedent of a surviving entry (see
    /// [`TransactionLog::pinned_ancestors`]), so the most recent live writer
    /// before `pos` is the same entry before and after a prune.
    ///
    /// # Panics
    /// Panics if no live entry holds `pos` (see
    /// [`TransactionLog::position_of`]).
    pub fn entry_antecedents(&self, pos: u64) -> &[u64] {
        let entry = self.at(pos);
        entry
            .antecedents
            .get_or_init(|| self.antecedent_positions(&entry.transaction, pos).into_boxed_slice())
    }

    /// The transaction extension of Definition 3: the transitive closure of a
    /// transaction's antecedents, excluding transactions in `already_applied`
    /// (and their own antecedents are not chased through them), sorted by
    /// publication order with the root transaction last.
    ///
    /// The root transaction itself is always included (as the last element).
    ///
    /// The chase walks each entry's memoised antecedent positions: a
    /// transaction's read tuples are looked up in the writers index once per
    /// log entry, however many participants build an extension through it.
    /// Only a root that is not in the log is chased through the index.
    pub fn transaction_extension(
        &self,
        root: &Transaction,
        already_applied: &FxHashSet<TransactionId>,
    ) -> Vec<TransactionId> {
        let unpublished;
        let direct = match self.by_id.get(&root.id()) {
            Some(&pos) => self.entry_antecedents(pos),
            None => {
                unpublished = self.antecedent_positions(root, self.next_pos);
                &unpublished
            }
        };
        let mut ordered: Vec<TransactionId> = Vec::new();
        if !direct.is_empty() {
            // An antecedent precedes whatever names it, so popping the
            // highest position first reaches every member after all of its
            // dependents have pushed it: its copies pop back to back, and it
            // is chased once.
            let mut pending: BinaryHeap<u64> = direct.iter().copied().collect();
            let mut last = None;
            while let Some(pos) = pending.pop() {
                if last.replace(pos) == Some(pos) {
                    continue;
                }
                let id = self.at(pos).transaction.id();
                if !already_applied.contains(&id) {
                    ordered.push(id);
                    pending.extend(self.entry_antecedents(pos));
                }
            }
            ordered.reverse();
        }
        ordered.push(root.id());
        ordered
    }

    /// The positions at or below `horizon` that future log queries can still
    /// reach — the **pinned-ancestor set** of convergence-horizon retention:
    ///
    /// * the most recent writer of every distinct tuple value ever written
    ///   (a transaction executed against any instance in the future reads a
    ///   value some past transaction wrote, and its antecedent is that
    ///   value's last writer);
    /// * the direct antecedents of every retained (post-horizon) entry (the
    ///   extensions of still-live candidates chase through them);
    /// * transitively, the antecedents of everything pinned (the chase
    ///   recurses per member at the member's own position).
    ///
    /// Pruning everything at or below the horizon *except* this set leaves
    /// every future antecedent chase — and therefore every future candidate
    /// extension and every future decision — exactly as the unpruned log
    /// would have produced it.
    pub fn pinned_ancestors(&self, schema: &Schema, horizon: Epoch) -> FxHashSet<u64> {
        let mut pinned: FxHashSet<u64> = FxHashSet::default();
        let mut stack: Vec<u64> = Vec::new();
        let pin = |pos: u64, pinned: &mut FxHashSet<u64>, stack: &mut Vec<u64>| {
            if self.at(pos).epoch <= horizon && pinned.insert(pos) {
                stack.push(pos);
            }
        };
        // Seed 1: the last writer of every distinct written tuple value.
        for positions in self.writers.values().flat_map(|by_tuple| by_tuple.values()) {
            if let Some(&last) = positions.last() {
                pin(last, &mut pinned, &mut stack);
            }
        }
        // Seed 2: the direct antecedents of every retained entry.
        let retained = self.entries.partition_point(|(_, entry)| entry.epoch <= horizon);
        for &(pos, _) in &self.entries[retained..] {
            for &ante in self.entry_antecedents(pos) {
                pin(ante, &mut pinned, &mut stack);
            }
        }
        // Transitive closure over antecedent links.
        let _ = schema; // antecedent chasing is on exact tuple values
        while let Some(pos) = stack.pop() {
            for &ante in self.entry_antecedents(pos) {
                pin(ante, &mut pinned, &mut stack);
            }
        }
        pinned
    }

    /// Removes every entry at or below `horizon` whose position is not in
    /// `pinned`, rebuilding the derived indexes over the survivors. Returns
    /// the number of entries removed. Positions of surviving entries are
    /// unchanged.
    pub fn prune_below(&mut self, horizon: Epoch, pinned: &FxHashSet<u64>) -> u64 {
        let before = self.entries.len();
        self.entries.retain(|(pos, entry)| entry.epoch > horizon || pinned.contains(pos));
        let removed = (before - self.entries.len()) as u64;
        if removed > 0 {
            self.rebuild_indexes();
        }
        removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orchestra_model::schema::bioinformatics_schema;
    use orchestra_model::{ParticipantId, Update};

    fn p(i: u32) -> ParticipantId {
        ParticipantId(i)
    }

    fn func(org: &str, prot: &str, f: &str) -> Tuple {
        Tuple::of_text(&[org, prot, f])
    }

    fn txn(participant: u32, local: u64, updates: Vec<Update>) -> Transaction {
        Transaction::from_parts(p(participant), local, updates).unwrap()
    }

    #[test]
    fn publish_and_lookup() {
        let mut log = TransactionLog::new();
        let x = txn(3, 0, vec![Update::insert("Function", func("rat", "prot1", "a"), p(3))]);
        log.publish(Epoch(1), x.clone()).unwrap();
        assert_eq!(log.len(), 1);
        assert!(!log.is_empty());
        assert_eq!(log.total_published(), 1);
        assert_eq!(log.get(x.id()).unwrap(), &x);
        assert_eq!(log.epoch_of(x.id()), Some(Epoch(1)));
        assert_eq!(log.position_of(x.id()), Some(0));
        assert!(log.get(TransactionId::new(p(9), 9)).is_none());
    }

    #[test]
    fn duplicate_publication_rejected() {
        let mut log = TransactionLog::new();
        let x = txn(3, 0, vec![Update::insert("Function", func("rat", "prot1", "a"), p(3))]);
        log.publish(Epoch(1), x.clone()).unwrap();
        assert!(log.publish(Epoch(2), x).is_err());
    }

    #[test]
    fn epoch_and_range_queries() {
        let mut log = TransactionLog::new();
        let x1 = txn(1, 0, vec![Update::insert("Function", func("a", "p1", "f1"), p(1))]);
        let x2 = txn(2, 0, vec![Update::insert("Function", func("b", "p2", "f2"), p(2))]);
        let x3 = txn(1, 1, vec![Update::insert("Function", func("c", "p3", "f3"), p(1))]);
        log.publish(Epoch(1), x1.clone()).unwrap();
        log.publish(Epoch(2), x2.clone()).unwrap();
        log.publish(Epoch(4), x3.clone()).unwrap();

        assert_eq!(log.in_range(Epoch(0), Epoch(4)).len(), 3);
        assert_eq!(log.in_range(Epoch(1), Epoch(4)), vec![&x2, &x3]);
        assert_eq!(log.in_range(Epoch(4), Epoch(4)).len(), 0);
    }

    #[test]
    fn antecedents_follow_written_tuples() {
        let mut log = TransactionLog::new();
        // X3:0 inserts, X3:1 modifies the inserted value: antecedent of X3:1
        // is X3:0.
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
        log.publish(Epoch(1), x0.clone()).unwrap();
        log.publish(Epoch(1), x1.clone()).unwrap();
        let antes = log.entry_antecedents(log.position_of(x1.id()).unwrap());
        assert_eq!(antes, [log.position_of(x0.id()).unwrap()]);
        // The insert has no antecedent.
        assert!(log.entry_antecedents(log.position_of(x0.id()).unwrap()).is_empty());
    }

    #[test]
    fn antecedents_pick_latest_writer() {
        let mut log = TransactionLog::new();
        let x0 = txn(1, 0, vec![Update::insert("Function", func("rat", "prot1", "v"), p(1))]);
        let x1 = txn(
            1,
            1,
            vec![
                Update::delete("Function", func("rat", "prot1", "v"), p(1)),
                Update::insert("Function", func("rat", "prot1", "v"), p(1)),
            ],
        );
        let x2 = txn(2, 0, vec![Update::delete("Function", func("rat", "prot1", "v"), p(2))]);
        log.publish(Epoch(1), x0).unwrap();
        log.publish(Epoch(2), x1.clone()).unwrap();
        log.publish(Epoch(3), x2.clone()).unwrap();
        let antes = log.entry_antecedents(log.position_of(x2.id()).unwrap());
        assert_eq!(antes, [log.position_of(x1.id()).unwrap()]);
    }

    #[test]
    fn transaction_extension_transitively_closes() {
        let mut log = TransactionLog::new();
        let x0 = txn(1, 0, vec![Update::insert("Function", func("rat", "prot1", "a"), p(1))]);
        let x1 = txn(
            2,
            0,
            vec![Update::modify(
                "Function",
                func("rat", "prot1", "a"),
                func("rat", "prot1", "b"),
                p(2),
            )],
        );
        let x2 = txn(
            3,
            0,
            vec![Update::modify(
                "Function",
                func("rat", "prot1", "b"),
                func("rat", "prot1", "c"),
                p(3),
            )],
        );
        log.publish(Epoch(1), x0.clone()).unwrap();
        log.publish(Epoch(2), x1.clone()).unwrap();
        log.publish(Epoch(3), x2.clone()).unwrap();

        let ext = log.transaction_extension(&x2, &FxHashSet::default());
        assert_eq!(ext, vec![x0.id(), x1.id(), x2.id()]);

        // If the middle transaction is already applied, the chase stops there.
        let mut applied = FxHashSet::default();
        applied.insert(x1.id());
        let ext = log.transaction_extension(&x2, &applied);
        assert_eq!(ext, vec![x2.id()]);
    }

    /// A log as [`crate::codec::decode_snapshot`] leaves it: the entries and
    /// the position counter, the derived indexes not yet rebuilt.
    fn as_decoded(log: &TransactionLog) -> TransactionLog {
        TransactionLog {
            entries: log.entries.clone(),
            next_pos: log.next_pos,
            ..TransactionLog::new()
        }
    }

    #[test]
    fn rebuild_indexes_after_decoding() {
        let mut log = TransactionLog::new();
        let x0 = txn(1, 0, vec![Update::insert("Function", func("rat", "prot1", "a"), p(1))]);
        let x1 = txn(
            2,
            0,
            vec![Update::modify(
                "Function",
                func("rat", "prot1", "a"),
                func("rat", "prot1", "b"),
                p(2),
            )],
        );
        log.publish(Epoch(1), x0.clone()).unwrap();
        log.publish(Epoch(2), x1.clone()).unwrap();
        let mut back = as_decoded(&log);
        assert!(back.get(x0.id()).is_none(), "lookups are derived, not decoded");
        back.rebuild_indexes();
        assert_eq!(back.len(), 2);
        assert_eq!(back.total_published(), 2);
        assert_eq!(back.get(x0.id()).unwrap(), &x0);
        let ext = back.transaction_extension(&x1, &FxHashSet::default());
        assert_eq!(ext.len(), 2);
    }

    /// A three-link modify chain: the pinned set keeps the whole lineage of
    /// the live value, and the extension of a post-horizon transaction is
    /// identical before and after pruning.
    #[test]
    fn pinned_ancestors_preserve_extensions_across_pruning() {
        let schema = bioinformatics_schema();
        let mut log = TransactionLog::new();
        let x0 = txn(1, 0, vec![Update::insert("Function", func("rat", "prot1", "a"), p(1))]);
        let x1 = txn(
            2,
            0,
            vec![Update::modify(
                "Function",
                func("rat", "prot1", "a"),
                func("rat", "prot1", "b"),
                p(2),
            )],
        );
        // An unrelated, fully superseded value: its last writer still pins.
        let y0 = txn(1, 1, vec![Update::insert("Function", func("dog", "prot9", "z"), p(1))]);
        let x2 = txn(
            3,
            0,
            vec![Update::modify(
                "Function",
                func("rat", "prot1", "b"),
                func("rat", "prot1", "c"),
                p(3),
            )],
        );
        log.publish(Epoch(1), x0.clone()).unwrap();
        log.publish(Epoch(2), x1.clone()).unwrap();
        log.publish(Epoch(3), y0.clone()).unwrap();
        log.publish(Epoch(4), x2.clone()).unwrap();

        let unpruned = log.transaction_extension(&x2, &FxHashSet::default());

        // Horizon 3: x0, x1 and y0 are candidates for pruning, but all three
        // are pinned — x1 as x2's antecedent (and last writer of "b"), x0 as
        // x1's antecedent (and last writer of "a"), y0 as last writer of "z".
        let pinned = log.pinned_ancestors(&schema, Epoch(3));
        assert_eq!(pinned.len(), 3);
        let removed = log.prune_below(Epoch(3), &pinned);
        assert_eq!(removed, 0);

        // With a fresh write superseding y0's value, y0's pin shifts to the
        // new writer and y0 itself is pruned.
        let y1 = txn(
            2,
            1,
            vec![Update::modify(
                "Function",
                func("dog", "prot9", "z"),
                func("dog", "prot9", "w"),
                p(2),
            )],
        );
        log.publish(Epoch(5), y1.clone()).unwrap();
        // Now prune to horizon 4: y0 is pinned as y1's antecedent, so still
        // nothing goes; prune to horizon 3 with y1's chain pinned keeps all.
        let pinned = log.pinned_ancestors(&schema, Epoch(4));
        assert!(pinned.contains(&log.position_of(y0.id()).unwrap()));

        // Pruning never changes the extension of a live transaction.
        let after = log.transaction_extension(&x2, &FxHashSet::default());
        assert_eq!(unpruned, after);
    }

    /// A value chain that is fully superseded and whose lineage ends below
    /// the horizon in a *dead* value gets pruned, while live lineage stays.
    #[test]
    fn prune_below_removes_unreachable_entries_and_keeps_positions() {
        let schema = bioinformatics_schema();
        let mut log = TransactionLog::new();
        // Dead chain: insert v then delete v — nothing reads v afterwards,
        // but the delete is the last writer of nothing (deletes write no
        // tuple), and the insert is *not* the last writer pin for any live
        // value once a later insert writes v again and stays live.
        let d0 = txn(1, 0, vec![Update::insert("Function", func("x", "k", "v"), p(1))]);
        let d1 = txn(1, 1, vec![Update::delete("Function", func("x", "k", "v"), p(1))]);
        let d2 = txn(2, 0, vec![Update::insert("Function", func("x", "k", "v"), p(2))]);
        let live = txn(3, 0, vec![Update::insert("Function", func("y", "k2", "w"), p(3))]);
        log.publish(Epoch(1), d0.clone()).unwrap();
        log.publish(Epoch(2), d1.clone()).unwrap();
        log.publish(Epoch(3), d2.clone()).unwrap();
        log.publish(Epoch(4), live.clone()).unwrap();

        let pinned = log.pinned_ancestors(&schema, Epoch(3));
        // d2 is the last writer of value v: pinned. Its antecedent is d1?
        // No — d1 *deleted* v (writes nothing); d2's read set is empty (an
        // insert), so the chain stops. d0 and d1 are unreachable.
        assert!(pinned.contains(&log.position_of(d2.id()).unwrap()));
        assert!(!pinned.contains(&log.position_of(d0.id()).unwrap()));
        let removed = log.prune_below(Epoch(3), &pinned);
        assert_eq!(removed, 2);
        assert_eq!(log.len(), 2);
        assert_eq!(log.total_published(), 4);
        // Surviving positions are unchanged; pruned ids resolve to nothing.
        assert_eq!(log.position_of(d2.id()), Some(2));
        assert_eq!(log.position_of(live.id()), Some(3));
        assert!(log.get(d0.id()).is_none());
        assert!(log.epoch_of(d1.id()).is_none());
        assert_eq!(log.in_range(Epoch(0), Epoch(4)).len(), 2);
        // A sparse log rebuilds its indexes with positions intact.
        let mut back = as_decoded(&log);
        back.rebuild_indexes();
        assert_eq!(back.position_of(d2.id()), Some(2));
        assert_eq!(back.total_published(), 4);
        assert_eq!(format!("{back:?}"), format!("{log:?}"));
    }

    /// A diamond: x3 reads what x1 and x2 wrote, and both read what x0
    /// inserted. x0 is reached twice and listed once; an applied x1 stops
    /// the chase through it, not through x2.
    #[test]
    fn an_antecedent_reached_twice_is_listed_once_in_publication_order() {
        let mut log = TransactionLog::new();
        let modify = |from: Tuple, to: Tuple, who| Update::modify("Function", from, to, p(who));
        let x0 = txn(
            1,
            0,
            vec![
                Update::insert("Function", func("rat", "k1", "a"), p(1)),
                Update::insert("Function", func("rat", "k2", "c"), p(1)),
            ],
        );
        let x1 = txn(2, 0, vec![modify(func("rat", "k1", "a"), func("rat", "k1", "b"), 2)]);
        let x2 = txn(3, 0, vec![modify(func("rat", "k2", "c"), func("rat", "k2", "d"), 3)]);
        let x3 = txn(
            4,
            0,
            vec![
                modify(func("rat", "k1", "b"), func("rat", "k1", "e"), 4),
                modify(func("rat", "k2", "d"), func("rat", "k2", "f"), 4),
            ],
        );
        for (epoch, x) in [&x0, &x1, &x2, &x3].into_iter().enumerate() {
            log.publish(Epoch(epoch as u64 + 1), x.clone()).unwrap();
        }
        let none = FxHashSet::default();
        let ext = log.transaction_extension(&x3, &none);
        assert_eq!(ext, vec![x0.id(), x1.id(), x2.id(), x3.id()]);
        let applied: FxHashSet<TransactionId> = [x1.id()].into_iter().collect();
        let ext = log.transaction_extension(&x3, &applied);
        assert_eq!(ext, vec![x0.id(), x2.id(), x3.id()]);
        let applied: FxHashSet<TransactionId> = [x1.id(), x2.id()].into_iter().collect();
        assert_eq!(log.transaction_extension(&x3, &applied), vec![x3.id()]);

        // A root not in the log is chased through the writers index.
        let y = txn(5, 0, vec![modify(func("rat", "k1", "e"), func("rat", "k1", "g"), 5)]);
        let ext = log.transaction_extension(&y, &none);
        assert_eq!(ext, vec![x0.id(), x1.id(), x2.id(), x3.id(), y.id()]);
    }

    /// Publishes `steps` of a log of one-update transactions, `per_epoch` to
    /// an epoch, over three keys: each key goes through rounds of insert
    /// `a`, `a → b`, `b → a`, delete `a` (three steps per move). Every value
    /// is written again in the next round, and the deletion cuts a round off
    /// from the next, so pruning has something to remove.
    fn publish_chains(log: &mut TransactionLog, steps: std::ops::Range<u64>, per_epoch: u64) {
        for step in steps {
            let key = format!("k{}", step % 3);
            let (a, b) = (func("rat", &key, "a"), func("rat", &key, "b"));
            let who = p(1 + (step % 4) as u32);
            let update = match (step / 3) % 4 {
                0 => Update::insert("Function", a, who),
                1 => Update::modify("Function", a, b, who),
                2 => Update::modify("Function", b, a, who),
                _ => Update::delete("Function", a, who),
            };
            log.publish(Epoch(step / per_epoch + 1), txn(who.0, step, vec![update])).unwrap();
        }
    }

    /// Every live root's extension, with nothing applied and with `applied`
    /// applied.
    fn extensions(
        log: &TransactionLog,
        applied: &FxHashSet<TransactionId>,
    ) -> BTreeMap<TransactionId, [Vec<TransactionId>; 2]> {
        let none = FxHashSet::default();
        let extension = |root, applied| log.transaction_extension(root, applied);
        log.entries()
            .map(|entry| {
                let root = &entry.transaction;
                (root.id(), [extension(root, &none), extension(root, applied)])
            })
            .collect()
    }

    #[test]
    fn the_antecedent_memo_never_goes_stale() {
        let schema = bioinformatics_schema();
        let mut log = TransactionLog::new();
        // Half the memos are filled before the rest of the log is published.
        publish_chains(&mut log, 0..11, 1);
        extensions(&log, &FxHashSet::default());
        publish_chains(&mut log, 11..24, 1);
        let applied: FxHashSet<TransactionId> =
            log.entries().step_by(3).map(|entry| entry.transaction.id()).collect();
        let live = extensions(&log, &applied);
        assert!(log.entries().all(|entry| entry.antecedents.get().is_some()), "memos filled");
        assert!(live.values().any(|[ext, _]| ext.len() > 3), "the log has chains");

        // A clone carries the memos; a snapshot round trip drops them.
        assert_eq!(extensions(&log.clone(), &applied), live);
        let snapshot = crate::snapshot::StoreSnapshot {
            schema: schema.clone(),
            registry: crate::EpochRegistry::new(),
            log: log.clone(),
            membership_frontier: Epoch::ZERO,
            pruned_through: Epoch::ZERO,
            retention: crate::RetentionPolicy::ConvergedOnly,
            participants: Vec::new(),
            wal_generation: 0,
        };
        let mut decoded =
            crate::codec::decode_snapshot(&crate::codec::encode_snapshot(&snapshot)).unwrap().log;
        decoded.rebuild_indexes();
        assert!(decoded.entries().all(|entry| entry.antecedents.get().is_none()));
        assert_eq!(extensions(&decoded, &applied), live);

        // Pruned with every memo filled, the survivors keep theirs: every
        // surviving root's extension is what it was before the prune, and
        // what a memo-free copy of the pruned log chases.
        let horizon = Epoch(16);
        let pinned = log.pinned_ancestors(&schema, horizon);
        assert!(log.prune_below(horizon, &pinned) > 0, "something is pruned");
        log.rebuild_indexes();
        assert!(log.entries().all(|entry| entry.antecedents.get().is_some()), "memos kept");
        let pruned = extensions(&log, &applied);
        assert!(pruned.len() < live.len() && pruned.values().any(|[ext, _]| ext.len() > 3));
        for (root, ext) in &pruned {
            assert_eq!(ext, &live[root]);
        }
        let mut fresh = as_decoded(&log);
        fresh.rebuild_indexes();
        assert_eq!(extensions(&fresh, &applied), pruned);
    }

    /// Definition 3 read off the live entries alone: the root at `index`
    /// and, transitively, each member's latest earlier writer of every tuple
    /// it reads, in log order.
    fn scanned_extension(entries: &[&LogEntry], index: usize) -> Vec<TransactionId> {
        let writes = |q: usize, u: &Update| {
            let reads =
                |w: &Update| w.relation == u.relation && w.written_tuple() == u.read_tuple();
            entries[q].transaction.updates().iter().any(reads)
        };
        let (mut members, mut todo) = (std::collections::BTreeSet::from([index]), vec![index]);
        while let Some(i) = todo.pop() {
            for u in entries[i].transaction.updates().iter().filter(|u| u.read_tuple().is_some()) {
                if let Some(q) = (0..i).rev().find(|&q| writes(q, u)) {
                    if members.insert(q) {
                        todo.push(q);
                    }
                }
            }
        }
        members.into_iter().map(|q| entries[q].transaction.id()).collect()
    }

    /// Every lookup agrees with a linear scan of `entries()`: `entry`, `get`
    /// and `epoch_of` for every transaction ever published (pruned ones
    /// answer nothing), `in_range` for every pair of epoch bounds, and the
    /// extension of every live root.
    fn assert_lookups_match_a_scan(log: &TransactionLog, published: &[Transaction]) {
        let entries: Vec<&LogEntry> = log.entries().collect();
        for txn in published {
            let scanned = entries.iter().copied().find(|e| e.transaction.id() == txn.id());
            assert_eq!(log.entry(txn.id()), scanned, "{}", txn.id());
            assert_eq!(log.get(txn.id()), scanned.map(|e| e.transaction.as_ref()));
            assert_eq!(log.epoch_of(txn.id()), scanned.map(|e| e.epoch));
        }
        let last = entries.last().map_or(0, |e| e.epoch.as_u64());
        for after in 0..=last + 1 {
            for up_to in 0..=last + 1 {
                let scanned: Vec<&Transaction> = entries
                    .iter()
                    .filter(|e| e.epoch.as_u64() > after && e.epoch.as_u64() <= up_to)
                    .map(|e| e.transaction.as_ref())
                    .collect();
                assert_eq!(log.in_range(Epoch(after), Epoch(up_to)), scanned, "({after}, {up_to}]");
            }
        }
        for (index, entry) in entries.iter().enumerate() {
            let chased = log.transaction_extension(&entry.transaction, &FxHashSet::default());
            assert_eq!(chased, scanned_extension(&entries, index));
        }
    }

    #[test]
    fn a_sparse_log_answers_like_a_scan_before_and_after_a_snapshot() {
        let schema = bioinformatics_schema();
        let mut log = TransactionLog::new();
        publish_chains(&mut log, 0..36, 2);
        let published: Vec<Transaction> =
            log.entries().map(|entry| entry.transaction.as_ref().clone()).collect();
        let horizon = Epoch(11);
        let pinned = log.pinned_ancestors(&schema, horizon);
        assert!(log.prune_below(horizon, &pinned) > 0, "something is pruned");
        let below: Vec<u64> =
            log.entries.iter().filter(|(_, e)| e.epoch <= horizon).map(|(pos, _)| *pos).collect();
        assert!(!below.is_empty(), "pinned entries stay below the horizon");
        assert!(below.windows(2).any(|w| w[1] > w[0] + 1), "and they are sparse");
        assert_lookups_match_a_scan(&log, &published);

        let snapshot = crate::snapshot::StoreSnapshot {
            schema: schema.clone(),
            registry: crate::EpochRegistry::new(),
            log: log.clone(),
            membership_frontier: Epoch::ZERO,
            pruned_through: horizon,
            retention: crate::RetentionPolicy::ConvergedOnly,
            participants: Vec::new(),
            wal_generation: 0,
        };
        let payload = crate::codec::encode_snapshot(&snapshot);
        let mut decoded = crate::codec::decode_snapshot(&payload).unwrap().log;
        decoded.rebuild_indexes();
        assert_eq!(format!("{decoded:?}"), format!("{log:?}"));
        assert_lookups_match_a_scan(&decoded, &published);
    }

    #[test]
    fn a_publish_cannot_go_back_an_epoch() {
        let mut log = TransactionLog::new();
        let x0 = txn(1, 0, vec![Update::insert("Function", func("rat", "prot1", "a"), p(1))]);
        let x1 = txn(2, 0, vec![Update::insert("Function", func("rat", "prot2", "a"), p(2))]);
        log.publish(Epoch(2), x0).unwrap();
        assert!(matches!(log.publish(Epoch(1), x1.clone()), Err(StorageError::TransactionLog(_))));
        assert_eq!(log.total_published(), 1);
        log.publish(Epoch(2), x1).unwrap();
    }

    #[test]
    fn a_log_entrys_debug_and_equality_leave_the_memo_out() {
        let mut log = TransactionLog::new();
        let x0 = txn(1, 0, vec![Update::insert("Function", func("rat", "prot1", "a"), p(1))]);
        let x1 = txn(
            2,
            0,
            vec![Update::modify(
                "Function",
                func("rat", "prot1", "a"),
                func("rat", "prot1", "b"),
                p(2),
            )],
        );
        log.publish(Epoch(1), x0).unwrap();
        log.publish(Epoch(2), x1.clone()).unwrap();
        log.transaction_extension(&x1, &FxHashSet::default());
        let entry = log.entry(x1.id()).unwrap();
        assert_eq!(entry.antecedents.get().map(|memo| &memo[..]), Some(&[0u64][..]));
        let bare = LogEntry::new(entry.epoch, Arc::clone(&entry.transaction));
        assert_eq!(entry, &bare);
        assert_eq!(format!("{entry:?}"), format!("{bare:?}"));
    }
}
