//! Shared store-side catalogue used by both update-store implementations.
//!
//! The centralised and DHT stores hold logically identical state: the epoch
//! registry, the published-transaction log, the per-participant decision
//! record, and the registered trust policies. They differ in *where* that
//! state lives and what communication is charged to access it. This module
//! factors out the logical state and the store-side computations (trust
//! evaluation and transaction-extension construction), so each store
//! implementation only adds its own cost model.
//!
//! # Shard layout
//!
//! The catalogue is built for concurrent callers behind `&self`:
//!
//! * a **log shard** (`RwLock`) holds the epoch registry and the append-only
//!   publication log — the only globally shared mutable state. Publishes
//!   take its write lock (they serialise, exactly like the paper's single
//!   epoch allocator); retrievals share its read lock;
//! * a **per-participant shard** (`RwLock` each) holds that participant's
//!   trust policy, its slice of the trust-evaluated relevance index and its
//!   durable decision record ([`orchestra_storage::ParticipantRecord`]),
//!   whose last reconciliation is its epoch cursor. Reconciliations and
//!   decision commits from different participants touch different shards and
//!   proceed in parallel;
//! * a **session table** (`Mutex`, held only for pointer-sized bookkeeping)
//!   tracks open reconciliation sessions. Session state is soft: nothing
//!   durable changes until a session commits, so aborting one leaves the
//!   catalogue byte-identical.
//!
//! Lock order is strictly `log → shard map → shard`, with the session table,
//! the trust index and the chain memo innermost: any of them may be taken
//! while catalogue locks are held (session open does, so a new session is
//! visible to a concurrent prune before the log lock is released;
//! registration and retirement update the index under the shard lock, so it
//! always describes the shard's current policy; candidate building reads and
//! fills the memo under the log read lock), but no other lock is ever
//! acquired while holding one of them, and the memo's is not held while a
//! chain is flattened. That discipline makes the catalogue deadlock-free by
//! construction.
//!
//! # Incremental, paged retrieval
//!
//! Reconciliation cost must scale with the *new* epochs a participant has not
//! yet seen, not with total history. Each shard therefore maintains a
//! trust-evaluated relevance index and an epoch cursor advanced at session
//! commit. The index is one flat vector of `(epoch, transaction, priority)`
//! entries in epoch order: epochs only grow, so a publish appends, the
//! entries between two epochs are two binary searches away, and a prune
//! cuts a prefix. It is extended at publication time, exactly where
//! the paper pushes trust-predicate evaluation into the store, and holds
//! **trusted entries only**: nothing downstream — the session filter, the
//! convergence horizon, the deferred-set recovery stream — ever reads an
//! untrusted one. A publish does not visit every shard either. The trust
//! mappings are known before any data flows, so the catalogue keeps their
//! reverse adjacency (`TrustIndex`: update origin → the shards whose policy
//! holds a positive rule that can match an update of that origin, plus the
//! shards holding a positive rule no origin set bounds) and evaluates the
//! real policy on those shards alone — once per transaction, by its origin,
//! when the origin decides every positive rule
//! ([`TrustPolicy::priority_by_origin`]). That is complete: a transaction is
//! trusted only if every one of its updates is, every update of a
//! transaction carries the transaction's origin, and a policy outside the
//! visited set has no positive rule that can match an update of that origin.
//! A snapshot load builds every slice the same way, in one pass over the
//! log.
//!
//! Opening a session pins the undecided `(transaction, priority)` entries
//! between the cursor and the session epoch; [`StoreCatalog::batch`] then
//! materialises candidate extensions page by page, sharing the log's update
//! lists by reference count — peak memory is bounded by the page size, not
//! by history.
//!
//! # Flattened once for the whole confederation
//!
//! A candidate comes with its flattened extension when the store already
//! holds it. For the root alone that is the transaction's own flattening.
//! For a chain it is the **chain memo**: soft state keyed by the exact
//! member list (antecedents, then the root), so participants whose accepted
//! sets cut a root's extension the same way share one flattening. A root is
//! offered in the one session whose range covers its epoch, and a deferred
//! candidate keeps its flattening in the participant's soft state, so an
//! entry is dead once every registered, unretired participant's cursor has
//! passed its root's epoch, even while the root stays undecided. Commits and
//! retirements sweep it by that cursor minimum. A prune needs no sweep of
//! its own: its horizon never passes that minimum. The memo is in no
//! rendering, snapshot, WAL record or clone.
//!
//! # Convergence-horizon retention
//!
//! Left alone, the log, the relevance index and the durable state grow with
//! history. Under a non-default [`RetentionPolicy`] the catalogue prunes the
//! **converged prefix**: [`StoreCatalog::prune_to_horizon`] computes the
//! largest epoch `H` such that every registered, unretired participant's
//! cursor has passed `H` and every trusted relevant entry at or below `H` is
//! decided, caps it by the **membership frontier** (the operator's
//! declaration of how much history a late registrant may still need — see
//! [`StoreCatalog::advance_membership_frontier`]) and by any open session's
//! lower bound, and then removes everything at or below `H` except the
//! pinned-ancestor set
//! ([`orchestra_storage::TransactionLog::pinned_ancestors`]). Decision sets
//! always stay. Pruning is decision-invariant, WAL-logged (replayed
//! deterministically on recovery) and runs under the full
//! `log → shard map → shard` write-lock set, so no session or publish ever
//! observes a half-pruned catalogue.

use crate::api::{SessionId, SessionInfo};
use crate::durability::{Durability, FileWalBackend};
use orchestra_model::{
    AntichainClock, CausalStamp, Epoch, ParticipantId, Priority, ReconciliationId, Schema,
    Transaction, TransactionId, TrustPolicy,
};
use orchestra_recon::{CandidateTransaction, FlatExtension};
use orchestra_storage::snapshot::{self, ParticipantSnapshot, StoreSnapshot};
use orchestra_storage::wal::WalRecord;
use orchestra_storage::{
    Decision, EpochRegistry, LogEntry, ParticipantRecord, PruneReport, Result, RetentionPolicy,
    StorageError, TransactionLog,
};
use rustc_hash::{FxHashMap, FxHashSet};
use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// One entry of the relevance index: a transaction the participant trusts,
/// with the (non-zero) priority its policy assigned at publication time.
/// Untrusted transactions are never stored: no reader of the index wants
/// them, and the one consumer that counts them — the DHT store's Figure 7
/// accounting — asks [`StoreCatalog::untrusted_undecided`] instead.
type RelevanceEntry = (TransactionId, Priority);

/// One participant's slice of the relevance index: its entries with their
/// publication epochs, in epoch order. Epochs only grow, so a publish
/// appends, an epoch range is two binary searches and a prune cuts a prefix.
#[derive(Clone, Default)]
struct RelevanceSlice(Vec<(Epoch, RelevanceEntry)>);

impl RelevanceSlice {
    /// Appends an entry of `epoch`, which is at or above every stored one.
    fn push(&mut self, epoch: Epoch, entry: RelevanceEntry) {
        debug_assert!(self.0.last().map_or(true, |(last, _)| *last <= epoch));
        self.0.push((epoch, entry));
    }

    /// The entries of epochs `(after, up_to]`, in publication order.
    fn range(&self, after: Epoch, up_to: Epoch) -> &[(Epoch, RelevanceEntry)] {
        let start = self.0.partition_point(|(epoch, _)| *epoch <= after);
        let end = self.0.partition_point(|(epoch, _)| *epoch <= up_to);
        self.0.get(start..end).unwrap_or_default()
    }

    /// Drops the entries at or below `horizon`, returning how many went.
    fn prune_through(&mut self, horizon: Epoch) -> u64 {
        let pruned = self.0.partition_point(|(epoch, _)| *epoch <= horizon);
        self.0.drain(..pruned);
        pruned as u64
    }

    fn len(&self) -> usize {
        self.0.len()
    }

    fn clear(&mut self) {
        self.0.clear();
    }
}

impl fmt::Debug for RelevanceSlice {
    /// Renders the slice as an epoch → entries map.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut by_epoch: BTreeMap<u64, Vec<RelevanceEntry>> = BTreeMap::new();
        for (epoch, entry) in &self.0 {
            by_epoch.entry(epoch.as_u64()).or_default().push(*entry);
        }
        by_epoch.fmt(f)
    }
}

/// A participant's shard as the shard map and the trust index share it.
type SharedShard = Arc<RwLock<ParticipantShard>>;

/// Reverse adjacency of the registered trust mappings: who has to look at a
/// publish. Derived state, maintained at registration and retirement in
/// O(rules of the one policy) — the edges a policy contributed are re-read
/// from the policy itself when it is replaced — and rebuilt from the shards
/// by [`StoreCatalog::from_snapshot`] and `Clone`. Owners are listed with
/// their shard, so a publish reaches them without the shard map.
#[derive(Debug, Default)]
struct TrustIndex {
    /// Update origin → owners of the registered policies holding a positive
    /// rule that can match an update of that origin.
    by_origin: FxHashMap<ParticipantId, BTreeMap<ParticipantId, SharedShard>>,
    /// Owners of the registered policies holding a positive rule whose
    /// origins cannot be bounded: every publish evaluates them.
    any_origin: BTreeMap<ParticipantId, SharedShard>,
}

impl TrustIndex {
    /// The index over the registered shards of a freshly built shard map.
    fn over(shards: &FxHashMap<ParticipantId, SharedShard>) -> Self {
        let mut index = TrustIndex::default();
        for shard in shards.values() {
            let guard = shard.read().expect("shard lock");
            if guard.registered {
                index.insert(&guard.policy, shard);
            }
        }
        index
    }

    fn insert(&mut self, policy: &TrustPolicy, shard: &SharedShard) {
        match policy.trusted_origins() {
            None => {
                self.any_origin.insert(policy.owner(), Arc::clone(shard));
            }
            Some(origins) => {
                for origin in origins {
                    self.by_origin
                        .entry(origin)
                        .or_default()
                        .insert(policy.owner(), Arc::clone(shard));
                }
            }
        }
    }

    /// Removes exactly the edges `insert(policy, _)` added.
    fn remove(&mut self, policy: &TrustPolicy) {
        match policy.trusted_origins() {
            None => {
                self.any_origin.remove(&policy.owner());
            }
            Some(origins) => {
                for origin in origins {
                    if let Some(owners) = self.by_origin.get_mut(&origin) {
                        owners.remove(&policy.owner());
                        if owners.is_empty() {
                            self.by_origin.remove(&origin);
                        }
                    }
                }
            }
        }
    }

    /// The shards that may trust a transaction of one of `origins`, each
    /// once: a superset of those whose policy gives it a non-zero priority.
    fn candidates(
        &self,
        origins: impl Iterator<Item = ParticipantId>,
    ) -> Vec<(ParticipantId, SharedShard)> {
        let mut out: Vec<(ParticipantId, SharedShard)> = Vec::new();
        let mut list = |owners: &BTreeMap<ParticipantId, SharedShard>| {
            out.extend(owners.iter().map(|(id, shard)| (*id, Arc::clone(shard))));
        };
        list(&self.any_origin);
        let mut seen: Vec<ParticipantId> = Vec::new();
        for origin in origins {
            if !seen.contains(&origin) {
                seen.push(origin);
                self.by_origin.get(&origin).into_iter().for_each(&mut list);
            }
        }
        // A shard is listed once per origin it trusts, so only a batch of
        // several origins can list one twice.
        if seen.len() > 1 {
            out.sort_unstable_by_key(|(id, _)| *id);
            out.dedup_by_key(|(id, _)| *id);
        }
        out
    }
}

/// The globally shared shard: epoch registry plus publication log, plus the
/// retention frontiers (all durable state — rendered by the canonical
/// `Debug` and carried by snapshots).
#[derive(Debug, Clone, Default)]
struct LogShard {
    registry: EpochRegistry,
    log: TransactionLog,
    /// No participant registering after this epoch needs relevance entries
    /// at or below it; the convergence horizon never passes it. `ZERO` (the
    /// default) means membership is open and nothing is prunable.
    membership_frontier: Epoch,
    /// Epochs at or below this have been pruned by retention.
    pruned_through: Epoch,
}

/// One participant's shard: policy, relevance index slice and durable
/// decision record. The record's last reconciliation is the epoch cursor;
/// the shard keeps no second copy of it.
#[derive(Debug, Clone)]
struct ParticipantShard {
    policy: TrustPolicy,
    /// False for shards auto-created on behalf of a publisher that never
    /// registered a policy; such shards hold decisions but no relevance
    /// index and are not listed as participants. Also false again after the
    /// participant retires.
    registered: bool,
    /// True once the participant has been retired: it keeps its decision
    /// record but no longer pins the convergence horizon, receives no
    /// relevance entries and cannot open sessions (re-registering rejoins it
    /// as a late member).
    retired: bool,
    /// Trust-evaluated candidates, in epoch order.
    relevance: RelevanceSlice,
    /// Relevance entries exist only for epochs strictly above this floor.
    /// Raised to the membership frontier at (late) registration and to the
    /// horizon at every prune, so a recovered shard's rebuilt index matches
    /// the live one exactly.
    relevance_floor: Epoch,
    record: ParticipantRecord,
}

impl ParticipantShard {
    fn new(policy: TrustPolicy, registered: bool) -> Self {
        ParticipantShard {
            policy,
            registered,
            retired: false,
            relevance: RelevanceSlice::default(),
            relevance_floor: Epoch::ZERO,
            record: ParticipantRecord::new(),
        }
    }

    /// The epoch of the last committed reconciliation (`Epoch::ZERO` before
    /// the first).
    fn epoch_cursor(&self) -> Epoch {
        self.record.last_reconciliation().map(|(_, e)| e).unwrap_or_default()
    }
}

/// Soft state of one open reconciliation session.
#[derive(Debug, Clone)]
struct SessionState {
    participant: ParticipantId,
    recno: ReconciliationId,
    epoch: Epoch,
    /// The cursor the session opened against (exclusive lower bound of its
    /// pinned entries). Open sessions pin the convergence horizon here, so a
    /// concurrent prune can never remove an entry a session still streams.
    /// (Defence in depth: the horizon is also capped by the owner's cursor,
    /// which cannot move while its one allowed session is open.)
    previous: Epoch,
    /// Undecided trusted entries pinned at open, in publication order.
    pending: Vec<RelevanceEntry>,
    /// Streaming position inside `pending`.
    next: usize,
    /// Accepted-set snapshot taken at open, used for extension pruning.
    accepted: Arc<FxHashSet<TransactionId>>,
}

/// The chain flattenings handed to candidates (see the module docs): soft
/// state, like the session table.
#[derive(Default)]
struct ChainMemo {
    /// Each chain's flattening, keyed by its member ids (antecedents in
    /// publication order, root last), with the root's epoch.
    chains: FxHashMap<Box<[TransactionId]>, (Epoch, Arc<FlatExtension>)>,
    /// The smallest root epoch in `chains`, while it is not empty.
    oldest: Epoch,
}

impl ChainMemo {
    /// Drops every chain whose root is at or below `epoch`; visits the
    /// chains only when the oldest root is among them.
    fn evict_through(&mut self, epoch: Epoch) {
        if self.chains.is_empty() || self.oldest > epoch {
            return;
        }
        self.chains.retain(|_, (root, _)| *root > epoch);
        self.oldest = self.chains.values().map(|(root, _)| *root).min().unwrap_or_default();
    }
}

/// A freshly opened session (see [`StoreCatalog::open_session`]).
#[derive(Debug, Clone)]
pub struct OpenedSession {
    /// The session handle.
    pub session: SessionId,
    /// Reconciliation number assigned at commit.
    pub recno: ReconciliationId,
    /// Epoch cursor before this session (exclusive lower bound).
    pub previous: Epoch,
    /// Epoch the session is pinned to (inclusive upper bound).
    pub epoch: Epoch,
    /// Number of pinned undecided entries — every one a trusted candidate.
    pub pending: usize,
    /// The causal frontier at open (see [`SessionInfo::frontier`]).
    pub frontier: AntichainClock,
}

impl OpenedSession {
    /// The trait-level view of this session.
    pub fn info(self) -> SessionInfo {
        SessionInfo {
            session: self.session,
            recno: self.recno,
            epoch: self.epoch,
            pending: self.pending,
            frontier: self.frontier,
        }
    }
}

/// One page of candidates streamed from a session (see
/// [`StoreCatalog::batch`]).
#[derive(Debug, Clone)]
pub struct SessionBatch {
    /// The session's participant.
    pub participant: ParticipantId,
    /// The page's candidates with, for each, the number of extension members
    /// that had to be fetched (used by the DHT store's message accounting).
    pub candidates: Vec<(CandidateTransaction, usize)>,
    /// True once the session has streamed every pinned entry.
    pub exhausted: bool,
}

/// The logical contents of an update store, sharded for concurrent access.
pub struct StoreCatalog {
    schema: Schema,
    log: RwLock<LogShard>,
    shards: RwLock<FxHashMap<ParticipantId, SharedShard>>,
    /// Who has to look at a publish (see [`TrustIndex`]). Written under the
    /// owning shard's write lock, read by publishes under the log write
    /// lock; never held while another lock is acquired.
    trust: Mutex<TrustIndex>,
    sessions: Mutex<FxHashMap<u64, SessionState>>,
    next_session: AtomicU64,
    /// Where state-changing operations are logged (see [`Durability`]).
    /// Appends happen under the lock guarding the mutated state, so WAL
    /// order always matches apply order.
    durability: Durability,
    /// How aggressively converged history is pruned. Durable: setting it
    /// appends a [`WalRecord::Retention`], and snapshots carry it, so a
    /// recovered catalogue prunes under the policy the crashed one ran.
    retention: RwLock<RetentionPolicy>,
    /// Chain flattenings shared across participants (see [`ChainMemo`]).
    /// Taken under the log read lock by candidate building and under no
    /// lock by a sweep; never held while another lock is acquired or a
    /// chain is flattened.
    chains: Mutex<ChainMemo>,
}

impl StoreCatalog {
    /// Creates an empty, purely in-memory catalogue for the given schema.
    pub fn new(schema: Schema) -> Self {
        StoreCatalog::with_durability(schema, Durability::Ephemeral)
    }

    /// Creates an empty catalogue with an explicit durability backend.
    pub fn with_durability(schema: Schema, durability: Durability) -> Self {
        StoreCatalog {
            schema,
            log: RwLock::new(LogShard::default()),
            shards: RwLock::new(FxHashMap::default()),
            trust: Mutex::new(TrustIndex::default()),
            sessions: Mutex::new(FxHashMap::default()),
            next_session: AtomicU64::new(1),
            durability,
            retention: RwLock::new(RetentionPolicy::default()),
            chains: Mutex::default(),
        }
    }

    /// The catalogue's retention policy.
    pub fn retention(&self) -> RetentionPolicy {
        *self.retention.read().expect("retention lock")
    }

    /// Sets the retention policy. Takes effect at the next
    /// [`StoreCatalog::prune_to_horizon`]; nothing is pruned eagerly.
    ///
    /// # Panics
    /// On a durable catalogue, panics if the WAL append fails, like
    /// [`StoreCatalog::register_policy`]: the policy is configuration with no
    /// error channel, and a store that cannot log it should not run on.
    pub fn set_retention(&self, policy: RetentionPolicy) {
        let mut retention = self.retention.write().expect("retention lock");
        *retention = policy;
        // Appended inside the retention write lock, so a snapshot (which
        // reads the policy under its cut) sees either the old policy and
        // this record in the next generation, or the new one.
        self.durability
            .append(&WalRecord::Retention { policy })
            .expect("WAL append of a retention policy");
    }

    /// Whether the catalogue is in causal mode (see
    /// [`StoreCatalog::enable_causal_mode`]).
    pub fn causal_mode(&self) -> bool {
        self.log.read().expect("log lock").registry.causal().is_enabled()
    }

    /// Switches the catalogue to causal mode: publishers allocate their own
    /// [`CausalStamp`]s client-side and [`StoreCatalog::publish`] under
    /// them; an unstamped publish is rejected from then on. Idempotent,
    /// durable (WAL-logged), and one-way — arrival epochs keep being
    /// allocated as the linear extension either way, so cursors, sessions
    /// and retention are unaffected.
    pub fn enable_causal_mode(&self) -> Result<()> {
        let mut log = self.log.write().expect("log lock");
        if log.registry.causal().is_enabled() {
            return Ok(());
        }
        let record = self.durability.is_durable().then_some(WalRecord::EpochMode { causal: true });
        log.registry.causal_mut().enable();
        if let Some(record) = record {
            // Under the log write lock: every record after this one in the
            // stream was appended with causal mode already on.
            self.durability.append(&record)?;
        }
        Ok(())
    }

    /// The store's causal ingest frontier: the deepest ingested stamp per
    /// publisher (the store has everything at or behind it). Every session
    /// carries the frontier it opened at ([`SessionInfo::frontier`]).
    pub fn causal_frontier(&self) -> AntichainClock {
        self.log.read().expect("log lock").registry.causal().frontier().clone()
    }

    /// The sequence number the participant's next causal stamp must carry
    /// (per-publisher FIFO; 1 if it has never published). A rebuilt
    /// participant resynchronises its client-side sequence from this.
    pub fn next_publisher_seq(&self, participant: ParticipantId) -> u64 {
        self.log.read().expect("log lock").registry.causal().next_seq(participant)
    }

    /// The catalogue's durability backend.
    pub fn durability(&self) -> &Durability {
        &self.durability
    }

    /// The schema the store serves.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of published transactions in the log.
    pub fn log_len(&self) -> usize {
        self.log.read().expect("log lock").log.len()
    }

    /// The largest stable epoch (see
    /// [`orchestra_storage::EpochRegistry::largest_stable_epoch`]).
    pub fn largest_stable_epoch(&self) -> Epoch {
        self.log.read().expect("log lock").registry.largest_stable_epoch()
    }

    fn shard_of(&self, participant: ParticipantId) -> Option<SharedShard> {
        self.shards.read().expect("shard map lock").get(&participant).cloned()
    }

    /// The shard for a participant, auto-created (unregistered, empty policy)
    /// if missing — a publisher or reconciler does not have to register a
    /// trust policy to own a decision record.
    fn ensure_shard(&self, participant: ParticipantId) -> SharedShard {
        if let Some(shard) = self.shard_of(participant) {
            return shard;
        }
        let mut map = self.shards.write().expect("shard map lock");
        Arc::clone(map.entry(participant).or_insert_with(|| {
            Arc::new(RwLock::new(ParticipantShard::new(TrustPolicy::new(participant), false)))
        }))
    }

    /// Registers (or replaces) a participant's trust policy and (re)builds
    /// its slice of the relevance index from the already-published log.
    /// Registration is an out-of-band setup step; steady-state publications
    /// keep the index current incrementally.
    ///
    /// # Panics
    /// On a durable catalogue, panics if the WAL append fails — registration
    /// is setup-time work (the trait signature has no error channel), and a
    /// store whose very first writes fail should not come up at all.
    pub fn register_policy(&self, policy: TrustPolicy) {
        let participant = policy.owner();
        // Lock order: log before shard map.
        let log = self.log.read().expect("log lock");
        let record = self
            .durability
            .is_durable()
            .then(|| WalRecord::RegisterPolicy { policy: policy.clone() });
        let shared = self.ensure_shard(participant);
        let mut shard = shared.write().expect("shard lock");
        // Every registration — first-time, rejoin after retirement, or a
        // policy replacement — sees only history above the membership
        // frontier (clamped to the epochs that actually exist): it joins
        // "at" the frontier. The rule is deliberately uniform. A policy
        // *change* re-evaluates relevance over history, and an entry that
        // was untrusted under the old policy (untrusted entries never pin
        // the horizon) may be trusted under the new one; if re-registration
        // looked below the frontier, an unpruned store would resurface such
        // an entry while a pruned store could not — the one way pruning
        // could change a decision. Flooring every registration at the
        // frontier keeps the two byte-for-byte interchangeable: the floor
        // depends only on the frontier and the allocated epochs (identical
        // on both), and `pruned_through ≤ frontier` always, so the final
        // `max` never differs either. With the default open membership
        // (frontier zero) this is the full history, exactly as before.
        let joined =
            Epoch(log.membership_frontier.as_u64().min(log.registry.latest_allocated().as_u64()));
        let floor = joined.max(log.pruned_through);
        shard.relevance = relevance_slice(&log.log, &self.schema, &policy, floor);
        shard.relevance_floor = floor;
        {
            // Inside the shard write lock, so two racing registrations of one
            // participant leave the index describing whichever policy the
            // shard ends up holding. A replacement drops the stale edges.
            let mut trust = self.trust.lock().expect("trust index lock");
            if shard.registered {
                trust.remove(&shard.policy);
            }
            trust.insert(&policy, &shared);
        }
        shard.policy = policy;
        shard.registered = true;
        shard.retired = false;
        if let Some(record) = record {
            // Appended inside the log read + shard write locks, so the WAL
            // interleaves registrations and publishes in apply order.
            self.durability.append(&record).expect("WAL append (registration)");
        }
        drop(shard);
        drop(log);
    }

    /// The trust policy of a participant, if registered.
    pub fn policy(&self, participant: ParticipantId) -> Option<TrustPolicy> {
        let shard = self.shard_of(participant)?;
        let shard = shard.read().expect("shard lock");
        shard.registered.then(|| shard.policy.clone())
    }

    /// Publishes a batch of transactions from a peer as one epoch, marking
    /// the publisher's own transactions as accepted by it and extending the
    /// relevance index of every registered participant that trusts one of
    /// them with the new epoch's trust evaluation, then (on a durable
    /// catalogue) appending a [`WalRecord::Publish`] — or a
    /// [`WalRecord::PublishCausal`] for a stamped batch. Publishes serialise
    /// on the log shard's write lock; they run in parallel with session
    /// paging only up to that lock.
    ///
    /// * `stamp` — the batch's client-allocated [`CausalStamp`], required in
    ///   causal mode and refused outside it. The store validates its
    ///   per-publisher FIFO sequence and parent frontier and ingests it into
    ///   the causal DAG; its publisher must be `participant`.
    /// * `pinned` — the epoch another fabric shard already assigned the
    ///   batch (a replica publish), or the epoch a WAL record carries.
    ///   Errors, before anything is mutated, if this store's next epoch is
    ///   not `pinned`. The relevance extension covers the policies
    ///   registered *on this store*: a fabric registers each policy at its
    ///   owner's home shard only, so every shard extends exactly its own
    ///   participants' slices.
    pub fn publish(
        &self,
        participant: ParticipantId,
        stamp: Option<&CausalStamp>,
        pinned: Option<Epoch>,
        transactions: Vec<Transaction>,
    ) -> Result<Epoch> {
        let publisher = self.ensure_shard(participant);
        let mut log = self.log.write().expect("log lock");

        // Validate everything before mutating anything, so a rejected batch
        // cannot leave a half-published epoch (or a dangling started epoch,
        // or a half-ingested stamp) behind.
        match stamp {
            // In causal mode the scalar path is closed: a scalar epoch
            // interleaved among stamped ones would be invisible to the
            // causal order.
            None => {
                if log.registry.causal().is_enabled() {
                    return Err(StorageError::Causal(format!(
                        "store is in causal mode; participant {participant} must publish \
                         with a causal stamp"
                    )));
                }
            }
            Some(stamp) if stamp.publisher != participant => {
                return Err(StorageError::Causal(format!(
                    "participant {participant} cannot publish under {}'s stamp",
                    stamp.publisher
                )));
            }
            Some(stamp) => log.registry.causal().validate(stamp)?,
        }
        let mut batch_ids: FxHashSet<TransactionId> = FxHashSet::default();
        for txn in &transactions {
            if log.log.get(txn.id()).is_some() || !batch_ids.insert(txn.id()) {
                return Err(StorageError::TransactionLog(format!(
                    "transaction {} already published",
                    txn.id()
                )));
            }
        }

        if let Some(expected) = pinned {
            let next = Epoch(log.registry.latest_allocated().as_u64() + 1);
            if next != expected {
                return Err(StorageError::Persistence(format!(
                    "publish at a pinned epoch diverged: this store's next epoch is {next}, \
                     caller expected {expected}"
                )));
            }
        }

        let epoch = log.registry.allocate();
        if let Some(stamp) = stamp {
            // Cannot fail: the stamp was validated above, before any
            // mutation, and the log lock has been held throughout.
            log.registry.causal_mut().ingest(stamp, epoch)?;
        }
        // Only the shards whose policy can trust one of the batch's
        // origins are visited (`Transaction::new` guarantees every update
        // carries its transaction's origin). Registration holds the log
        // read lock, so the index cannot gain an edge under this publish;
        // a concurrent retirement can only shrink it, and the retired
        // shard is skipped below.
        let shards = self
            .trust
            .lock()
            .expect("trust index lock")
            .candidates(transactions.iter().map(Transaction::origin));
        // Each shard is locked once per *batch*, not once per
        // transaction — the whole block runs inside the log write lock,
        // so the serialised section should stay as short as possible.
        for (_, shard) in &shards {
            let mut shard = shard.write().expect("shard lock");
            if !shard.registered || shard.retired {
                continue;
            }
            for txn in &transactions {
                if let Some(entry) = relevance_entry(&shard.policy, txn, &self.schema) {
                    shard.relevance.push(epoch, entry);
                }
            }
        }
        {
            let mut publisher = publisher.write().expect("shard lock");
            for txn in &transactions {
                publisher.record.record(txn.id(), Decision::Accepted);
            }
            let record = self.durability.is_durable().then(|| match stamp {
                Some(stamp) => WalRecord::PublishCausal {
                    epoch,
                    stamp: stamp.clone(),
                    transactions: transactions.clone(),
                },
                None => {
                    WalRecord::Publish { participant, epoch, transactions: transactions.clone() }
                }
            });
            for txn in transactions {
                log.log.publish(epoch, txn)?;
            }
            if let Some(record) = record {
                // Appended while still holding the log write lock *and* the
                // publisher's shard write lock: concurrent publishes reach
                // the WAL in epoch order, and a concurrent decision commit
                // for the publisher cannot slip its record in between this
                // publish's own-acceptance and the Publish record — the
                // per-participant record stream replays in apply order.
                self.durability.append(&record)?;
            }
        }
        Ok(epoch)
    }

    /// The participant's epoch cursor: the epoch of its most recent
    /// *committed* reconciliation (`Epoch::ZERO` if it has never reconciled).
    pub fn epoch_cursor(&self, participant: ParticipantId) -> Epoch {
        self.shard_of(participant)
            .map(|shard| shard.read().expect("shard lock").epoch_cursor())
            .unwrap_or_default()
    }

    /// Opens a reconciliation session: pins it to the largest stable epoch,
    /// snapshots the undecided relevant entries between the participant's
    /// cursor and that epoch, and returns the handle. Nothing durable changes
    /// until [`StoreCatalog::commit_session`]; aborting leaves the catalogue
    /// byte-identical.
    ///
    /// At most one session may be open per participant: overlapping sessions
    /// for the same participant would commit duplicate reconciliation
    /// numbers and could move the epoch cursor backwards, so the second
    /// open errors. Sessions for *different* participants overlap freely.
    pub fn open_session(&self, participant: ParticipantId) -> Result<OpenedSession> {
        let shard_arc = self.ensure_shard(participant);
        // Lock order: log before shard.
        let log = self.log.read().expect("log lock");
        let shard = shard_arc.read().expect("shard lock");
        if shard.retired {
            return Err(StorageError::Retention(format!(
                "participant {participant} is retired and cannot reconcile"
            )));
        }
        let recno = shard.record.next_reconciliation_id();
        let previous = shard.epoch_cursor();
        let epoch = log.registry.largest_stable_epoch();

        // Walk only the index entries between the cursor and the session
        // epoch; the decided filter is O(1) per entry against the
        // incrementally maintained sets.
        let pending: Vec<RelevanceEntry> = shard
            .relevance
            .range(previous, epoch)
            .iter()
            .map(|(_, entry)| *entry)
            .filter(|(id, _)| !shard.record.is_decided(*id))
            .collect();
        let accepted = shard.record.accepted_snapshot();

        let state =
            SessionState { participant, recno, epoch, previous, pending, next: 0, accepted };
        let handle = self.next_session.fetch_add(1, Ordering::Relaxed);
        let opened = OpenedSession {
            session: SessionId(handle),
            recno,
            previous,
            epoch,
            pending: state.pending.len(),
            frontier: log.registry.causal().frontier().clone(),
        };
        // Check-and-insert atomically under the session-table lock, so two
        // racing opens for the same participant cannot both succeed — and
        // *while still holding the log lock*: the moment the log lock is
        // released a concurrent `prune_to_horizon` may read its session
        // floor, and this session must already be visible to it. (For a
        // registered participant the cursor pins the horizon anyway; an
        // unregistered participant's session has only this pin.) The session
        // table is the innermost lock — no path acquires a catalogue lock
        // while holding it — so this nesting cannot deadlock.
        {
            let mut sessions = self.sessions.lock().expect("session table lock");
            if sessions.values().any(|s| s.participant == participant) {
                return Err(StorageError::Session(format!(
                    "participant {participant} already has an open reconciliation session"
                )));
            }
            sessions.insert(handle, state);
        }
        drop(shard);
        drop(log);
        Ok(opened)
    }

    /// Streams the next page of a session: at most `max_candidates`
    /// candidates (with extensions). Entries stream in publication order; an
    /// exhausted session returns an empty page with `exhausted` set.
    ///
    /// Contract: a page with fewer than `max_candidates` candidates means
    /// the session is exhausted — the only way a page ends early is running
    /// out of pinned entries. Streaming drivers rely on this to avoid a
    /// final empty-page probe.
    pub fn batch(&self, session: SessionId, max_candidates: usize) -> Result<SessionBatch> {
        let max = max_candidates.max(1);
        // Take the page's entries under the session lock, then build
        // candidates under the log lock alone (the accepted snapshot was
        // pinned at open) — no catalogue lock is acquired while the session
        // table is held.
        let (participant, entries, accepted, exhausted) = {
            let mut sessions = self.sessions.lock().expect("session table lock");
            let state = sessions.get_mut(&session.as_u64()).ok_or_else(|| {
                StorageError::Session(format!("unknown session {}", session.as_u64()))
            })?;
            let end = state.pending.len().min(state.next.saturating_add(max));
            let entries = state.pending[state.next..end].to_vec();
            state.next = end;
            let exhausted = end == state.pending.len();
            (state.participant, entries, Arc::clone(&state.accepted), exhausted)
        };

        let log = self.log.read().expect("log lock");
        let mut candidates = Vec::with_capacity(entries.len());
        for (id, priority) in entries {
            let Some(entry) = log.log.entry(id) else { continue };
            candidates.push(self.build_candidate(&log.log, &accepted, entry, priority));
        }
        Ok(SessionBatch { participant, candidates, exhausted })
    }

    /// Commits a session: records the decisions, the reconciliation `(recno,
    /// epoch)` pair and the new epoch cursor in the participant's shard, and
    /// drops the session. Returns the participant and committed recno/epoch.
    pub fn commit_session(
        &self,
        session: SessionId,
        accepted: &[TransactionId],
        rejected: &[TransactionId],
    ) -> Result<(ParticipantId, ReconciliationId, Epoch)> {
        let state = self
            .sessions
            .lock()
            .expect("session table lock")
            .remove(&session.as_u64())
            .ok_or_else(|| {
                StorageError::Session(format!("unknown session {}", session.as_u64()))
            })?;
        let SessionState { participant, recno, epoch, accepted: snapshot, pending, .. } = state;
        // Release the session's accepted-set snapshot *before* recording:
        // while it is alive the shard's set is shared, and the first
        // `record` would `Arc::make_mut`-deep-copy the whole set — an
        // O(history) cost per commit.
        drop(snapshot);
        drop(pending);
        let record = self.durability.is_durable().then(|| WalRecord::CommitReconciliation {
            participant,
            recno,
            epoch,
            accepted: accepted.to_vec(),
            rejected: rejected.to_vec(),
        });
        let shard = self.ensure_shard(participant);
        let mut shard = shard.write().expect("shard lock");
        apply_reconciliation(&mut shard, recno, epoch, accepted, rejected);
        if let Some(record) = record {
            // Inside the shard write lock: a participant's decisions, its
            // reconciliation record and its cursor reach the WAL atomically
            // and in apply order.
            self.durability.append(&record)?;
        }
        drop(shard);
        self.sweep_chains(epoch);
        Ok((participant, recno, epoch))
    }

    /// Aborts a session. Durable state is untouched; the handle is dropped.
    /// Returns whether the session existed.
    pub fn abort_session(&self, session: SessionId) -> bool {
        self.sessions.lock().expect("session table lock").remove(&session.as_u64()).is_some()
    }

    /// Number of currently open sessions.
    pub fn open_sessions(&self) -> usize {
        self.sessions.lock().expect("session table lock").len()
    }

    /// Records accept/reject decisions for a participant outside a session.
    /// Errors only on a failed WAL append (the in-memory state has been
    /// updated by then — like a failed publish append, the process should
    /// treat the store as no longer durable).
    pub fn record_decisions(
        &self,
        participant: ParticipantId,
        accepted: &[TransactionId],
        rejected: &[TransactionId],
    ) -> Result<()> {
        let record = self.durability.is_durable().then(|| WalRecord::Decisions {
            participant,
            accepted: accepted.to_vec(),
            rejected: rejected.to_vec(),
        });
        let shard = self.ensure_shard(participant);
        let mut shard = shard.write().expect("shard lock");
        for id in accepted {
            shard.record.record(*id, Decision::Accepted);
        }
        for id in rejected {
            shard.record.record(*id, Decision::Rejected);
        }
        if let Some(record) = record {
            self.durability.append(&record)?;
        }
        Ok(())
    }

    /// The epoch the catalogue has pruned through (`Epoch::ZERO` before the
    /// first effective prune).
    pub fn pruned_through(&self) -> Epoch {
        self.log.read().expect("log lock").pruned_through
    }

    /// Transactions ever published, including pruned ones (the log-length
    /// axis a KeepAll store's memory follows; compare
    /// [`StoreCatalog::log_len`], the live set).
    pub fn log_total_published(&self) -> u64 {
        self.log.read().expect("log lock").log.total_published()
    }

    /// Live relevance-index entries summed over every shard (the second
    /// component of the retention live set): one per (participant, live
    /// transaction its policy trusts) pair.
    pub fn relevance_len(&self) -> usize {
        let map = self.shards.read().expect("shard map lock");
        map.values().map(|shard| shard.read().expect("shard lock").relevance.len()).sum()
    }

    /// Advances the membership frontier to `epoch` (monotone; smaller values
    /// are a no-op). This is the operator's declaration that any participant
    /// registering *after* this call — including an existing participant
    /// re-registering a changed policy, which re-evaluates relevance — is
    /// content to see only history above `epoch`: its relevance index is
    /// floored there even on a KeepAll store, so the declaration (not the
    /// pruning) fixes the semantics and pruned and unpruned stores keep
    /// making identical decisions. Returns the frontier now in force.
    pub fn advance_membership_frontier(&self, epoch: Epoch) -> Result<Epoch> {
        let mut log = self.log.write().expect("log lock");
        if epoch <= log.membership_frontier {
            return Ok(log.membership_frontier);
        }
        let record =
            self.durability.is_durable().then_some(WalRecord::MembershipFrontier { epoch });
        log.membership_frontier = epoch;
        if let Some(record) = record {
            self.durability.append(&record)?;
        }
        Ok(epoch)
    }

    /// Closes membership entirely: any participant registering later joins
    /// at the then-current epoch and sees no earlier history. Equivalent to
    /// advancing the frontier to `u64::MAX`; with membership closed, the
    /// convergence horizon is limited only by cursors and undecided entries.
    pub fn close_membership(&self) -> Result<Epoch> {
        self.advance_membership_frontier(Epoch(u64::MAX))
    }

    /// Retires a registered participant: it keeps its durable decision
    /// record (decisions are final) but stops pinning the convergence
    /// horizon, receives no further relevance entries and can no longer open
    /// reconciliation sessions. Re-registering a policy for the same id
    /// rejoins it as a late member (post-frontier history only). Erroring on
    /// unknown or unregistered participants keeps the WAL record stream
    /// replayable.
    pub fn retire_participant(&self, participant: ParticipantId) -> Result<()> {
        let Some(shard) = self.shard_of(participant) else {
            return Err(StorageError::Retention(format!(
                "cannot retire unknown participant {participant}"
            )));
        };
        let record =
            self.durability.is_durable().then_some(WalRecord::RetireParticipant { participant });
        let mut shard = shard.write().expect("shard lock");
        if !shard.registered {
            return Err(StorageError::Retention(format!(
                "cannot retire participant {participant}: not registered"
            )));
        }
        shard.registered = false;
        shard.retired = true;
        shard.relevance.clear();
        // Under the shard write lock, like registration's update.
        self.trust.lock().expect("trust index lock").remove(&shard.policy);
        if let Some(record) = record {
            // Appended inside the shard write lock: the retirement lands in
            // the participant's record stream in apply order.
            self.durability.append(&record)?;
        }
        drop(shard);
        self.sweep_chains(Epoch(u64::MAX));
        Ok(())
    }

    /// The smallest lower bound of any open session (`u64::MAX` when none):
    /// an open reconciliation pins the horizon at the cursor it opened
    /// against, so it never observes pruning. Sessions insert themselves
    /// into the table *before* `open_session` releases the log lock, so a
    /// session mid-open is either visible here or still holds the log lock
    /// the prune needs — there is no window in which it is neither.
    fn session_floor(&self) -> Epoch {
        self.sessions
            .lock()
            .expect("session table lock")
            .values()
            .map(|s| s.previous)
            .min()
            .unwrap_or(Epoch(u64::MAX))
    }

    /// Computes the (uncapped) convergence horizon together with the stable
    /// frontier, under the full read-lock set — lock order `log → shard map
    /// → shards` (sorted, matching every other multi-shard locker). This is
    /// the *advisory* read path: read locks do not exclude a session that is
    /// concurrently mid-open, so the value can be momentarily optimistic.
    /// The prune recomputes the horizon authoritatively under the write-lock
    /// set (where the session-visibility argument in
    /// [`StoreCatalog::session_floor`] does hold), so it never trusts a
    /// number from here.
    fn horizon_snapshot(&self) -> (Epoch, Epoch) {
        let log = self.log.read().expect("log lock");
        let map = self.shards.read().expect("shard map lock");
        let mut ids: Vec<ParticipantId> = map.keys().copied().collect();
        ids.sort();
        let guards: Vec<_> = ids
            .iter()
            .map(|id| map.get(id).expect("listed shard").read().expect("shard lock"))
            .collect();
        let session_floor = self.session_floor();
        let horizon = converged_horizon(&log, guards.iter().map(|g| &**g), session_floor);
        (horizon, log.registry.largest_stable_epoch())
    }

    /// Runs `f` under the catalogue's full *write*-lock set — the log write
    /// lock plus every shard's write lock, acquired in the same total order
    /// as [`StoreCatalog::horizon_snapshot`] and [`StoreCatalog::snapshot`].
    /// The prune paths go through here so the lock discipline lives in one
    /// place.
    fn with_all_shards_write<R>(
        &self,
        f: impl FnOnce(&mut LogShard, &mut [std::sync::RwLockWriteGuard<'_, ParticipantShard>]) -> R,
    ) -> R {
        let mut log = self.log.write().expect("log lock");
        let map = self.shards.read().expect("shard map lock");
        let mut ids: Vec<ParticipantId> = map.keys().copied().collect();
        ids.sort();
        let mut guards: Vec<_> = ids
            .iter()
            .map(|id| map.get(id).expect("listed shard").write().expect("shard lock"))
            .collect();
        f(&mut log, &mut guards)
    }

    /// The current convergence horizon: the largest epoch `H` such that
    /// every registered, unretired participant's cursor has passed `H` and
    /// every trusted relevant entry at or below `H` is decided by its
    /// participant — capped by the membership frontier and by open sessions.
    /// Below `H`, nothing can ever be offered as a candidate again. This is
    /// the raw horizon; [`StoreCatalog::advance_horizon`] applies the
    /// retention policy on top.
    pub fn convergence_horizon(&self) -> Epoch {
        self.horizon_snapshot().0
    }

    /// The epoch the next [`StoreCatalog::prune_to_horizon`] would prune
    /// through: the convergence horizon capped by the retention policy
    /// (`Epoch::ZERO` under `KeepAll`). A **read-only preview** — nothing is
    /// pruned and nothing is logged; call
    /// [`StoreCatalog::prune_to_horizon`] to actually prune. Advisory too:
    /// the prune recomputes the horizon under its write locks, so a session
    /// opening concurrently with this call can make the actual prune stop
    /// earlier.
    pub fn advance_horizon(&self) -> Epoch {
        let policy = self.retention();
        let (horizon, stable) = self.horizon_snapshot();
        policy.cap(horizon, stable)
    }

    /// Prunes everything at or below the policy-capped convergence horizon,
    /// except the pinned-ancestor set: log entries, per-epoch relevance
    /// slices and causal DAG nodes go; decision sets stay. Runs
    /// under the log write lock plus every shard's write lock (sorted — the
    /// same total order as [`StoreCatalog::snapshot`]), so sessions,
    /// publishes and commits never observe a half-pruned catalogue; the WAL
    /// `Prune` record is appended under those locks, so replay prunes at
    /// exactly this point in the record stream. A pass that finds nothing
    /// newly prunable returns a no-op report.
    pub fn prune_to_horizon(&self) -> Result<PruneReport> {
        let policy = self.retention();
        if policy == RetentionPolicy::KeepAll {
            return Ok(PruneReport {
                live_log_entries: self.log_len() as u64,
                ..PruneReport::default()
            });
        }
        self.with_all_shards_write(|log, guards| {
            // The session floor is read *after* the write locks are held:
            // any session mid-open either finished inserting itself before
            // releasing the log lock (visible here) or is still blocked
            // behind this prune and will open against the pruned state.
            let session_floor = self.session_floor();
            let horizon = converged_horizon(log, guards.iter().map(|g| &**g), session_floor);
            let target = policy.cap(horizon, log.registry.largest_stable_epoch());
            if target <= log.pruned_through {
                return Ok(PruneReport {
                    horizon: log.pruned_through,
                    live_log_entries: log.log.len() as u64,
                    ..PruneReport::default()
                });
            }
            let record =
                self.durability.is_durable().then_some(WalRecord::Prune { horizon: target });
            let report = prune_locked(log, guards, target, &self.schema);
            if let Some(record) = record {
                self.durability.append(&record)?;
            }
            Ok(report)
        })
    }

    /// The participant's most recent committed reconciliation number.
    pub fn current_reconciliation(&self, participant: ParticipantId) -> ReconciliationId {
        self.shard_of(participant)
            .and_then(|shard| shard.read().expect("shard lock").record.last_reconciliation())
            .map(|(r, _)| r)
            .unwrap_or_default()
    }

    /// A shared snapshot of the participant's rejected set (a reference-count
    /// bump over the incrementally maintained record).
    pub fn rejected_set(&self, participant: ParticipantId) -> Arc<FxHashSet<TransactionId>> {
        self.shard_of(participant)
            .map(|shard| shard.read().expect("shard lock").record.rejected_snapshot())
            .unwrap_or_default()
    }

    /// A shared snapshot of the participant's accepted set.
    pub fn accepted_set(&self, participant: ParticipantId) -> Arc<FxHashSet<TransactionId>> {
        self.shard_of(participant)
            .map(|shard| shard.read().expect("shard lock").record.accepted_snapshot())
            .unwrap_or_default()
    }

    /// The priority the participant's policy assigns to a transaction
    /// ([`Priority::UNTRUSTED`] if the participant has no registered policy).
    pub fn priority_for(&self, participant: ParticipantId, txn: &Transaction) -> Priority {
        self.policy(participant)
            .map(|p| p.priority_by_origin(txn, &self.schema))
            .unwrap_or(Priority::UNTRUSTED)
    }

    /// Looks up a published transaction, sharing the log's copy.
    pub fn transaction(&self, id: TransactionId) -> Option<Arc<Transaction>> {
        self.log.read().expect("log lock").log.get_arc(id)
    }

    /// The epoch in which a transaction was published, if it is in the log.
    pub fn epoch_of(&self, id: TransactionId) -> Option<Epoch> {
        self.log.read().expect("log lock").log.epoch_of(id)
    }

    /// The participant's accepted transactions in acceptance order, grouped
    /// into **replay units**: maximal runs in which each transaction is a
    /// direct antecedent of a later one in the same run. A unit is exactly
    /// the slice of one candidate's extension that was newly accepted with
    /// it, and the participant applied the unit's *flattened* net effect —
    /// so instance reconstruction must flatten per unit too (a
    /// modify-and-modify-back chain accepted as one extension applied
    /// nothing, which per-transaction replay would get wrong). Derived
    /// entirely from durable state: the acceptance order and the log's
    /// antecedent index. An accepted id the log no longer holds (retention
    /// pruned it) is left out, so the units hold fewer transactions than the
    /// accepted set exactly when pruning took part of the history.
    pub fn accepted_replay_units(&self, participant: ParticipantId) -> Vec<Vec<Arc<Transaction>>> {
        let Some(shard) = self.shard_of(participant) else { return Vec::new() };
        let order: Vec<TransactionId> =
            shard.read().expect("shard lock").record.accepted_in_order().to_vec();
        let log = &self.log.read().expect("log lock").log;
        let mut units: Vec<Vec<Arc<Transaction>>> = Vec::new();
        let mut current: Vec<Arc<Transaction>> = Vec::new();
        let mut current_positions: FxHashSet<u64> = FxHashSet::default();
        for id in order {
            let (Some(txn), Some(pos)) = (log.get_arc(id), log.position_of(id)) else { continue };
            let joins = !current.is_empty()
                && log.entry_antecedents(pos).iter().any(|a| current_positions.contains(a));
            if !joins && !current.is_empty() {
                units.push(std::mem::take(&mut current));
                current_positions.clear();
            }
            current_positions.insert(pos);
            current.push(txn);
        }
        if !current.is_empty() {
            units.push(current);
        }
        units
    }

    /// The relevant, trusted transactions at or before the participant's
    /// epoch cursor that it has *not* yet decided — exactly the candidates
    /// its earlier reconciliations deferred. This is the recovery stream a
    /// rebuilt participant uses to reconstruct its deferred soft state (the
    /// paper's soft-state property); it is not charged to the reconciliation
    /// cost model. Candidates come back in publication order with their
    /// extensions, like a session batch.
    pub fn undecided_candidates(&self, participant: ParticipantId) -> Vec<CandidateTransaction> {
        let Some(shard) = self.shard_of(participant) else { return Vec::new() };
        // Lock order: log before shard.
        let log = self.log.read().expect("log lock");
        let shard = shard.read().expect("shard lock");
        let cursor = shard.epoch_cursor();
        if cursor == Epoch::ZERO {
            return Vec::new();
        }
        let accepted = shard.record.accepted_snapshot();
        let mut out = Vec::new();
        for &(_, (id, priority)) in shard.relevance.range(Epoch::ZERO, cursor) {
            if shard.record.is_decided(id) {
                continue;
            }
            let Some(entry) = log.log.entry(id) else { continue };
            let (candidate, _) = self.build_candidate(&log.log, &accepted, entry, priority);
            out.push(candidate);
        }
        out
    }

    /// The transactions of epochs `(previous, epoch]` a session of the
    /// participant over that range is *not* offered because its policy gives
    /// them priority zero: foreign, undecided, untrusted, above the shard's
    /// relevance floor. The relevance index does not store them; this is for
    /// the DHT store's Figure 7 accounting, where the reconciling peer learns
    /// each one's fate from its transaction controller by a
    /// request/notification round trip. Re-evaluates the policy over the
    /// range — the cost belongs to the one store that models it. A
    /// participant without a registered policy is offered nothing and asks
    /// about nothing.
    pub fn untrusted_undecided(
        &self,
        participant: ParticipantId,
        previous: Epoch,
        epoch: Epoch,
    ) -> Vec<TransactionId> {
        let Some(shard) = self.shard_of(participant) else { return Vec::new() };
        // Lock order: log before shard.
        let log = self.log.read().expect("log lock");
        let shard = shard.read().expect("shard lock");
        if !shard.registered {
            return Vec::new();
        }
        log.log
            .in_range(previous.max(shard.relevance_floor), epoch)
            .into_iter()
            .filter(|txn| {
                txn.origin() != participant
                    && !shard.record.is_decided(txn.id())
                    && shard.policy.priority_by_origin(txn, &self.schema).is_untrusted()
            })
            .map(Transaction::id)
            .collect()
    }

    /// Builds the candidate (transaction extension plus priority) for a
    /// trusted transaction, excluding antecedents the participant has already
    /// accepted. Returns the candidate together with the number of extension
    /// members that had to be fetched (used by the DHT store's message
    /// accounting). Members share the log's update lists by reference count.
    /// The candidate comes with a flattening derived once for every
    /// participant: the root transaction's own
    /// ([`Transaction::own_flattening`]) when the extension is the root
    /// alone, shared by rebuilds that replay it too, and the chain memo's
    /// entry for its exact member list otherwise
    /// ([`StoreCatalog::chain_flattening`]).
    fn build_candidate(
        &self,
        log: &TransactionLog,
        accepted: &FxHashSet<TransactionId>,
        entry: &LogEntry,
        priority: Priority,
    ) -> (CandidateTransaction, usize) {
        let txn = &entry.transaction;
        // The extension names live entries only, the root last.
        let ids = log.transaction_extension(txn, accepted);
        let members: Vec<_> = ids
            .iter()
            .map(|&id| (id, log.get(id).expect("extension member in the log").shared_updates()))
            .collect();
        let fetched = members.len() - 1;
        let candidate = CandidateTransaction::from_members(txn.id(), priority, members);
        let flat = if fetched == 0 {
            txn.own_flattening(&self.schema).cloned()
        } else {
            Some(self.chain_flattening(ids, entry.epoch, &candidate))
        };
        (candidate.with_shared_flattening(flat.as_ref()), fetched)
    }

    /// The memoised flattening of the chain `ids` (root last, published in
    /// `epoch`), flattened from `candidate` on a miss — outside the memo
    /// lock, so two builders may race; the first insert wins and the other
    /// adopts its [`Arc`].
    fn chain_flattening(
        &self,
        ids: Vec<TransactionId>,
        epoch: Epoch,
        candidate: &CandidateTransaction,
    ) -> Arc<FlatExtension> {
        if let Some((_, flat)) = self.chains.lock().expect("chain memo lock").chains.get(&*ids) {
            return Arc::clone(flat);
        }
        let flat = Arc::new(candidate.flattened(&self.schema));
        let mut memo = self.chains.lock().expect("chain memo lock");
        memo.oldest = if memo.chains.is_empty() { epoch } else { memo.oldest.min(epoch) };
        Arc::clone(&memo.chains.entry(ids.into_boxed_slice()).or_insert((epoch, flat)).1)
    }

    /// Evicts the memoised chains no session will offer again: those whose
    /// root every registered, unretired participant's cursor has passed. A
    /// participant calls it when its cursor moves to `passed` (a commit) or
    /// leaves the minimum altogether (a retirement, `Epoch(u64::MAX)`); the
    /// shards are read only when the memo holds a root at or below
    /// `passed`, which is the only way this call can release one. Takes no
    /// lock while holding the memo's.
    fn sweep_chains(&self, passed: Epoch) {
        {
            let memo = self.chains.lock().expect("chain memo lock");
            if memo.chains.is_empty() || memo.oldest > passed {
                return;
            }
        }
        let floor = self
            .shards
            .read()
            .expect("shard map lock")
            .values()
            .filter_map(|shard| {
                let shard = shard.read().expect("shard lock");
                (shard.registered && !shard.retired).then(|| shard.epoch_cursor())
            })
            .min()
            .unwrap_or(Epoch(u64::MAX));
        self.chains.lock().expect("chain memo lock").evict_through(floor);
    }

    /// Rebuilds a catalogue from a durability directory: loads the snapshot
    /// (if one exists), re-derives every index the snapshot does not carry
    /// (log indexes, the per-participant relevance slices, the `Arc`-snapshot
    /// accepted/rejected sets), replays the current WAL generation on top,
    /// in file order, through the live write path, and keeps the backend
    /// that opened the file, so the recovered store appends to the same log.
    /// Replay runs while the catalogue is still [`Durability::Ephemeral`],
    /// so it appends nothing.
    /// The result is byte-identical durable state — the recovery tests pin
    /// this down through the canonical `Debug` rendering.
    pub fn recover(dir: &Path) -> Result<StoreCatalog> {
        let snap = snapshot::read_snapshot(dir)?;
        let generation = snap.as_ref().map(|s| s.wal_generation).unwrap_or(0);
        let wal_file = snapshot::wal_path(dir, generation);
        if snap.is_none() && !wal_file.exists() {
            return Err(StorageError::Persistence(format!(
                "{} holds no snapshot and no WAL to recover from",
                dir.display()
            )));
        }
        // Replay the generation's file in the order it was written: every
        // append ran under the catalogue lock guarding the state its record
        // changes, so file order respects every dependency between records.
        let (backend, records) = FileWalBackend::open(dir, generation)?;
        let mut records = records.into_iter();

        let catalog = match snap {
            Some(snap) => StoreCatalog::from_snapshot(snap)?,
            None => match records.next() {
                Some(WalRecord::Init { schema }) => StoreCatalog::new(schema),
                other => {
                    return Err(StorageError::Persistence(format!(
                        "generation-0 WAL must start with an Init record, found {other:?}"
                    )))
                }
            },
        };
        for record in records {
            catalog.replay(record)?;
        }
        let mut catalog = catalog;
        catalog.durability = Durability::FileWal(backend);
        Ok(catalog)
    }

    /// [`StoreCatalog::recover`] from this catalogue's directory, refused
    /// unless it renders byte-identically to this one, retention policy
    /// included (see [`UpdateStore::restart`](crate::UpdateStore)).
    pub fn restart(&self) -> Result<StoreCatalog> {
        let Durability::FileWal(backend) = &self.durability else {
            return Err(StorageError::Persistence(
                "cannot restart an ephemeral catalogue".to_string(),
            ));
        };
        let recovered = StoreCatalog::recover(backend.dir())?;
        if format!("{recovered:?}") != format!("{self:?}") {
            return Err(StorageError::Persistence(format!(
                "the catalogue recovered from {} differs from the one that crashed",
                backend.dir().display()
            )));
        }
        Ok(recovered)
    }

    /// Builds the in-memory state a snapshot describes, re-deriving the
    /// derived structures: log indexes, `Arc`-snapshot decision sets, the
    /// trust index and every registered shard's relevance slice (the WAL
    /// tail then extends the slices publish by publish, as the live run
    /// did). The slices are built in one pass over the log that offers each
    /// entry to the shards the trust index lists for its origin, exactly as
    /// a publish does.
    fn from_snapshot(snap: StoreSnapshot) -> Result<StoreCatalog> {
        let StoreSnapshot {
            schema,
            registry,
            mut log,
            membership_frontier,
            pruned_through,
            retention,
            participants,
            ..
        } = snap;
        log.rebuild_indexes();
        let mut shards: FxHashMap<ParticipantId, SharedShard> = FxHashMap::default();
        for p in participants {
            shards.insert(
                p.id,
                Arc::new(RwLock::new(ParticipantShard {
                    policy: p.policy,
                    registered: p.registered,
                    retired: p.retired,
                    relevance: RelevanceSlice::default(),
                    relevance_floor: p.relevance_floor,
                    record: p.record,
                })),
            );
        }
        let trust = TrustIndex::over(&shards);
        for entry in log.entries() {
            let txn = entry.transaction.as_ref();
            for (_, shard) in trust.candidates(std::iter::once(txn.origin())) {
                let mut shard = shard.write().expect("shard lock");
                if entry.epoch > shard.relevance_floor {
                    if let Some(relevant) = relevance_entry(&shard.policy, txn, &schema) {
                        shard.relevance.push(entry.epoch, relevant);
                    }
                }
            }
        }
        Ok(StoreCatalog {
            schema,
            log: RwLock::new(LogShard { registry, log, membership_frontier, pruned_through }),
            trust: Mutex::new(trust),
            shards: RwLock::new(shards),
            sessions: Mutex::new(FxHashMap::default()),
            next_session: AtomicU64::new(1),
            durability: Durability::Ephemeral,
            retention: RwLock::new(retention),
            chains: Mutex::default(),
        })
    }

    /// Applies one WAL record during recovery through the public write
    /// methods live callers use: a recorded publish becomes a publish pinned
    /// at its recorded epoch. Only a commit (whose session is soft state)
    /// and a prune (at its recorded horizon, not a recomputed one) apply
    /// their effect directly.
    fn replay(&self, record: WalRecord) -> Result<()> {
        match record {
            WalRecord::Init { schema } => {
                if schema != self.schema {
                    return Err(StorageError::Persistence(
                        "WAL Init schema differs from the recovered schema".to_string(),
                    ));
                }
            }
            WalRecord::RegisterPolicy { policy } => self.register_policy(policy),
            WalRecord::Publish { participant, epoch, transactions } => {
                self.publish(participant, None, Some(epoch), transactions)?;
            }
            WalRecord::PublishCausal { epoch, stamp, transactions } => {
                self.publish(stamp.publisher, Some(&stamp), Some(epoch), transactions)?;
            }
            WalRecord::CommitReconciliation { participant, recno, epoch, accepted, rejected } => {
                let shard = self.ensure_shard(participant);
                let mut shard = shard.write().expect("shard lock");
                apply_reconciliation(&mut shard, recno, epoch, &accepted, &rejected);
            }
            WalRecord::Decisions { participant, accepted, rejected } => {
                self.record_decisions(participant, &accepted, &rejected)?;
            }
            WalRecord::MembershipFrontier { epoch } => {
                self.advance_membership_frontier(epoch)?;
            }
            WalRecord::RetireParticipant { participant } => {
                self.retire_participant(participant)?;
            }
            // The prune closure is deterministic over durable state, so
            // recover-then-prune and prune-then-recover are byte-identical.
            WalRecord::Prune { horizon } => self.with_all_shards_write(|log, guards| {
                if horizon <= log.pruned_through {
                    return Err(StorageError::Persistence(format!(
                        "WAL replay diverged: Prune record horizon {horizon} at or below \
                         already-pruned {}",
                        log.pruned_through
                    )));
                }
                prune_locked(log, guards, horizon, &self.schema);
                Ok(())
            })?,
            WalRecord::EpochMode { causal } => {
                if causal {
                    self.enable_causal_mode()?;
                }
            }
            WalRecord::Retention { policy } => self.set_retention(policy),
        }
        Ok(())
    }

    /// Takes a compacting snapshot: captures a consistent cut of the durable
    /// state (log read lock plus every shard's read lock, in the usual
    /// order), installs it atomically, and starts a fresh WAL generation —
    /// the old generation's log is deleted, bounding the on-disk footprint.
    /// Returns the new generation. Errors on an ephemeral catalogue.
    pub fn snapshot(&self) -> Result<u64> {
        let Durability::FileWal(backend) = &self.durability else {
            return Err(StorageError::Persistence(
                "cannot snapshot an ephemeral catalogue".to_string(),
            ));
        };
        // Lock order: log → shard map → shards → retention (all read).
        // Holding every read lock blocks writers, so no record can slip
        // between the cut and the generation switch.
        let log = self.log.read().expect("log lock");
        let map = self.shards.read().expect("shard map lock");
        let mut ids: Vec<ParticipantId> = map.keys().copied().collect();
        ids.sort();
        let guards: Vec<(ParticipantId, std::sync::RwLockReadGuard<'_, ParticipantShard>)> = ids
            .iter()
            .map(|id| (*id, map.get(id).expect("listed shard").read().expect("shard lock")))
            .collect();
        let participants = guards
            .iter()
            .map(|(id, shard)| ParticipantSnapshot {
                id: *id,
                policy: shard.policy.clone(),
                registered: shard.registered,
                retired: shard.retired,
                relevance_floor: shard.relevance_floor,
                record: shard.record.clone(),
            })
            .collect();
        let retention = self.retention.read().expect("retention lock");
        let snap = StoreSnapshot {
            schema: self.schema.clone(),
            registry: log.registry.clone(),
            log: log.log.clone(),
            membership_frontier: log.membership_frontier,
            pruned_through: log.pruned_through,
            retention: *retention,
            participants,
            wal_generation: 0, // stamped by install_snapshot
        };
        backend.install_snapshot(snap)
    }
}

/// The relevance entry `policy` gives `txn`, decided by origin where the
/// policy allows ([`TrustPolicy::priority_by_origin`]): none for a
/// transaction it does not trust, nor for one of its owner's own. The skip
/// goes by transaction *origin*, not by publisher, so a participant is never
/// offered its own transactions even if someone else published them on its
/// behalf.
fn relevance_entry(
    policy: &TrustPolicy,
    txn: &Transaction,
    schema: &Schema,
) -> Option<RelevanceEntry> {
    if txn.origin() == policy.owner() {
        return None;
    }
    let priority = policy.priority_by_origin(txn, schema);
    priority.is_trusted().then(|| (txn.id(), priority))
}

/// Builds a participant's slice of the relevance index from the publication
/// log restricted to epochs above `floor` — used when a policy is registered
/// (the floor is the membership frontier, or the pruned horizon when that is
/// higher, so a pruned store's pinned sub-horizon entries do not leak back
/// in). The slice holds what [`relevance_entry`] gives each entry, matching
/// the publish-time extension.
fn relevance_slice(
    log: &TransactionLog,
    schema: &Schema,
    policy: &TrustPolicy,
    floor: Epoch,
) -> RelevanceSlice {
    let mut index = RelevanceSlice::default();
    for entry in log.entries().filter(|entry| entry.epoch > floor) {
        if let Some(relevant) = relevance_entry(policy, entry.transaction.as_ref(), schema) {
            index.push(entry.epoch, relevant);
        }
    }
    index
}

/// Computes the convergence horizon over already-guarded state: the minimum
/// of the membership frontier, the stable frontier, every open session's
/// lower bound, every registered participant's cursor, and — per registered
/// participant — one epoch short of its earliest undecided trusted relevance
/// entry. Unregistered (and retired) shards never receive candidates and do
/// not pin. Monotone in time: cursors and decisions only advance, so the
/// horizon never moves backwards.
fn converged_horizon<'a>(
    log: &LogShard,
    shards: impl Iterator<Item = &'a ParticipantShard>,
    session_floor: Epoch,
) -> Epoch {
    let mut h = log
        .membership_frontier
        .as_u64()
        .min(log.registry.largest_stable_epoch().as_u64())
        .min(session_floor.as_u64());
    for shard in shards {
        if !shard.registered || shard.retired {
            continue;
        }
        h = h.min(shard.epoch_cursor().as_u64());
        if h == 0 {
            return Epoch::ZERO;
        }
        // The relevance index is scanned in epoch order; the first epoch
        // holding an undecided trusted entry caps the horizon just below it.
        // Everything below the shard's floor was decided before the floor
        // rose (registration floors start empty, prune floors require full
        // decision), so the scan is over the live slice only.
        let undecided = shard
            .relevance
            .range(Epoch::ZERO, Epoch(h))
            .iter()
            .find(|(_, (id, _))| !shard.record.is_decided(*id));
        if let Some((epoch, _)) = undecided {
            h = epoch.as_u64() - 1;
        }
        if h == 0 {
            return Epoch::ZERO;
        }
    }
    Epoch(h)
}

/// Prunes the guarded state through `horizon`, which lies above the current
/// pruned-through mark: drops sub-horizon log entries outside the
/// pinned-ancestor closure, sub-horizon causal DAG nodes, and every shard's
/// sub-horizon relevance slices; raises the relevance floors and the
/// pruned-through mark. Deterministic over durable state — live pruning and
/// WAL replay share this exact function.
fn prune_locked(
    log: &mut LogShard,
    shards: &mut [std::sync::RwLockWriteGuard<'_, ParticipantShard>],
    horizon: Epoch,
    schema: &Schema,
) -> PruneReport {
    let pinned = log.log.pinned_ancestors(schema, horizon);
    let pinned_count = pinned.len() as u64;
    let pruned_log_entries = log.log.prune_below(horizon, &pinned);
    let pruned_epoch_records = horizon.as_u64() - log.pruned_through.as_u64();
    log.registry.prune_through(horizon);
    let mut pruned_relevance_entries = 0u64;
    for shard in shards.iter_mut() {
        pruned_relevance_entries += shard.relevance.prune_through(horizon);
        if shard.registered {
            shard.relevance_floor = shard.relevance_floor.max(horizon);
        }
    }
    log.pruned_through = horizon;
    PruneReport {
        horizon,
        pruned_log_entries,
        pruned_relevance_entries,
        pruned_epoch_records,
        pinned: pinned_count,
        live_log_entries: log.log.len() as u64,
    }
}

/// Applies a committed reconciliation to a participant shard: the decisions
/// and the `(recno, epoch)` reconciliation record, which is the epoch cursor,
/// move together. Shared by the live commit path and WAL replay.
fn apply_reconciliation(
    shard: &mut ParticipantShard,
    recno: ReconciliationId,
    epoch: Epoch,
    accepted: &[TransactionId],
    rejected: &[TransactionId],
) {
    for id in accepted {
        shard.record.record(*id, Decision::Accepted);
    }
    for id in rejected {
        shard.record.record(*id, Decision::Rejected);
    }
    shard.record.record_reconciliation(recno, epoch);
}

impl Clone for StoreCatalog {
    /// Deep-copies the durable catalogue state (log, registry, shards).
    /// Open sessions are soft state and are *not* cloned — the clone starts
    /// with an empty session table. The clone is always **ephemeral**: a WAL
    /// file has one writer, so a durable catalogue's clone is an in-memory
    /// copy (use [`StoreCatalog::recover`] to reopen durable state).
    fn clone(&self) -> Self {
        let log = self.log.read().expect("log lock").clone();
        let shards: FxHashMap<ParticipantId, SharedShard> = self
            .shards
            .read()
            .expect("shard map lock")
            .iter()
            .map(|(id, shard)| {
                (*id, Arc::new(RwLock::new(shard.read().expect("shard lock").clone())))
            })
            .collect();
        StoreCatalog {
            schema: self.schema.clone(),
            log: RwLock::new(log),
            trust: Mutex::new(TrustIndex::over(&shards)),
            shards: RwLock::new(shards),
            sessions: Mutex::new(FxHashMap::default()),
            next_session: AtomicU64::new(1),
            durability: Durability::Ephemeral,
            retention: RwLock::new(self.retention()),
            chains: Mutex::default(),
        }
    }
}

impl fmt::Debug for StoreCatalog {
    /// Renders the *durable* state only (schema, log shard, participant
    /// shards in id order, retention policy). The session table and the
    /// handle counter are soft state and are deliberately excluded, so an
    /// aborted session leaves the Debug rendering byte-identical — the
    /// property the session tests pin down.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let log = self.log.read().expect("log lock");
        let shards = self.shards.read().expect("shard map lock");
        let ordered: BTreeMap<ParticipantId, ParticipantShard> = shards
            .iter()
            .map(|(id, shard)| (*id, shard.read().expect("shard lock").clone()))
            .collect();
        f.debug_struct("StoreCatalog")
            .field("schema", &self.schema)
            .field("log", &*log)
            .field("shards", &ordered)
            .field("retention", &self.retention())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orchestra_model::schema::bioinformatics_schema;
    use orchestra_model::{AcceptanceRule, Predicate, Tuple, Update, UpdateKind};
    use orchestra_spec::Spec;
    use proptest::prelude::*;

    fn p(i: u32) -> ParticipantId {
        ParticipantId(i)
    }

    fn func(org: &str, prot: &str, f: &str) -> Tuple {
        Tuple::of_text(&[org, prot, f])
    }

    fn txn(i: u32, j: u64, updates: Vec<Update>) -> Transaction {
        Transaction::from_parts(p(i), j, updates).unwrap()
    }

    /// The trust policies of the paper's Figure 1.
    fn policies() -> [TrustPolicy; 3] {
        [
            TrustPolicy::new(p(1)).trusting(p(2), 1u32).trusting(p(3), 1u32),
            TrustPolicy::new(p(2)).trusting(p(1), 2u32).trusting(p(3), 1u32),
            TrustPolicy::new(p(3)).trusting(p(2), 1u32),
        ]
    }

    fn catalog_with_policies() -> StoreCatalog {
        let cat = StoreCatalog::new(bioinformatics_schema());
        policies().into_iter().for_each(|policy| cat.register_policy(policy));
        cat
    }

    /// The registered participants, in order.
    fn registered(cat: &StoreCatalog) -> Vec<ParticipantId> {
        let mut ids: Vec<ParticipantId> = (cat.shards.read().unwrap().iter())
            .filter(|(_, shard)| shard.read().unwrap().registered)
            .map(|(id, _)| *id)
            .collect();
        ids.sort();
        ids
    }

    /// Drains every entry of a fresh session, committing nothing.
    fn session_entries(cat: &StoreCatalog, participant: ParticipantId) -> Vec<RelevanceEntry> {
        let opened = cat.open_session(participant).unwrap();
        let mut out = Vec::new();
        loop {
            let batch = cat.batch(opened.session, 100).unwrap();
            out.extend(batch.candidates.iter().map(|(c, _)| (c.id, c.priority)));
            if batch.exhausted {
                break;
            }
        }
        cat.abort_session(opened.session);
        out
    }

    #[test]
    fn publish_assigns_epochs_and_marks_own_accepted() {
        let cat = catalog_with_policies();
        let x = txn(3, 0, vec![Update::insert("Function", func("rat", "prot1", "a"), p(3))]);
        let e = cat.publish(p(3), None, None, vec![x.clone()]).unwrap();
        assert_eq!(e, Epoch(1));
        assert!(cat.accepted_set(p(3)).contains(&x.id()));
        assert_eq!(cat.largest_stable_epoch(), Epoch(1));
        assert_eq!(cat.transaction(x.id()).unwrap().as_ref(), &x);
        assert_eq!(registered(&cat), vec![p(1), p(2), p(3)]);
        assert_eq!(cat.log_len(), 1);
    }

    #[test]
    fn sessions_exclude_own_and_decided() {
        let cat = catalog_with_policies();
        let x3 = txn(3, 0, vec![Update::insert("Function", func("rat", "prot1", "a"), p(3))]);
        let x2 = txn(2, 0, vec![Update::insert("Function", func("mouse", "prot2", "b"), p(2))]);
        cat.publish(p(3), None, None, vec![x3.clone()]).unwrap();
        cat.publish(p(2), None, None, vec![x2.clone()]).unwrap();

        let opened = cat.open_session(p(2)).unwrap();
        assert_eq!(opened.recno, ReconciliationId(1));
        assert_eq!(opened.previous, Epoch::ZERO);
        assert_eq!(opened.epoch, Epoch(2));
        let batch = cat.batch(opened.session, 10).unwrap();
        // p2's own transaction is excluded; p3's is relevant.
        assert_eq!(batch.candidates.len(), 1);
        assert_eq!(batch.candidates[0].0.id, x3.id());
        cat.abort_session(opened.session);

        // After p2 rejects it, it is no longer relevant.
        cat.record_decisions(p(2), &[], &[x3.id()]).unwrap();
        assert!(session_entries(&cat, p(2)).is_empty());
        assert!(cat.rejected_set(p(2)).contains(&x3.id()));
    }

    #[test]
    fn priorities_follow_registered_policies() {
        let cat = catalog_with_policies();
        let from1 = txn(1, 0, vec![Update::insert("Function", func("a", "b", "c"), p(1))]);
        cat.publish(p(1), None, None, vec![from1.clone()]).unwrap();
        assert_eq!(cat.priority_for(p(2), &from1), Priority(2));
        assert_eq!(cat.priority_for(p(3), &from1), Priority::UNTRUSTED);
        // Unregistered participants trust nothing.
        assert_eq!(cat.priority_for(p(9), &from1), Priority::UNTRUSTED);
        assert!(cat.policy(p(1)).is_some());
        assert!(cat.policy(p(9)).is_none());
        // The publisher's auto-created shard never lists it as registered.
        let unregistered = StoreCatalog::new(bioinformatics_schema());
        unregistered
            .publish(
                p(7),
                None,
                None,
                vec![txn(7, 0, vec![Update::insert("Function", func("x", "y", "z"), p(7))])],
            )
            .unwrap();
        assert!(registered(&unregistered).is_empty());
        assert!(unregistered.policy(p(7)).is_none());
    }

    #[test]
    fn candidates_include_undecided_antecedents() {
        let cat = catalog_with_policies();
        let x0 = txn(3, 0, vec![Update::insert("Function", func("rat", "prot1", "v1"), p(3))]);
        let x1 = txn(
            2,
            0,
            vec![Update::modify(
                "Function",
                func("rat", "prot1", "v1"),
                func("rat", "prot1", "v2"),
                p(2),
            )],
        );
        cat.publish(p(3), None, None, vec![x0.clone()]).unwrap();
        cat.publish(p(2), None, None, vec![x1.clone()]).unwrap();

        // p1 trusts both; the candidate for x1 must carry x0 as a member.
        let opened = cat.open_session(p(1)).unwrap();
        let batch = cat.batch(opened.session, 10).unwrap();
        cat.abort_session(opened.session);
        let (cand, fetched) =
            batch.candidates.iter().find(|(c, _)| c.id == x1.id()).cloned().unwrap();
        assert_eq!(fetched, 1);
        assert_eq!(cand.members.len(), 2);
        assert_eq!(cand.members[0].0, x0.id());
        assert_eq!(cand.members[1].0, x1.id());

        // Once p1 has accepted x0, the extension stops at x1.
        cat.record_decisions(p(1), &[x0.id()], &[]).unwrap();
        let opened = cat.open_session(p(1)).unwrap();
        let batch = cat.batch(opened.session, 10).unwrap();
        cat.abort_session(opened.session);
        let (cand, fetched) =
            batch.candidates.iter().find(|(c, _)| c.id == x1.id()).cloned().unwrap();
        assert_eq!(fetched, 0);
        assert_eq!(cand.members.len(), 1);
    }

    /// Whether the store handed `cand` a flattening: two copies of it flatten
    /// to one `Arc` only when the flattening was in it before either asked.
    fn handed_a_flattening(cand: &CandidateTransaction, schema: &Schema) -> bool {
        let (a, b) = (cand.clone(), cand.clone());
        Arc::ptr_eq(a.flattening(schema), b.flattening(schema))
    }

    /// Drains one page of a fresh session for `participant`, aborting it.
    fn one_page(cat: &StoreCatalog, participant: ParticipantId) -> Vec<CandidateTransaction> {
        let opened = cat.open_session(participant).unwrap();
        let batch = cat.batch(opened.session, 10).unwrap();
        cat.abort_session(opened.session);
        batch.candidates.into_iter().map(|(c, _)| c).collect()
    }

    #[test]
    fn a_root_alone_carries_its_entrys_flattening_to_every_participant() {
        let cat = catalog_with_policies();
        let v = |value| func("rat", "prot1", value);
        let x3 = txn(3, 0, vec![Update::insert("Function", v("v1"), p(3))]);
        // Both read x3's tuple: for a participant that has not accepted x3,
        // each is a chain behind it.
        let y3 = txn(3, 1, vec![Update::modify("Function", v("v1"), v("v2"), p(3))]);
        let x2 = txn(2, 0, vec![Update::modify("Function", v("v1"), v("v3"), p(2))]);
        // One key twice: no flattening of its own.
        let twice = txn(
            3,
            2,
            vec![
                Update::insert("Function", func("dog", "prot9", "a"), p(3)),
                Update::modify(
                    "Function",
                    func("dog", "prot9", "a"),
                    func("dog", "prot9", "b"),
                    p(3),
                ),
            ],
        );
        for (who, t) in [(3, &x3), (3, &y3), (2, &x2), (3, &twice)] {
            cat.publish(p(who), None, None, vec![t.clone()]).unwrap();
        }
        let find =
            |page: &[CandidateTransaction], id| page.iter().find(|c| c.id == id).cloned().unwrap();
        let schema = cat.schema();

        // p1 and p2 have accepted nothing of p3's, so they cut every root's
        // extension the same way: one flattening per member list, shared by
        // both and equal to the one either would have computed.
        let (of_p1, of_p2) = (one_page(&cat, p(1)), one_page(&cat, p(2)));
        for root in [x3.id(), y3.id()] {
            let (a, b) = (find(&of_p1, root), find(&of_p2, root));
            assert_eq!(a.members, b.members);
            let (a_flat, b_flat) = (a.flattening(schema), b.flattening(schema));
            assert!(Arc::ptr_eq(a_flat, b_flat));
            assert_eq!(a_flat.updates(), a.flattened(schema).updates());
        }
        assert_eq!(find(&of_p1, y3.id()).members.len(), 2);
        assert!(!handed_a_flattening(&find(&of_p1, twice.id()), schema));

        // Once p1 has accepted x3, x2 is the root alone, handed x2's own
        // flattening rather than the chain's.
        let chain = find(&of_p1, x2.id());
        assert_eq!(chain.members.len(), 2);
        cat.record_decisions(p(1), &[x3.id()], &[]).unwrap();
        let alone = find(&one_page(&cat, p(1)), x2.id());
        assert_eq!(alone.members.len(), 1);
        let own = cat.transaction(x2.id()).unwrap();
        let own = own.own_flattening(schema).unwrap();
        assert!(Arc::ptr_eq(alone.flattening(schema), own));
        assert!(!Arc::ptr_eq(alone.flattening(schema), chain.flattening(schema)));
        assert_eq!(own.updates(), alone.flattened(schema).updates());
    }

    /// The root epochs of the memoised chains, in ascending order.
    fn memo_roots(cat: &StoreCatalog) -> Vec<Epoch> {
        let memo = cat.chains.lock().expect("chain memo lock");
        let mut roots: Vec<Epoch> = memo.chains.values().map(|(root, _)| *root).collect();
        roots.sort();
        roots
    }

    /// Opens a session for `participant`, builds every candidate and commits
    /// deciding nothing: the roots stay undecided and the cursor moves to the
    /// session epoch, which it returns.
    fn reconcile_deferring_all(cat: &StoreCatalog, participant: ParticipantId) -> Epoch {
        let opened = cat.open_session(participant).unwrap();
        while !cat.batch(opened.session, 64).unwrap().exhausted {}
        cat.commit_session(opened.session, &[], &[]).unwrap().2
    }

    /// Publishes one modify per step on a single key, each by the next of
    /// three participants: every transaction after the first is a chain
    /// behind all of its predecessors.
    fn publish_chain(cat: &StoreCatalog, steps: std::ops::Range<u64>) {
        let v = |step: u64| func("rat", "prot1", &format!("v{step}"));
        for step in steps {
            let who = (step % 3) as u32 + 1;
            let update = if step == 0 {
                Update::insert("Function", v(0), p(who))
            } else {
                Update::modify("Function", v(step - 1), v(step), p(who))
            };
            cat.publish(p(who), None, None, vec![txn(who, step, vec![update])]).unwrap();
        }
    }

    #[test]
    fn the_chain_memo_holds_a_root_until_every_cursor_has_passed_it() {
        let cat = fully_trusting(3);
        publish_chain(&cat, 0..6);
        // p3 reconciles once and then stays away: it pins what lies above.
        let stayed_at = reconcile_deferring_all(&cat, p(3));
        assert!(!memo_roots(&cat).is_empty());
        publish_chain(&cat, 6..12);
        for i in [1, 2] {
            reconcile_deferring_all(&cat, p(i));
        }
        let pinned = memo_roots(&cat);
        assert!(!pinned.is_empty());
        assert!(pinned.iter().all(|root| *root > stayed_at), "{pinned:?} ≤ {stayed_at}");

        // Once p3 has committed past the last epoch too, nothing is left.
        reconcile_deferring_all(&cat, p(3));
        assert_eq!(memo_roots(&cat), []);

        // A retirement releases the pin a participant that stays away holds.
        publish_chain(&cat, 12..18);
        for i in [1, 2] {
            reconcile_deferring_all(&cat, p(i));
        }
        assert!(!memo_roots(&cat).is_empty());
        cat.retire_participant(p(3)).unwrap();
        assert_eq!(memo_roots(&cat), []);
    }

    #[test]
    fn a_prune_leaves_no_memoised_chain_at_or_below_its_horizon() {
        let cat = fully_trusting(3);
        cat.set_retention(RetentionPolicy::ConvergedOnly);
        cat.close_membership().unwrap();
        publish_chain(&cat, 0..6);
        reconcile_accept_all(&cat, p(3));
        publish_chain(&cat, 6..12);
        for i in [1, 2] {
            reconcile_accept_all(&cat, p(i));
        }
        let before = memo_roots(&cat);
        let horizon = cat.prune_to_horizon().unwrap().horizon;
        assert!(horizon > Epoch::ZERO);
        // The horizon is at most p3's cursor, which the commits already
        // swept through; the chains above it, which p3 will still be
        // offered, stay.
        let after = memo_roots(&cat);
        assert!(!after.is_empty());
        assert!(after.iter().all(|root| *root > horizon));
        assert_eq!(after, before.into_iter().filter(|root| *root > horizon).collect::<Vec<_>>());
    }

    #[test]
    fn committed_sessions_advance_the_cursor_and_recno() {
        let cat = catalog_with_policies();
        let x = txn(3, 0, vec![Update::insert("Function", func("rat", "prot1", "a"), p(3))]);
        cat.publish(p(3), None, None, vec![x]).unwrap();
        assert_eq!(cat.epoch_cursor(p(1)), Epoch::ZERO);
        let opened = cat.open_session(p(1)).unwrap();
        assert_eq!((opened.recno, opened.epoch), (ReconciliationId(1), Epoch(1)));
        // Nothing durable changed yet.
        assert_eq!(cat.current_reconciliation(p(1)), ReconciliationId::default());
        assert_eq!(cat.epoch_cursor(p(1)), Epoch::ZERO);
        cat.commit_session(opened.session, &[], &[]).unwrap();
        assert_eq!(cat.current_reconciliation(p(1)), ReconciliationId(1));
        assert_eq!(cat.epoch_cursor(p(1)), Epoch(1));

        let y = txn(2, 0, vec![Update::insert("Function", func("mouse", "prot2", "b"), p(2))]);
        cat.publish(p(2), None, None, vec![y]).unwrap();
        let opened = cat.open_session(p(1)).unwrap();
        assert_eq!(opened.recno, ReconciliationId(2));
        assert_eq!(opened.previous, Epoch(1));
        assert_eq!(opened.epoch, Epoch(2));
        cat.commit_session(opened.session, &[], &[]).unwrap();
    }

    #[test]
    fn aborted_sessions_change_nothing_and_unknown_handles_error() {
        let cat = catalog_with_policies();
        let x = txn(3, 0, vec![Update::insert("Function", func("rat", "prot1", "a"), p(3))]);
        cat.publish(p(3), None, None, vec![x]).unwrap();
        let before = format!("{cat:?}");
        let opened = cat.open_session(p(1)).unwrap();
        assert_eq!(cat.open_sessions(), 1);
        assert!(cat.abort_session(opened.session));
        assert_eq!(cat.open_sessions(), 0);
        assert_eq!(format!("{cat:?}"), before);
        // Double abort is a no-op; batch/commit on the dead handle error.
        assert!(!cat.abort_session(opened.session));
        assert!(matches!(cat.batch(opened.session, 1), Err(StorageError::Session(_))));
        assert!(matches!(
            cat.commit_session(opened.session, &[], &[]),
            Err(StorageError::Session(_))
        ));
    }

    #[test]
    fn overlapping_sessions_for_one_participant_are_rejected() {
        // Two live sessions for the same participant would commit duplicate
        // recnos and could move the epoch cursor backwards; the second open
        // must fail until the first finishes. Different participants overlap
        // freely (covered by the interleaved-session integration test).
        let cat = catalog_with_policies();
        let first = cat.open_session(p(1)).unwrap();
        assert!(matches!(cat.open_session(p(1)), Err(StorageError::Session(_))));
        let other = cat.open_session(p(2)).unwrap();
        cat.abort_session(other.session);
        cat.commit_session(first.session, &[], &[]).unwrap();
        // After the commit, a fresh session opens with the next recno.
        let second = cat.open_session(p(1)).unwrap();
        assert_eq!(second.recno, ReconciliationId(2));
        cat.abort_session(second.session);
    }

    #[test]
    fn duplicate_publication_is_rejected_atomically() {
        // A batch containing an already-published (or internally duplicated)
        // id fails before anything is mutated: no epoch is allocated, no
        // relevance entry or decision leaks.
        let cat = catalog_with_policies();
        let x = txn(3, 0, vec![Update::insert("Function", func("rat", "prot1", "a"), p(3))]);
        cat.publish(p(3), None, None, vec![x.clone()]).unwrap();
        let before = format!("{cat:?}");
        let y = txn(3, 1, vec![Update::insert("Function", func("rat", "prot2", "b"), p(3))]);
        assert!(cat.publish(p(3), None, None, vec![y.clone(), x.clone()]).is_err());
        assert!(cat.publish(p(3), None, None, vec![y.clone(), y.clone()]).is_err());
        assert_eq!(format!("{cat:?}"), before, "failed publish mutated the catalogue");
        assert_eq!(cat.largest_stable_epoch(), Epoch(1));
    }

    /// The relevance index, the epoch cursor and the decided filter hand
    /// every participant's session what the executable spec retrieves.
    #[test]
    fn relevance_index_matches_the_spec() {
        fn publish(cat: &StoreCatalog, spec: &mut Spec, txn: Transaction) {
            cat.publish(txn.origin(), None, None, vec![txn.clone()]).unwrap();
            spec.execute(txn.clone());
            spec.publish(txn.origin(), &[txn.id()]);
        }
        let (cat, mut spec) =
            (catalog_with_policies(), Spec::new(bioinformatics_schema(), policies()));
        let x3 = txn(3, 0, vec![Update::insert("Function", func("rat", "prot1", "a"), p(3))]);
        publish(&cat, &mut spec, x3);
        let x1 = txn(1, 0, vec![Update::insert("Function", func("dog", "prot9", "z"), p(1))]);
        publish(&cat, &mut spec, x1);
        // p1 reconciles what it has seen, and the catalogue records the
        // spec's decisions; then p2 publishes.
        let decided = spec.reconcile(p(1));
        let opened = cat.open_session(p(1)).unwrap();
        cat.commit_session(opened.session, &decided[0], &decided[1]).unwrap();
        let x2 = txn(2, 0, vec![Update::insert("Function", func("mouse", "prot2", "b"), p(2))]);
        publish(&cat, &mut spec, x2);

        for participant in [p(1), p(2), p(3)] {
            let retrieved = spec.retrieve(participant).into_iter().map(|c| (c.id, c.priority));
            let retrieved: Vec<RelevanceEntry> = retrieved.collect();
            assert_eq!(session_entries(&cat, participant), retrieved, "{participant} diverged");
        }
    }

    #[test]
    fn late_registration_rebuilds_the_relevance_index() {
        let cat = StoreCatalog::new(bioinformatics_schema());
        cat.register_policy(TrustPolicy::new(p(2)));
        let x2 = txn(2, 0, vec![Update::insert("Function", func("rat", "prot1", "a"), p(2))]);
        cat.publish(p(2), None, None, vec![x2.clone()]).unwrap();

        // p1 registers only after the publication; its index must cover the
        // already-published epoch.
        cat.register_policy(TrustPolicy::new(p(1)).trusting(p(2), 3u32));
        let found = session_entries(&cat, p(1));
        assert_eq!(found, vec![(x2.id(), Priority(3))]);
    }

    /// A shard's stored relevance slice, with each entry's epoch.
    fn stored_slice(
        cat: &StoreCatalog,
        participant: ParticipantId,
    ) -> Vec<(Epoch, RelevanceEntry)> {
        cat.shard_of(participant)
            .map(|shard| shard.read().unwrap().relevance.0.clone())
            .unwrap_or_default()
    }

    /// Several entries per epoch, cursors at different epochs and a deferred
    /// pair: every participant's session range (cursor, stable epoch], its
    /// deferred stream (0, cursor] and the horizon just below the first
    /// undecided entry are what the spec says — live, after a prune that
    /// cuts the slices' first epoch, and after recovery from a snapshot
    /// (whose slices are built in one pass over the log) plus a WAL tail.
    /// p4's rule reads the relation, so the origin cannot decide it and every
    /// publish evaluates it per update; p5 trusts a set of origins, decided
    /// by origin like the Figure 1 policies.
    #[test]
    fn relevance_ranges_match_the_spec_across_prune_and_recovery() {
        fn publish(cat: &StoreCatalog, spec: &mut Spec, who: u32, batch: &[(u64, &str, &str)]) {
            let txns: Vec<Transaction> = batch
                .iter()
                .map(|&(j, prot, f)| {
                    txn(who, j, vec![Update::insert("Function", func("rat", prot, f), p(who))])
                })
                .collect();
            cat.publish(p(who), None, None, txns.clone()).unwrap();
            let ids: Vec<TransactionId> = txns.iter().map(Transaction::id).collect();
            txns.into_iter().for_each(|txn| spec.execute(txn));
            spec.publish(p(who), &ids);
        }
        fn reconcile(cat: &StoreCatalog, spec: &mut Spec, who: u32) {
            let decided = spec.reconcile(p(who));
            let opened = cat.open_session(p(who)).unwrap();
            cat.commit_session(opened.session, &decided[0], &decided[1]).unwrap();
        }
        fn check(cat: &StoreCatalog, spec: &Spec) {
            for who in [p(1), p(2), p(3), p(4), p(5)] {
                let retrieved: Vec<RelevanceEntry> =
                    spec.retrieve(who).into_iter().map(|c| (c.id, c.priority)).collect();
                assert_eq!(session_entries(cat, who), retrieved, "{who}'s session");
                let deferred: std::collections::BTreeSet<TransactionId> =
                    cat.undecided_candidates(who).into_iter().map(|c| c.id).collect();
                assert_eq!(deferred, spec.peer(who).deferred, "{who}'s deferred stream");
            }
            // p1 and p4 defer the epoch 2 / epoch 3 pair; nothing else is
            // open.
            assert_eq!(cat.convergence_horizon(), Epoch(1));
        }

        let dir = tmp_dir("relevance-ranges");
        let cat = durable_catalog(&dir);
        let over_function = Predicate::OverRelation("Function".into());
        let extra = [
            TrustPolicy::new(p(4)).with_rule(AcceptanceRule::new(over_function, 1u32)),
            TrustPolicy::new(p(5))
                .with_rule(AcceptanceRule::new(Predicate::FromAnyOf(vec![p(1), p(3)]), 2u32)),
        ];
        extra.iter().for_each(|policy| cat.register_policy(policy.clone()));
        let mut spec = Spec::new(bioinformatics_schema(), policies().into_iter().chain(extra));
        assert_eq!(trust_edges(&cat).1, vec![p(4)], "only p4 is evaluated on every publish");
        cat.set_retention(RetentionPolicy::ConvergedOnly);
        cat.close_membership().unwrap();
        publish(&cat, &mut spec, 1, &[(0, "a1", "f"), (1, "a2", "f")]);
        publish(&cat, &mut spec, 2, &[(0, "b1", "f"), (1, "b2", "f"), (2, "k", "x")]);
        publish(&cat, &mut spec, 3, &[(0, "c1", "f"), (1, "k", "y")]);
        reconcile(&cat, &mut spec, 1);
        publish(&cat, &mut spec, 2, &[(3, "b3", "f"), (4, "b4", "f")]);
        publish(&cat, &mut spec, 3, &[(2, "c2", "f"), (3, "c3", "f")]);
        reconcile(&cat, &mut spec, 2);
        reconcile(&cat, &mut spec, 3);
        cat.snapshot().unwrap();
        publish(&cat, &mut spec, 1, &[(2, "a3", "f"), (3, "a4", "f")]);
        reconcile(&cat, &mut spec, 4);
        reconcile(&cat, &mut spec, 5);
        assert_eq!(spec.peer(p(1)).deferred.len(), 2, "p1 defers p2's and p3's k");
        assert_eq!(spec.peer(p(4)).deferred.len(), 2, "p4 defers p2's and p3's k");
        check(&cat, &spec);

        let report = cat.prune_to_horizon().unwrap();
        assert_eq!(report.horizon, Epoch(1));
        assert_eq!(report.pruned_relevance_entries, 6, "p2's, p4's and p5's of p1's first batch");
        check(&cat, &spec);
        let recovered = cat.restart().unwrap();
        check(&recovered, &spec);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The trust index's edges: per origin the owners that may trust it, and
    /// the owners every publish evaluates — checking on the way that each
    /// owner is listed with the catalogue's own shard for it.
    fn trust_edges(
        cat: &StoreCatalog,
    ) -> (BTreeMap<ParticipantId, Vec<ParticipantId>>, Vec<ParticipantId>) {
        let shards = cat.shards.read().unwrap();
        let trust = cat.trust.lock().unwrap();
        let owners = |listed: &BTreeMap<ParticipantId, SharedShard>| {
            assert!(listed.iter().all(|(id, shard)| Arc::ptr_eq(shard, &shards[id])));
            listed.keys().copied().collect::<Vec<_>>()
        };
        (trust.by_origin.iter().map(|(o, l)| (*o, owners(l))).collect(), owners(&trust.any_origin))
    }

    fn insert_by(i: u32, j: u64) -> Transaction {
        txn(i, j, vec![Update::insert("Function", func("rat", &format!("p{i}-{j}"), "a"), p(i))])
    }

    #[test]
    fn replacing_a_policy_drops_its_stale_edges() {
        let cat = StoreCatalog::new(bioinformatics_schema());
        cat.register_policy(TrustPolicy::new(p(1)).trusting(p(2), 1u32));
        cat.register_policy(TrustPolicy::new(p(1)).trusting(p(3), 2u32));
        // The stale edge p2 → p1 is gone.
        assert_eq!(trust_edges(&cat), (BTreeMap::from([(p(3), vec![p(1)])]), vec![]));
        cat.publish(p(2), None, None, vec![insert_by(2, 0)]).unwrap();
        assert!(stored_slice(&cat, p(1)).is_empty(), "p1 no longer trusts p2");
        let x3 = insert_by(3, 0);
        cat.publish(p(3), None, None, vec![x3.clone()]).unwrap();
        assert_eq!(stored_slice(&cat, p(1)), vec![(Epoch(2), (x3.id(), Priority(2)))]);

        // Bounded → unbounded → bounded moves the owner between the two
        // halves of the index and back.
        let any = AcceptanceRule::new(Predicate::True, 1u32);
        cat.register_policy(TrustPolicy::new(p(1)).with_rule(any));
        assert_eq!(trust_edges(&cat), (BTreeMap::new(), vec![p(1)]));
        cat.register_policy(TrustPolicy::new(p(1)).trusting(p(2), 1u32));
        assert_eq!(trust_edges(&cat), (BTreeMap::from([(p(2), vec![p(1)])]), vec![]));
    }

    #[test]
    fn retirement_removes_the_owner_and_rejoining_re_adds_it_at_the_frontier() {
        let cat = StoreCatalog::new(bioinformatics_schema());
        let policy = TrustPolicy::new(p(1)).trusting(p(2), 1u32);
        cat.register_policy(policy.clone());
        cat.register_policy(TrustPolicy::new(p(2)));
        cat.publish(p(2), None, None, vec![insert_by(2, 0)]).unwrap();
        assert_eq!(cat.relevance_len(), 1);

        cat.retire_participant(p(1)).unwrap();
        assert_eq!(trust_edges(&cat), (BTreeMap::new(), vec![]));
        cat.publish(p(2), None, None, vec![insert_by(2, 1)]).unwrap();
        assert_eq!(cat.relevance_len(), 0, "a retired participant is not visited");

        // Rejoining re-adds the edge; history at or below the frontier is
        // not offered, later publishes are.
        cat.advance_membership_frontier(Epoch(2)).unwrap();
        cat.register_policy(policy);
        assert_eq!(trust_edges(&cat), (BTreeMap::from([(p(2), vec![p(1)])]), vec![]));
        assert!(stored_slice(&cat, p(1)).is_empty());
        let x = insert_by(2, 2);
        cat.publish(p(2), None, None, vec![x.clone()]).unwrap();
        assert_eq!(stored_slice(&cat, p(1)), vec![(Epoch(3), (x.id(), Priority(1)))]);
    }

    /// A publish at a pinned epoch is a publish: the same log, the same
    /// own-accept, and the same relevance on the same shards — scalar and
    /// stamped — as the publish that assigned the epoch.
    #[test]
    fn a_pinned_publish_leaves_what_the_assigning_publish_leaves() {
        for causal in [false, true] {
            let home = catalog_with_policies();
            let replica = catalog_with_policies();
            // A policy that can trust nobody: no publish may touch its shard.
            home.register_policy(TrustPolicy::new(p(4)));
            replica.register_policy(TrustPolicy::new(p(4)));
            if causal {
                home.enable_causal_mode().unwrap();
                replica.enable_causal_mode().unwrap();
            }
            for (who, seq) in [(3u32, 0u64), (2, 0), (3, 1)] {
                let batch = vec![insert_by(who, seq), insert_by(who, seq + 10)];
                let epoch = if causal {
                    let stamp = stamp(&home, p(who));
                    let epoch = home
                        .publish(stamp.clone().publisher, Some(&stamp.clone()), None, batch.clone())
                        .unwrap();
                    assert_eq!(
                        replica.publish(stamp.publisher, Some(&stamp), Some(epoch), batch),
                        Ok(epoch)
                    );
                    epoch
                } else {
                    let epoch = home.publish(p(who), None, None, batch.clone()).unwrap();
                    assert_eq!(replica.publish(p(who), None, Some(epoch), batch), Ok(epoch));
                    epoch
                };
                assert_eq!(replica.largest_stable_epoch(), epoch);
            }
            assert_eq!(format!("{replica:?}"), format!("{home:?}"), "durable state differs");
            for i in 1..=4 {
                assert_eq!(stored_slice(&replica, p(i)), stored_slice(&home, p(i)), "slice of {i}");
                assert_eq!(
                    replica.accepted_set(p(i)),
                    home.accepted_set(p(i)),
                    "own-accepts of {i}"
                );
                assert_eq!(session_entries(&replica, p(i)), session_entries(&home, p(i)));
            }
            assert!(stored_slice(&replica, p(4)).is_empty(), "nobody p4 trusts has published");
            let p3: Vec<Epoch> = stored_slice(&replica, p(3)).iter().map(|(e, _)| *e).collect();
            assert_eq!(p3, [Epoch(2); 2], "p3 trusts p2 only: its one batch of two");
            assert_eq!(trust_edges(&replica), trust_edges(&home));
        }
    }

    /// A pinned epoch that is not this store's next one is refused before
    /// anything is mutated: no started epoch is left dangling (it would
    /// freeze the stable frontier), no log entry, no own-accept, no
    /// relevance, no ingested stamp — and the right epoch still goes through.
    #[test]
    fn a_mismatching_pinned_epoch_errors_before_anything_is_mutated() {
        let cat = catalog_with_policies();
        cat.publish(p(3), None, None, vec![insert_by(3, 0)]).unwrap();
        let before = format!("{cat:?}");
        for wrong in [Epoch(1), Epoch(3)] {
            let error = cat.publish(p(2), None, Some(wrong), vec![insert_by(2, 0)]).unwrap_err();
            assert!(error.to_string().contains("next epoch is e2"), "got {error}");
            assert_eq!(format!("{cat:?}"), before);
            assert_eq!(cat.relevance_len(), 2, "p1 and p2 hold p3's entry and nothing else");
        }
        assert_eq!(cat.publish(p(2), None, Some(Epoch(2)), vec![insert_by(2, 0)]), Ok(Epoch(2)));
        assert_eq!(cat.largest_stable_epoch(), Epoch(2));

        let causal = catalog_with_policies();
        causal.enable_causal_mode().unwrap();
        let stamp = stamp(&causal, p(2));
        let before = format!("{causal:?}");
        assert!(causal
            .publish(stamp.publisher, Some(&stamp), Some(Epoch(2)), vec![insert_by(2, 0)])
            .is_err());
        assert_eq!(format!("{causal:?}"), before);
        assert_eq!(causal.next_publisher_seq(p(2)), 1, "the stamp was not ingested");
        assert_eq!(
            causal.publish(stamp.publisher, Some(&stamp), Some(Epoch(1)), vec![insert_by(2, 0)]),
            Ok(Epoch(1))
        );
    }

    fn tmp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("orchestra-catalog-test-{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn durable_catalog(dir: &Path) -> StoreCatalog {
        let schema = bioinformatics_schema();
        let backend = FileWalBackend::create(dir, &schema).unwrap();
        let cat = StoreCatalog::with_durability(schema, Durability::FileWal(backend));
        cat.register_policy(TrustPolicy::new(p(1)).trusting(p(2), 1u32).trusting(p(3), 1u32));
        cat.register_policy(TrustPolicy::new(p(2)).trusting(p(1), 2u32).trusting(p(3), 1u32));
        cat.register_policy(TrustPolicy::new(p(3)).trusting(p(2), 1u32));
        cat
    }

    /// A small durable history: publishes, a session commit, an
    /// out-of-session decision and a late registration.
    fn run_history(cat: &StoreCatalog) {
        let x3 = txn(3, 0, vec![Update::insert("Function", func("rat", "prot1", "a"), p(3))]);
        let x2 = txn(2, 0, vec![Update::insert("Function", func("mouse", "prot2", "b"), p(2))]);
        let x1 = txn(1, 0, vec![Update::insert("Function", func("dog", "prot9", "z"), p(1))]);
        cat.publish(p(3), None, None, vec![x3.clone()]).unwrap();
        cat.publish(p(2), None, None, vec![x2.clone()]).unwrap();
        let opened = cat.open_session(p(1)).unwrap();
        cat.commit_session(opened.session, &[x3.id()], &[x2.id()]).unwrap();
        cat.publish(p(1), None, None, vec![x1]).unwrap();
        cat.record_decisions(p(2), &[], &[x3.id()]).unwrap();
        cat.register_policy(TrustPolicy::new(p(4)).trusting(p(1), 3u32));
    }

    /// On a durable catalogue a pinned publish is logged like any other, so
    /// a fabric shard recovers as an ordinary store: `recover` replays every
    /// recorded publish as a pinned publish, extending relevance as it goes.
    #[test]
    fn a_pinned_publish_is_durable_and_recovers_byte_identically() {
        let dir = tmp_dir("pinned");
        let cat = durable_catalog(&dir);
        cat.publish(p(1), None, None, vec![insert_by(1, 0)]).unwrap();
        cat.publish(p(2), None, Some(Epoch(2)), vec![insert_by(2, 0)]).unwrap();
        let slices: Vec<_> = (1..=3).map(|i| stored_slice(&cat, p(i))).collect();
        assert_eq!(slices.iter().map(Vec::len).collect::<Vec<_>>(), [1, 1, 1]);

        let recovered = cat.restart().unwrap();
        assert_eq!((1..=3).map(|i| stored_slice(&recovered, p(i))).collect::<Vec<_>>(), slices);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wal_replay_rebuilds_byte_identical_state() {
        let dir = tmp_dir("replay");
        let cat = durable_catalog(&dir);
        run_history(&cat);
        let recovered = cat.restart().unwrap();
        // The recovered catalogue still serves sessions and stays durable:
        // another publish lands in the same WAL and survives another crash.
        let y = txn(2, 1, vec![Update::insert("Function", func("cat", "prot5", "q"), p(2))]);
        recovered.publish(p(2), None, None, vec![y]).unwrap();
        recovered.restart().expect("the second crash recovers byte-identically");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The flattenings sessions derive, on log entries and in the chain
    /// memo, are in no rendering, no comparison and no durable byte: the live
    /// catalogue reads as, and equals, a twin that ran the same durable
    /// history without building a candidate, its clone and its recovered
    /// self, all three with nothing derived.
    #[test]
    fn derived_flattenings_leave_the_recovered_twin_identical() {
        let (dir, twin_dir) = (tmp_dir("flattenings"), tmp_dir("flattenings-twin"));
        let (cat, twin) = (durable_catalog(&dir), durable_catalog(&twin_dir));
        // Reads x3's tuple: a chain behind x3 for p2, which rejected x3.
        let y3 = txn(
            3,
            1,
            vec![Update::modify(
                "Function",
                func("rat", "prot1", "a"),
                func("rat", "prot1", "b"),
                p(3),
            )],
        );
        for store in [&cat, &twin] {
            run_history(store);
            store.publish(p(3), None, None, vec![y3.clone()]).unwrap();
        }
        let mut derived = 0;
        for who in [p(2), p(3), p(4)] {
            let opened = cat.open_session(who).unwrap();
            let batch = cat.batch(opened.session, 10).unwrap();
            let ids: Vec<TransactionId> = batch.candidates.iter().map(|(c, _)| c.id).collect();
            derived += batch
                .candidates
                .iter()
                .filter(|(c, _)| handed_a_flattening(c, cat.schema()))
                .count();
            cat.commit_session(opened.session, &ids, &[]).unwrap();
            let opened = twin.open_session(who).unwrap();
            twin.commit_session(opened.session, &ids, &[]).unwrap();
        }
        assert!(derived >= 4, "every participant reconciled a root alone, p2 a chain too");
        // p1 has not reconciled since y3, so the chain stays memoised.
        assert!(!memo_roots(&cat).is_empty());
        assert_eq!(memo_roots(&twin), []);
        let copy = cat.clone();
        assert_eq!(memo_roots(&copy), []);
        let entries = |cat: &StoreCatalog| -> Vec<LogEntry> {
            cat.log.read().expect("log lock").log.entries().cloned().collect()
        };
        let (live, live_entries) = (format!("{cat:?}"), entries(&cat));
        assert_eq!(format!("{twin:?}"), live);
        assert_eq!(format!("{copy:?}"), live);
        let wal_bytes = |cat: &StoreCatalog| cat.durability().file_backend().unwrap().wal_bytes();
        assert_eq!(wal_bytes(&cat), wal_bytes(&twin));
        cat.snapshot().unwrap();
        twin.snapshot().unwrap();
        let snapshot_bytes = |dir: &Path| std::fs::read(snapshot::snapshot_path(dir)).unwrap();
        assert_eq!(snapshot_bytes(&dir), snapshot_bytes(&twin_dir));

        let recovered = cat.restart().unwrap();
        assert_eq!(memo_roots(&recovered), []);
        assert_eq!(entries(&recovered), live_entries);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&twin_dir).ok();
    }

    /// Two participants paging the same chain on two threads both get its
    /// flattening, and one [`Arc`] of it: whichever builder loses the race
    /// to insert adopts the winner's.
    #[test]
    fn racing_builders_of_one_chain_share_one_flattening() {
        for _ in 0..16 {
            let cat = catalog_with_policies();
            let v = |value| func("rat", "prot1", value);
            let x3 = txn(3, 0, vec![Update::insert("Function", v("v1"), p(3))]);
            let y3 = txn(3, 1, vec![Update::modify("Function", v("v1"), v("v2"), p(3))]);
            cat.publish(p(3), None, None, vec![x3]).unwrap();
            let chain = y3.id();
            cat.publish(p(3), None, None, vec![y3]).unwrap();
            let sessions = [p(1), p(2)].map(|who| cat.open_session(who).unwrap().session);
            let start = std::sync::Barrier::new(2);
            let chains: Vec<CandidateTransaction> = std::thread::scope(|scope| {
                let racers: Vec<_> = sessions
                    .iter()
                    .map(|session| {
                        let (cat, start) = (&cat, &start);
                        scope.spawn(move || {
                            start.wait();
                            let batch = cat.batch(*session, 10).unwrap();
                            batch.candidates.into_iter().map(|(c, _)| c).find(|c| c.id == chain)
                        })
                    })
                    .collect();
                racers.into_iter().map(|racer| racer.join().unwrap().unwrap()).collect()
            });
            let schema = cat.schema();
            assert_eq!(chains[0].members.len(), 2);
            assert!(handed_a_flattening(&chains[0], schema));
            assert!(Arc::ptr_eq(chains[0].flattening(schema), chains[1].flattening(schema)));
            for chain in &chains {
                assert_eq!(chain.flattening(schema).updates(), chain.flattened(schema).updates());
            }
            assert_eq!(memo_roots(&cat), [Epoch(2)]);
        }
    }

    #[test]
    fn recovered_and_cloned_catalogues_answer_the_next_publish_like_the_live_one() {
        for snapshot_midway in [false, true] {
            let dir = tmp_dir(&format!("trust-index-{snapshot_midway}"));
            let cat = durable_catalog(&dir);
            run_history(&cat);
            if snapshot_midway {
                cat.snapshot().unwrap();
            }
            // Churn the trust mappings: p3 swaps p2 for p1, p2 leaves, p4
            // turns to an origin-free rule — after the snapshot, so recovery
            // has to replay index maintenance on top of a rebuilt index.
            cat.register_policy(TrustPolicy::new(p(3)).trusting(p(1), 1u32));
            cat.retire_participant(p(2)).unwrap();
            let inserts = Predicate::OfKind(UpdateKind::Insert);
            cat.register_policy(
                TrustPolicy::new(p(4)).with_rule(AcceptanceRule::new(inserts, 2u32)),
            );

            let twin = cat.clone();
            let copy = tmp_dir(&format!("trust-index-copy-{snapshot_midway}"));
            std::fs::create_dir_all(&copy).unwrap();
            for file in std::fs::read_dir(&dir).unwrap() {
                let file = file.unwrap();
                std::fs::copy(file.path(), copy.join(file.file_name())).unwrap();
            }
            let recovered = StoreCatalog::recover(&copy).unwrap();

            // One batch, two origins, one of them published on its behalf.
            let batch = vec![insert_by(1, 7), insert_by(2, 7)];
            for store in [&cat, &twin, &recovered] {
                store.publish(p(1), None, None, batch.clone()).unwrap();
            }
            let live = format!("{cat:?}");
            assert_eq!(format!("{twin:?}"), live, "clone diverged");
            assert_eq!(format!("{recovered:?}"), live, "recovered catalogue diverged");
            // p3 and p4 trust p1's transaction, nobody p2's but p1; p2 is gone.
            let in_last_epoch = |i| {
                let slice = stored_slice(&cat, p(i));
                let last = slice.last().unwrap().0;
                slice.iter().filter(|(epoch, _)| *epoch == last).count()
            };
            assert_eq!(in_last_epoch(3), 1);
            assert_eq!(in_last_epoch(4), 2);
            assert!(stored_slice(&cat, p(2)).is_empty());
            std::fs::remove_dir_all(&dir).ok();
            std::fs::remove_dir_all(&copy).ok();
        }
    }

    #[test]
    fn snapshot_compacts_and_recovery_replays_on_top() {
        let dir = tmp_dir("snapshot");
        let cat = durable_catalog(&dir);
        run_history(&cat);
        let records_before = cat.durability().file_backend().unwrap().wal_records();
        assert!(records_before > 1);
        let generation = cat.snapshot().unwrap();
        assert_eq!(generation, 1);
        assert_eq!(cat.durability().file_backend().unwrap().wal_records(), 0);
        // The old generation's log is gone; the snapshot carries the state.
        assert!(!snapshot::wal_path(&dir, 0).exists());

        // Post-snapshot records replay on top of the snapshot, and the tail
        // changes who has to look at a publish: a late registration, a
        // retirement and a prune, each followed by a publish that extends
        // the relevance index they left.
        let z = txn(3, 1, vec![Update::insert("Function", func("owl", "prot7", "w"), p(3))]);
        cat.publish(p(3), None, None, vec![z]).unwrap();
        cat.register_policy(TrustPolicy::new(p(5)).trusting(p(3), 2u32));
        let w = txn(3, 2, vec![Update::insert("Function", func("owl", "prot8", "w"), p(3))]);
        cat.publish(p(3), None, None, vec![w]).unwrap();
        cat.retire_participant(p(4)).unwrap();
        let v = txn(1, 1, vec![Update::insert("Function", func("cat", "prot3", "v"), p(1))]);
        cat.publish(p(1), None, None, vec![v]).unwrap();
        cat.set_retention(RetentionPolicy::ConvergedOnly);
        cat.advance_membership_frontier(Epoch(5)).unwrap();
        for i in [1, 2, 3, 5] {
            reconcile_accept_all(&cat, p(i));
        }
        assert!(cat.prune_to_horizon().unwrap().horizon > Epoch::ZERO);
        let u = txn(3, 3, vec![Update::insert("Function", func("owl", "prot9", "u"), p(3))]);
        cat.publish(p(3), None, None, vec![u]).unwrap();
        assert!(cat.relevance_len() > 0);
        let recovered = cat.restart().unwrap();
        assert_eq!(recovered.durability().file_backend().unwrap().generation(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A commit moves the participant's last reconciliation and keeps no
    /// earlier one, so committing 20 more empty sessions leaves the snapshot
    /// as large as it was after the first, and the cursor and reconciliation
    /// number come back through `snapshot` → `recover` and through `restart`.
    #[test]
    fn empty_sessions_leave_the_snapshot_size_unchanged() {
        let dir = tmp_dir("empty-sessions");
        let cat = durable_catalog(&dir);
        cat.publish(p(1), None, None, vec![insert_by(1, 0)]).unwrap();
        let mut snapshot_bytes = Vec::new();
        for (sessions, recno) in [(1, 1), (20, 21)] {
            for _ in 0..sessions {
                let opened = cat.open_session(p(1)).unwrap();
                cat.commit_session(opened.session, &[], &[]).unwrap();
            }
            cat.snapshot().unwrap();
            snapshot_bytes.push(std::fs::metadata(snapshot::snapshot_path(&dir)).unwrap().len());
            let expected = (Epoch(1), ReconciliationId(recno));
            let state = |c: &StoreCatalog| (c.epoch_cursor(p(1)), c.current_reconciliation(p(1)));
            assert_eq!(state(&cat), expected);
            assert_eq!(state(&StoreCatalog::recover(&dir).unwrap()), expected);
            assert_eq!(state(&cat.restart().unwrap()), expected);
        }
        assert_eq!(snapshot_bytes[0], snapshot_bytes[1]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ephemeral_catalogues_refuse_to_snapshot() {
        let cat = catalog_with_policies();
        assert!(matches!(cat.snapshot(), Err(StorageError::Persistence(_))));
        assert!(!cat.durability().is_durable());
    }

    #[test]
    fn recover_from_an_empty_directory_errors() {
        let dir = tmp_dir("empty");
        std::fs::create_dir_all(&dir).unwrap();
        assert!(matches!(StoreCatalog::recover(&dir), Err(StorageError::Persistence(_))));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn undecided_candidates_mirror_the_deferred_set() {
        let cat = catalog_with_policies();
        let x3 = txn(3, 0, vec![Update::insert("Function", func("rat", "prot1", "a"), p(3))]);
        let x2 = txn(2, 0, vec![Update::insert("Function", func("rat", "prot1", "b"), p(2))]);
        cat.publish(p(3), None, None, vec![x3.clone()]).unwrap();
        cat.publish(p(2), None, None, vec![x2.clone()]).unwrap();
        // Before any reconciliation the cursor is zero: nothing was offered,
        // so nothing counts as previously deferred.
        assert!(cat.undecided_candidates(p(1)).is_empty());

        // p1 reconciles, deciding x3 but leaving x2 undecided (deferred
        // client-side); the store's recovery stream must re-offer exactly x2.
        let opened = cat.open_session(p(1)).unwrap();
        cat.commit_session(opened.session, &[x3.id()], &[]).unwrap();
        let undecided = cat.undecided_candidates(p(1));
        assert_eq!(undecided.len(), 1);
        assert_eq!(undecided[0].id, x2.id());
        assert_eq!(undecided[0].priority, Priority(1));
        // Unknown participants have no recovery stream.
        assert!(cat.undecided_candidates(p(9)).is_empty());
        assert_eq!(cat.epoch_of(x3.id()), Some(Epoch(1)));
        assert_eq!(cat.epoch_of(TransactionId::new(p(9), 9)), None);
    }

    /// A fully trusting confederation of `n` participants (everyone trusts
    /// everyone at priority 1), used by the retention tests so every
    /// published transaction is relevant to every other participant.
    fn fully_trusting(n: u32) -> StoreCatalog {
        let cat = StoreCatalog::new(bioinformatics_schema());
        for i in 1..=n {
            let mut policy = TrustPolicy::new(p(i));
            for j in 1..=n {
                if i != j {
                    policy = policy.trusting(p(j), 1u32);
                }
            }
            cat.register_policy(policy);
        }
        cat
    }

    /// Opens a session, accepts every streamed candidate (roots and
    /// members) and commits.
    fn reconcile_accept_all(cat: &StoreCatalog, participant: ParticipantId) {
        let opened = cat.open_session(participant).unwrap();
        let mut accepted = Vec::new();
        loop {
            let batch = cat.batch(opened.session, 64).unwrap();
            for (cand, _) in &batch.candidates {
                accepted.extend(cand.members.iter().map(|(id, _)| *id));
            }
            if batch.exhausted {
                break;
            }
        }
        cat.commit_session(opened.session, &accepted, &[]).unwrap();
    }

    /// insert → delete → re-insert of one value: after everyone converges,
    /// only the final insert is reachable (the delete writes nothing and the
    /// first insert is superseded), so pruning removes exactly two entries.
    fn converged_insert_delete_insert(cat: &StoreCatalog) -> (Transaction, Transaction) {
        let x1 = txn(1, 0, vec![Update::insert("Function", func("rat", "prot1", "v1"), p(1))]);
        let x2 = txn(2, 0, vec![Update::delete("Function", func("rat", "prot1", "v1"), p(2))]);
        let x3 = txn(3, 0, vec![Update::insert("Function", func("rat", "prot1", "v1"), p(3))]);
        cat.publish(p(1), None, None, vec![x1.clone()]).unwrap();
        cat.publish(p(2), None, None, vec![x2]).unwrap();
        cat.publish(p(3), None, None, vec![x3.clone()]).unwrap();
        for i in 1..=3 {
            reconcile_accept_all(cat, p(i));
        }
        (x1, x3)
    }

    #[test]
    fn horizon_needs_frontier_cursors_and_decisions() {
        let cat = fully_trusting(3);
        // Membership open: nothing is ever prunable.
        assert_eq!(cat.convergence_horizon(), Epoch::ZERO);
        cat.close_membership().unwrap();
        assert_eq!(cat.log.read().unwrap().membership_frontier, Epoch(u64::MAX));
        // Empty store: stable frontier caps at zero.
        assert_eq!(cat.convergence_horizon(), Epoch::ZERO);

        let x = txn(1, 0, vec![Update::insert("Function", func("rat", "prot1", "a"), p(1))]);
        cat.publish(p(1), None, None, vec![x.clone()]).unwrap();
        // Cursors still at zero.
        assert_eq!(cat.convergence_horizon(), Epoch::ZERO);
        reconcile_accept_all(&cat, p(1));
        reconcile_accept_all(&cat, p(2));
        // p3 has not reconciled: its cursor pins the horizon.
        assert_eq!(cat.convergence_horizon(), Epoch::ZERO);
        reconcile_accept_all(&cat, p(3));
        assert_eq!(cat.convergence_horizon(), Epoch(1));

        // An undecided trusted entry below a cursor pins the horizon even
        // after every cursor has passed: p1 defers (commits no decision).
        let y = txn(2, 0, vec![Update::insert("Function", func("mouse", "prot2", "b"), p(2))]);
        cat.publish(p(2), None, None, vec![y.clone()]).unwrap();
        let opened = cat.open_session(p(1)).unwrap();
        cat.commit_session(opened.session, &[], &[]).unwrap(); // deferred
        reconcile_accept_all(&cat, p(2));
        reconcile_accept_all(&cat, p(3));
        assert_eq!(cat.convergence_horizon(), Epoch(1));
        // Once p1 decides out of session (conflict resolution), it unpins.
        cat.record_decisions(p(1), &[], &[y.id()]).unwrap();
        assert_eq!(cat.convergence_horizon(), Epoch(2));

        // Under KeepAll the policy-capped horizon stays zero.
        assert_eq!(cat.retention(), RetentionPolicy::KeepAll);
        assert_eq!(cat.advance_horizon(), Epoch::ZERO);
        cat.set_retention(RetentionPolicy::ConvergedOnly);
        assert_eq!(cat.advance_horizon(), Epoch(2));
    }

    #[test]
    fn open_sessions_pin_the_horizon() {
        let cat = fully_trusting(2);
        cat.close_membership().unwrap();
        let x = txn(1, 0, vec![Update::insert("Function", func("rat", "prot1", "a"), p(1))]);
        cat.publish(p(1), None, None, vec![x]).unwrap();
        reconcile_accept_all(&cat, p(1));
        reconcile_accept_all(&cat, p(2));
        assert_eq!(cat.convergence_horizon(), Epoch(1));
        // An unregistered participant's session pins at its (zero) cursor —
        // the session opened against the pre-horizon state.
        let opened = cat.open_session(p(9)).unwrap();
        assert_eq!(cat.convergence_horizon(), Epoch::ZERO);
        cat.abort_session(opened.session);
        assert_eq!(cat.convergence_horizon(), Epoch(1));
    }

    #[test]
    fn prune_drops_converged_history_and_preserves_decisions() {
        let cat = fully_trusting(3);
        cat.set_retention(RetentionPolicy::ConvergedOnly);
        cat.close_membership().unwrap();
        let (x1, x3) = converged_insert_delete_insert(&cat);

        // Keep an unpruned twin: every later decision must match it.
        let unpruned = cat.clone();
        unpruned.set_retention(RetentionPolicy::KeepAll);

        assert_eq!(cat.advance_horizon(), Epoch(3));
        let report = cat.prune_to_horizon().unwrap();
        assert_eq!(report.horizon, Epoch(3));
        assert_eq!(report.pruned_log_entries, 2);
        assert_eq!(report.pinned, 1, "the live value's last writer is pinned");
        assert_eq!(report.live_log_entries, 1);
        assert!(report.pruned_relevance_entries > 0);
        assert_eq!(report.pruned_epoch_records, 3);
        assert_eq!(cat.pruned_through(), Epoch(3));
        assert_eq!(cat.log_len(), 1);
        assert_eq!(cat.log_total_published(), 3);
        assert_eq!(cat.relevance_len(), 0);

        // Decisions survive pruning even for pruned transactions.
        assert!(cat.accepted_set(p(2)).contains(&x1.id()));
        assert!(cat.transaction(x1.id()).is_none(), "pruned entry is gone");
        assert!(cat.transaction(x3.id()).is_some(), "pinned entry stays");

        // A second pass with nothing new is a no-op.
        let again = cat.prune_to_horizon().unwrap();
        assert!(again.is_noop());

        // The schedule continues identically on both stores: a delete of the
        // live value must chase to the pinned writer on each.
        let x4 = txn(2, 1, vec![Update::delete("Function", func("rat", "prot1", "v1"), p(2))]);
        for store in [&cat, &unpruned] {
            store.publish(p(2), None, None, vec![x4.clone()]).unwrap();
        }
        for participant in [p(1), p(3)] {
            let collect = |store: &StoreCatalog| {
                let opened = store.open_session(participant).unwrap();
                let batch = store.batch(opened.session, 64).unwrap();
                store.abort_session(opened.session);
                batch
                    .candidates
                    .iter()
                    .map(|(c, _)| (c.id, c.members.iter().map(|(id, _)| *id).collect::<Vec<_>>()))
                    .collect::<Vec<_>>()
            };
            assert_eq!(collect(&cat), collect(&unpruned), "candidates diverged after pruning");
        }
    }

    #[test]
    fn keep_last_n_holds_back_a_recent_window() {
        let cat = fully_trusting(2);
        cat.set_retention(RetentionPolicy::KeepLastN(2));
        cat.close_membership().unwrap();
        for i in 0..4u64 {
            let x = txn(
                1,
                i,
                vec![Update::insert("Function", func("rat", &format!("prot{i}"), "a"), p(1))],
            );
            cat.publish(p(1), None, None, vec![x]).unwrap();
        }
        reconcile_accept_all(&cat, p(1));
        reconcile_accept_all(&cat, p(2));
        assert_eq!(cat.convergence_horizon(), Epoch(4));
        // Converged through 4, but the last 2 epochs are held back.
        assert_eq!(cat.advance_horizon(), Epoch(2));
        let report = cat.prune_to_horizon().unwrap();
        assert_eq!(report.horizon, Epoch(2));
        assert_eq!(cat.pruned_through(), Epoch(2));
    }

    #[test]
    fn laggards_pin_and_retirement_releases() {
        let cat = fully_trusting(3);
        cat.set_retention(RetentionPolicy::ConvergedOnly);
        cat.close_membership().unwrap();
        let x = txn(1, 0, vec![Update::insert("Function", func("rat", "prot1", "a"), p(1))]);
        cat.publish(p(1), None, None, vec![x.clone()]).unwrap();
        reconcile_accept_all(&cat, p(1));
        reconcile_accept_all(&cat, p(2));

        // p3 never reconciles: the horizon sits at its cursor and pruning is
        // a no-op.
        assert_eq!(cat.convergence_horizon(), Epoch::ZERO);
        assert!(cat.prune_to_horizon().unwrap().is_noop());

        // Retiring the laggard releases the pin; its decisions (none) and
        // the others' stay. It can no longer reconcile, is not listed, and
        // receives no relevance for later publishes.
        cat.retire_participant(p(3)).unwrap();
        assert_eq!(registered(&cat), vec![p(1), p(2)]);
        assert!(matches!(cat.open_session(p(3)), Err(StorageError::Retention(_))));
        assert_eq!(cat.convergence_horizon(), Epoch(1));
        let report = cat.prune_to_horizon().unwrap();
        assert_eq!(report.horizon, Epoch(1));

        let y = txn(2, 0, vec![Update::insert("Function", func("mouse", "prot2", "b"), p(2))]);
        cat.publish(p(2), None, None, vec![y]).unwrap();
        assert_eq!(cat.relevance_len(), 1, "only p1 indexes the new epoch");

        // Retiring twice, or retiring an unknown/unregistered participant,
        // errors.
        assert!(matches!(cat.retire_participant(p(3)), Err(StorageError::Retention(_))));
        assert!(matches!(cat.retire_participant(p(42)), Err(StorageError::Retention(_))));
    }

    #[test]
    fn late_registration_is_floored_at_the_frontier_on_pruned_and_unpruned_stores() {
        let build = |prune: bool| {
            let cat = fully_trusting(2);
            cat.set_retention(RetentionPolicy::ConvergedOnly);
            let x = txn(1, 0, vec![Update::insert("Function", func("rat", "prot1", "a"), p(1))]);
            cat.publish(p(1), None, None, vec![x]).unwrap();
            reconcile_accept_all(&cat, p(1));
            reconcile_accept_all(&cat, p(2));
            cat.advance_membership_frontier(Epoch(1)).unwrap();
            if prune {
                assert_eq!(cat.prune_to_horizon().unwrap().horizon, Epoch(1));
            }
            // p3 joins late: on both stores its index starts above the
            // frontier — the declaration, not the pruning, fixes this.
            let mut policy = TrustPolicy::new(p(3));
            for j in 1..=2 {
                policy = policy.trusting(p(j), 1u32);
            }
            cat.register_policy(policy);
            let y = txn(2, 0, vec![Update::insert("Function", func("mouse", "prot2", "b"), p(2))]);
            cat.publish(p(2), None, None, vec![y]).unwrap();
            session_entries(&cat, p(3))
        };
        let pruned = build(true);
        let unpruned = build(false);
        assert_eq!(pruned, unpruned);
        assert_eq!(pruned.len(), 1, "only the post-frontier epoch is offered");
    }

    #[test]
    fn policy_change_reregistration_is_invariant_under_pruning() {
        // An entry untrusted under a participant's old policy never pins the
        // horizon, so its log entry can be pruned while the participant
        // never decided it. If the participant then re-registers a *broader*
        // policy, the rebuild must not resurface the entry on an unpruned
        // store when a pruned one cannot offer it — every registration is
        // floored at the membership frontier, so both behave identically.
        let build = |prune: bool| {
            let cat = StoreCatalog::new(bioinformatics_schema());
            cat.register_policy(TrustPolicy::new(p(1)).trusting(p(2), 1u32).trusting(p(3), 1u32));
            cat.register_policy(TrustPolicy::new(p(2)).trusting(p(1), 1u32).trusting(p(3), 1u32));
            // p3 initially distrusts p2.
            cat.register_policy(TrustPolicy::new(p(3)).trusting(p(1), 1u32));
            cat.set_retention(RetentionPolicy::ConvergedOnly);
            cat.close_membership().unwrap();
            // T from p2 is untrusted for p3; it is later superseded (delete +
            // re-insert) so it leaves the pinned-ancestor set.
            let t = txn(2, 0, vec![Update::insert("Function", func("rat", "prot1", "v"), p(2))]);
            let del = txn(1, 0, vec![Update::delete("Function", func("rat", "prot1", "v"), p(1))]);
            let re = txn(1, 1, vec![Update::insert("Function", func("rat", "prot1", "v"), p(1))]);
            cat.publish(p(2), None, None, vec![t.clone()]).unwrap();
            cat.publish(p(1), None, None, vec![del]).unwrap();
            cat.publish(p(1), None, None, vec![re]).unwrap();
            for i in 1..=3 {
                reconcile_accept_all(&cat, p(i));
            }
            if prune {
                let report = cat.prune_to_horizon().unwrap();
                assert!(report.pruned_log_entries > 0, "T must actually be pruned");
                assert!(cat.transaction(t.id()).is_none());
            }
            // p3 re-registers, now trusting p2: the rebuild floors at the
            // frontier on both stores, so the long-decided-by-everyone-else
            // (but never by p3) transaction T is not resurfaced anywhere.
            cat.register_policy(TrustPolicy::new(p(3)).trusting(p(1), 1u32).trusting(p(2), 1u32));
            session_entries(&cat, p(3))
        };
        assert_eq!(build(true), build(false));
    }

    #[test]
    fn frontier_advances_are_monotone() {
        let cat = fully_trusting(2);
        assert_eq!(cat.advance_membership_frontier(Epoch(5)).unwrap(), Epoch(5));
        // A smaller value is a no-op, not a rollback.
        assert_eq!(cat.advance_membership_frontier(Epoch(3)).unwrap(), Epoch(5));
        assert_eq!(cat.log.read().unwrap().membership_frontier, Epoch(5));
    }

    #[test]
    fn pruned_durable_state_recovers_byte_identically() {
        for snapshot_after_prune in [false, true] {
            let dir = tmp_dir(&format!("retention-{snapshot_after_prune}"));
            let cat = {
                let schema = bioinformatics_schema();
                let backend = FileWalBackend::create(&dir, &schema).unwrap();
                let cat = StoreCatalog::with_durability(schema, Durability::FileWal(backend));
                for i in 1..=3 {
                    let mut policy = TrustPolicy::new(p(i));
                    for j in 1..=3 {
                        if i != j {
                            policy = policy.trusting(p(j), 1u32);
                        }
                    }
                    cat.register_policy(policy);
                }
                cat
            };
            cat.set_retention(RetentionPolicy::ConvergedOnly);
            cat.close_membership().unwrap();
            converged_insert_delete_insert(&cat);
            cat.retire_participant(p(3)).unwrap();
            let report = cat.prune_to_horizon().unwrap();
            assert!(report.pruned_log_entries > 0);
            if snapshot_after_prune {
                cat.snapshot().unwrap();
            }
            // Post-prune activity lands after the Prune record (or in the
            // fresh generation).
            let z = txn(2, 1, vec![Update::insert("Function", func("owl", "prot7", "w"), p(2))]);
            cat.publish(p(2), None, None, vec![z]).unwrap();
            cat.restart().expect("pruned recovery is byte-identical");
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn recover_then_prune_equals_prune_then_recover() {
        let dir = tmp_dir("prune-order");
        let schema = bioinformatics_schema();
        let backend = FileWalBackend::create(&dir, &schema).unwrap();
        let cat = StoreCatalog::with_durability(schema, Durability::FileWal(backend));
        for i in 1..=3 {
            let mut policy = TrustPolicy::new(p(i));
            for j in 1..=3 {
                if i != j {
                    policy = policy.trusting(p(j), 1u32);
                }
            }
            cat.register_policy(policy);
        }
        cat.set_retention(RetentionPolicy::ConvergedOnly);
        cat.close_membership().unwrap();
        converged_insert_delete_insert(&cat);

        // Path A: prune the live store (twin of what a pre-crash prune
        // would leave), rendered from an ephemeral clone so the durable
        // directory stays at the pre-prune point for path B.
        let twin = cat.clone();
        twin.prune_to_horizon().unwrap();
        let pruned_live = format!("{twin:?}");

        // Path B: crash before the prune, recover, then prune.
        let recovered = cat.restart().unwrap();
        recovered.prune_to_horizon().unwrap();
        assert_eq!(format!("{recovered:?}"), pruned_live, "prune/recover order changed state");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn clones_copy_durable_state_but_not_sessions() {
        let cat = catalog_with_policies();
        let x = txn(3, 0, vec![Update::insert("Function", func("rat", "prot1", "a"), p(3))]);
        cat.publish(p(3), None, None, vec![x.clone()]).unwrap();
        let opened = cat.open_session(p(1)).unwrap();
        let copy = cat.clone();
        assert_eq!(copy.open_sessions(), 0);
        assert_eq!(copy.log_len(), 1);
        assert_eq!(registered(&copy), registered(&cat));
        // The clone is independent: decisions recorded in one do not leak
        // into the other.
        copy.record_decisions(p(1), &[x.id()], &[]).unwrap();
        assert!(!cat.accepted_set(p(1)).contains(&x.id()));
        cat.abort_session(opened.session);
    }

    fn stamp(cat: &StoreCatalog, publisher: ParticipantId) -> CausalStamp {
        CausalStamp::new(publisher, cat.next_publisher_seq(publisher), cat.causal_frontier())
    }

    #[test]
    fn causal_mode_closes_the_scalar_path_and_vice_versa() {
        let cat = catalog_with_policies();
        let x = txn(3, 0, vec![Update::insert("Function", func("rat", "prot1", "a"), p(3))]);
        // Scalar mode rejects stamped publishes.
        assert!(!cat.causal_mode());
        let premature = CausalStamp::new(p(3), 1, AntichainClock::default());
        assert!(matches!(
            cat.publish(premature.publisher, Some(&premature), None, vec![x.clone()]),
            Err(StorageError::Causal(_))
        ));
        cat.publish(p(3), None, None, vec![x]).unwrap();

        cat.enable_causal_mode().unwrap();
        cat.enable_causal_mode().unwrap(); // idempotent
        assert!(cat.causal_mode());
        // Causal mode rejects scalar publishes, atomically.
        let before = format!("{cat:?}");
        let y = txn(3, 1, vec![Update::insert("Function", func("rat", "prot2", "b"), p(3))]);
        assert!(matches!(
            cat.publish(p(3), None, None, vec![y.clone()]),
            Err(StorageError::Causal(_))
        ));
        assert_eq!(format!("{cat:?}"), before, "rejected scalar publish mutated the catalogue");
        // The stamped path works and keeps allocating arrival epochs.
        let epoch = cat.publish(p(3), Some(&stamp(&cat, p(3))), None, vec![y]).unwrap();
        assert_eq!(epoch, Epoch(2));
        assert_eq!(cat.largest_stable_epoch(), Epoch(2));
        assert_eq!(cat.causal_frontier().to_string(), "{p3:1}");
        assert_eq!(cat.next_publisher_seq(p(3)), 2);
    }

    #[test]
    fn out_of_order_stamps_are_rejected_atomically() {
        let cat = catalog_with_policies();
        cat.enable_causal_mode().unwrap();
        let x = txn(3, 0, vec![Update::insert("Function", func("rat", "prot1", "a"), p(3))]);
        cat.publish(p(3), Some(&stamp(&cat, p(3))), None, vec![x]).unwrap();
        let before = format!("{cat:?}");
        // A sequence gap, a replayed sequence and an unknown parent all fail
        // without allocating an epoch or leaking a relevance entry.
        let y = txn(3, 1, vec![Update::insert("Function", func("rat", "prot2", "b"), p(3))]);
        for bad in [
            CausalStamp::new(p(3), 3, cat.causal_frontier()),
            CausalStamp::new(p(3), 1, cat.causal_frontier()),
            CausalStamp::new(
                p(3),
                2,
                AntichainClock::from_stamps([orchestra_model::StampId::new(p(1), 7)]),
            ),
        ] {
            assert!(matches!(
                cat.publish(bad.publisher, Some(&bad), None, vec![y.clone()]),
                Err(StorageError::Causal(_))
            ));
        }
        // So does a valid stamp published for another participant.
        let theirs = stamp(&cat, p(3));
        assert!(matches!(
            cat.publish(p(2), Some(&theirs), None, vec![y.clone()]),
            Err(StorageError::Causal(_))
        ));
        assert_eq!(format!("{cat:?}"), before, "rejected stamp mutated the catalogue");
        assert_eq!(cat.largest_stable_epoch(), Epoch(1));
    }

    #[test]
    fn a_session_carries_the_frontier_it_was_opened_at() {
        let cat = catalog_with_policies();
        let x = txn(3, 0, vec![Update::insert("Function", func("rat", "prot1", "a"), p(3))]);
        cat.publish(p(3), None, None, vec![x]).unwrap();
        let scalar = cat.open_session(p(1)).unwrap().info();
        assert!(scalar.frontier.is_empty(), "a scalar store has no frontier");
        cat.abort_session(scalar.session);

        cat.enable_causal_mode().unwrap();
        for (i, publisher) in [p(3), p(2)].into_iter().enumerate() {
            let key = format!("prot{}", i + 2);
            let y = txn(
                publisher.0,
                1,
                vec![Update::insert("Function", func("rat", &key, "b"), publisher)],
            );
            cat.publish(publisher, Some(&stamp(&cat, publisher)), None, vec![y]).unwrap();
        }
        let causal = cat.open_session(p(1)).unwrap().info();
        assert_eq!(causal.frontier, cat.causal_frontier());
        assert_eq!(causal.frontier.to_string(), "{p2:1,p3:1}");
        cat.abort_session(causal.session);
    }

    #[test]
    fn causal_history_recovers_byte_identically() {
        let dir = tmp_dir("causal-replay");
        let cat = durable_catalog(&dir);
        let x3 = txn(3, 0, vec![Update::insert("Function", func("rat", "prot1", "a"), p(3))]);
        cat.publish(p(3), None, None, vec![x3.clone()]).unwrap();
        cat.enable_causal_mode().unwrap();
        let x2 = txn(2, 0, vec![Update::insert("Function", func("mouse", "prot2", "b"), p(2))]);
        cat.publish(p(2), Some(&stamp(&cat, p(2))), None, vec![x2.clone()]).unwrap();
        let opened = cat.open_session(p(1)).unwrap();
        cat.commit_session(opened.session, &[x3.id()], &[x2.id()]).unwrap();
        let x1 = txn(1, 0, vec![Update::insert("Function", func("dog", "prot9", "z"), p(1))]);
        cat.publish(p(1), Some(&stamp(&cat, p(1))), None, vec![x1]).unwrap();
        let recovered = cat.restart().unwrap();
        assert!(recovered.causal_mode());
        assert_eq!(recovered.next_publisher_seq(p(2)), 2);
        // The recovered store keeps accepting stamped publishes — and the
        // mode switch survives a snapshot compaction too.
        recovered.snapshot().unwrap();
        let y = txn(2, 1, vec![Update::insert("Function", func("cat", "prot5", "q"), p(2))]);
        recovered.publish(p(2), Some(&stamp(&recovered, p(2))), None, vec![y]).unwrap();
        let recovered2 = recovered.restart().unwrap();
        assert!(recovered2.causal_mode());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replay_units_leave_out_what_retention_pruned() {
        // Acceptance order [x1, x2, x3]: an insert, its delete and a
        // re-insert. Pruning drops superseded history, so afterwards the
        // units hold fewer transactions than the accepted set — the count a
        // rebuild checks before it replays.
        let cat = fully_trusting(3);
        cat.set_retention(RetentionPolicy::ConvergedOnly);
        cat.close_membership().unwrap();
        let (_, x3) = converged_insert_delete_insert(&cat);
        let replayed = |cat: &StoreCatalog| -> Vec<TransactionId> {
            cat.accepted_replay_units(p(1)).iter().flatten().map(|t| t.id()).collect()
        };
        let order = cat
            .shard_of(p(1))
            .unwrap()
            .read()
            .expect("shard lock")
            .record
            .accepted_in_order()
            .to_vec();
        assert_eq!(order.len(), 3);
        assert_eq!(replayed(&cat), order, "the whole history replays in acceptance order");
        let report = cat.prune_to_horizon().unwrap();
        assert!(report.pruned_log_entries > 0);
        let kept = replayed(&cat);
        assert!(kept.len() < cat.accepted_set(p(1)).len(), "kept {kept:?}");
        assert!(kept.iter().all(|id| order.contains(id)) && kept.last() == Some(&x3.id()));
    }

    /// A bounded stream of choices a property case decodes its policies and
    /// schedule from (the vendored proptest has no recursive strategies).
    struct Tape<'a>(std::slice::Iter<'a, u32>);

    impl Tape<'_> {
        /// The next choice in `0..n`; an exhausted tape answers 0.
        fn pick(&mut self, n: u32) -> u32 {
            self.0.next().map_or(0, |v| v % n)
        }

        fn participant(&mut self) -> ParticipantId {
            p(1 + self.pick(6))
        }

        /// A predicate drawn from the whole grammar.
        fn predicate(&mut self, depth: u32) -> Predicate {
            let children = |tape: &mut Self| {
                (0..tape.pick(4)).map(|_| tape.predicate(depth - 1)).collect::<Vec<_>>()
            };
            match self.pick(if depth == 0 { 7 } else { 10 }) {
                0 => Predicate::True,
                1 => Predicate::False,
                2 => Predicate::FromParticipant(self.participant()),
                3 => Predicate::FromAnyOf((0..self.pick(4)).map(|_| self.participant()).collect()),
                4 => Predicate::OverRelation(["Function", "XRef"][self.pick(2) as usize].into()),
                5 => Predicate::OfKind(
                    [UpdateKind::Insert, UpdateKind::Delete, UpdateKind::Modify]
                        [self.pick(3) as usize],
                ),
                6 => Predicate::WritesValue {
                    column: "function".into(),
                    equals: ["a", "b"][self.pick(2) as usize].into(),
                },
                7 => Predicate::And(children(self)),
                8 => Predicate::Or(children(self)),
                _ => Predicate::Not(Box::new(self.predicate(depth - 1))),
            }
        }

        /// A policy of zero to three rules, zero priorities included.
        fn policy(&mut self, owner: ParticipantId) -> TrustPolicy {
            (0..self.pick(4)).fold(TrustPolicy::new(owner), |policy, _| {
                let rule = AcceptanceRule::new(self.predicate(2), self.pick(4));
                policy.with_rule(rule)
            })
        }

        /// A transaction of one or two updates by `origin` (`Transaction::new`
        /// admits neither an empty transaction nor a foreign update).
        fn transaction(&mut self, origin: ParticipantId, local: u64) -> Transaction {
            let updates = (0..1 + self.pick(2))
                .map(|k| {
                    let value = |tape: &mut Self| ["a", "b"][tape.pick(2) as usize];
                    let tuple = |f: &str| func("rat", &format!("{origin}-{local}-{k}"), f);
                    match self.pick(4) {
                        0 => Update::insert("Function", tuple(value(self)), origin),
                        1 => Update::delete("Function", tuple(value(self)), origin),
                        2 => Update::modify("Function", tuple("a"), tuple(value(self)), origin),
                        _ => Update::insert(
                            "XRef",
                            Tuple::of_text(&["rat", &format!("{origin}-{local}-{k}"), "db", "x"]),
                            origin,
                        ),
                    }
                })
                .collect();
            Transaction::from_parts(origin, local, updates).unwrap()
        }
    }

    /// What every shard's slice must hold, by the definition: the real
    /// policy evaluated on every live log entry, for every registered shard,
    /// own and untrusted transactions left out.
    fn brute_force_slices(
        cat: &StoreCatalog,
    ) -> BTreeMap<ParticipantId, Vec<(Epoch, RelevanceEntry)>> {
        let log = cat.log.read().unwrap();
        let shards = cat.shards.read().unwrap();
        let mut all = BTreeMap::new();
        for (id, shard) in shards.iter() {
            let shard = shard.read().unwrap();
            let mut slice = Vec::new();
            for entry in log.log.entries() {
                let txn = entry.transaction.as_ref();
                if !shard.registered || entry.epoch <= shard.relevance_floor || txn.origin() == *id
                {
                    continue;
                }
                let priority = shard.policy.priority_of_transaction(txn, cat.schema());
                if priority != Priority::UNTRUSTED {
                    slice.push((entry.epoch, (txn.id(), priority)));
                }
            }
            all.insert(*id, slice);
        }
        all
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// The oracle for the trust index: whatever the policies and
        /// whatever is published, registered, replaced or retired in
        /// between, visiting only the index's candidates leaves every shard
        /// holding exactly what evaluating every policy on every transaction
        /// would — and never an untrusted entry.
        #[test]
        fn indexed_publish_matches_brute_force_trust_evaluation(
            choices in prop::collection::vec(0u32..1 << 16, 40..400),
        ) {
            let mut tape = Tape(choices.iter());
            let cat = StoreCatalog::new(bioinformatics_schema());
            for i in 1..=5 {
                cat.register_policy(tape.policy(p(i)));
            }
            for local in 0..12u64 {
                match tape.pick(8) {
                    // Replace (or first register, for p6) a policy.
                    0 => {
                        let owner = tape.participant();
                        cat.register_policy(tape.policy(owner));
                    }
                    // Retire; an unregistered or already retired id errors.
                    1 => {
                        cat.retire_participant(tape.participant()).ok();
                    }
                    2 => {
                        cat.advance_membership_frontier(cat.largest_stable_epoch()).unwrap();
                    }
                    // Publish zero to three transactions of any origins —
                    // the publisher's own, others' on their behalf, and p7,
                    // which no store has heard of.
                    _ => {
                        let publisher = p(1 + tape.pick(7));
                        let batch = (0..tape.pick(4))
                            .map(|k| {
                                let origin = p(1 + tape.pick(7));
                                tape.transaction(origin, local * 4 + u64::from(k))
                            })
                            .collect();
                        cat.publish(publisher, None, None, batch).unwrap();
                    }
                }
                let expected = brute_force_slices(&cat);
                for (id, slice) in &expected {
                    prop_assert_eq!(&stored_slice(&cat, *id), slice, "shard {}", id);
                    prop_assert!(slice.iter().all(|(_, (_, pr))| *pr != Priority::UNTRUSTED));
                }
            }
            // The incrementally maintained index is the one a rebuild
            // derives from the shards.
            prop_assert_eq!(trust_edges(&cat), trust_edges(&cat.clone()));
        }
    }
}
