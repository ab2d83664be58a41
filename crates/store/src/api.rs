//! The update-store interface shared by the centralised and distributed
//! implementations.
//!
//! # Concurrency-ready design
//!
//! The paper's update store serves many peers at once (Section 5.2), so the
//! trait is built for shared access:
//!
//! * every method takes `&self` — implementations synchronise internally
//!   (the bundled stores shard their state per participant behind `RwLock`s),
//!   so publishes and reconciliations from different participants proceed in
//!   parallel against one `&Store`;
//! * the trait is **object-safe**: drivers can hold a `&dyn UpdateStore`;
//! * store-side cost is returned *per call* as a [`StoreTiming`] inside
//!   [`Timed`], instead of being accumulated in store-internal mutable state
//!   (the old `take_timing` pattern, which forced `&mut self` everywhere and
//!   raced under concurrent callers);
//! * reconciliation retrieval is **session-based and paged**: \
//!   [`UpdateStore::begin_reconciliation`] opens a [`SessionInfo`] and
//!   candidates are streamed in publication order through
//!   [`UpdateStore::next_batch`], bounding peak memory instead of
//!   materialising every candidate in one `Vec`. A session ends with
//!   [`UpdateStore::commit_reconciliation`] (which durably records the
//!   reconciliation, the decisions and the new epoch cursor) or
//!   [`UpdateStore::abort_reconciliation`] (which leaves store state
//!   untouched).
//!
//! Participants do not call these methods themselves: they publish and
//! reconcile through a [`SessionClient`](crate::SessionClient), whose
//! [`InProcessClient`](crate::InProcessClient) is the thin in-process
//! adapter over this trait.

use orchestra_model::{
    AntichainClock, CausalStamp, Epoch, ParticipantId, ReconciliationId, Transaction,
    TransactionId, TrustPolicy,
};
use orchestra_recon::CandidateTransaction;
use orchestra_storage::{InstanceCheckpoint, PruneReport, Result, StorageError};
use rustc_hash::FxHashSet;
use std::sync::Arc;
use std::time::Duration;

/// Timing breakdown of one update-store call, used to reproduce the paper's
/// store-time vs. local-time split (Figures 10 and 12).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreTiming {
    /// Time spent computing inside the store (trust evaluation, extension
    /// computation, log and epoch bookkeeping).
    pub compute: Duration,
    /// Simulated network latency charged by the store's message protocol
    /// (zero for the centralised store, which the paper accesses over a fast
    /// LAN with a constant number of round trips).
    pub network: Duration,
}

impl StoreTiming {
    /// Total store-side time.
    pub fn total(&self) -> Duration {
        self.compute + self.network
    }

    /// Adds another breakdown to this one.
    pub fn accumulate(&mut self, other: StoreTiming) {
        self.compute += other.compute;
        self.network += other.network;
    }
}

/// A value returned by an update-store call, together with the store-side
/// cost of producing it. Replaces the old store-internal timing accumulator,
/// which required `&mut self` on every method and silently merged the costs
/// of concurrent callers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timed<T> {
    /// The call's result.
    pub value: T,
    /// The store-side cost of this call alone.
    pub timing: StoreTiming,
}

impl<T> Timed<T> {
    /// Wraps a value with its timing.
    pub fn new(value: T, timing: StoreTiming) -> Self {
        Timed { value, timing }
    }
}

/// An opaque handle naming one open reconciliation session at a store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(pub u64);

impl SessionId {
    /// The raw handle value.
    pub fn as_u64(&self) -> u64 {
        self.0
    }
}

/// Metadata of a freshly opened reconciliation session: the reconciliation
/// number the store will assign at commit, the epoch the session is pinned
/// to, an upper bound on the candidates still to stream, and the causal
/// frontier the session covers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionInfo {
    /// The session handle for the follow-up `next_batch` / `commit` /
    /// `abort` calls.
    pub session: SessionId,
    /// The reconciliation number that will be recorded if the session
    /// commits.
    pub recno: ReconciliationId,
    /// The largest stable epoch at open time; the session covers all
    /// transactions published after the participant's previous reconciliation
    /// epoch up to and including this one.
    pub epoch: Epoch,
    /// The number of candidates the session will stream: the undecided
    /// entries pinned at open, every one trusted by the participant's policy
    /// (untrusted transactions are never offered, so never counted).
    pub pending: usize,
    /// The store's causal ingest frontier at open, captured under the same
    /// log lock that pins `epoch`: every stamp in it is at or behind the
    /// session's epoch, so a participant that commits the session has
    /// observed it. Empty on a scalar store.
    pub frontier: AntichainClock,
}

/// The update store interface used by participants.
///
/// Every implementation provides the operations listed in Section 5.2 of the
/// paper: publish transactions, record reconciliations and decisions,
/// retrieve the relevant transactions (with priorities and extensions) for a
/// reconciliation, and expose the participant's durable accepted/rejected
/// record. All methods take `&self`; implementations synchronise internally
/// and the trait is object-safe (see the module docs).
pub trait UpdateStore: Send + Sync {
    /// Registers a participant and its trust policy. Trust predicates are
    /// evaluated inside the store so that only relevant transactions are sent
    /// to the reconciling peer. Registering an already-registered participant
    /// replaces its policy.
    fn register_participant(&self, policy: TrustPolicy);

    /// Publishes a batch of transactions from a peer as one epoch. The store
    /// marks the publisher's own transactions as already accepted by it.
    /// Returns the epoch assigned to the batch, with the call's store cost.
    fn publish(
        &self,
        participant: ParticipantId,
        transactions: Vec<Transaction>,
    ) -> Result<Timed<Epoch>>;

    /// Opens a reconciliation session for a participant, pinned to the
    /// largest stable epoch. Nothing durable changes until the session
    /// commits: aborting leaves the store byte-identical.
    fn begin_reconciliation(&self, participant: ParticipantId) -> Result<Timed<SessionInfo>>;

    /// Streams the next batch of at most `max_candidates` candidate
    /// transactions (trusted, undecided, with priorities and transaction
    /// extensions computed store-side), in publication order. A batch
    /// holding *fewer* than `max_candidates` candidates (in particular an
    /// empty one) means the session is exhausted — implementations must only
    /// return a short batch at end of stream.
    fn next_batch(
        &self,
        session: SessionId,
        max_candidates: usize,
    ) -> Result<Timed<Vec<CandidateTransaction>>>;

    /// Commits a session: durably records the reconciliation (recno and
    /// epoch), the accept/reject decisions made during it (deferred
    /// transactions stay soft at the client), and advances the participant's
    /// epoch cursor. The session handle is consumed.
    fn commit_reconciliation(
        &self,
        session: SessionId,
        accepted: &[TransactionId],
        rejected: &[TransactionId],
    ) -> Result<StoreTiming>;

    /// Aborts a session, leaving every piece of durable store state exactly
    /// as it was before [`UpdateStore::begin_reconciliation`]. The session
    /// handle is consumed. Aborting an unknown session is a no-op.
    fn abort_reconciliation(&self, session: SessionId) -> Result<()>;

    /// Retires a registered participant: its durable decision record stays
    /// (decisions are final), but it stops pinning the retention layer's
    /// convergence horizon, receives no further relevance entries and can no
    /// longer open reconciliation sessions. A laggard that will never
    /// reconcile again must be retired for `ConvergedOnly` retention to make
    /// progress. Re-registering the same id rejoins it as a late member.
    fn retire_participant(&self, participant: ParticipantId) -> Result<()>;

    /// Records accept/reject decisions outside a session (conflict
    /// resolution between reconciliations).
    fn record_decisions(
        &self,
        participant: ParticipantId,
        accepted: &[TransactionId],
        rejected: &[TransactionId],
    ) -> Result<StoreTiming>;

    /// The participant's most recent *committed* reconciliation number.
    fn current_reconciliation(&self, participant: ParticipantId) -> ReconciliationId;

    /// A shared snapshot of the transactions the participant has rejected so
    /// far — a reference-count bump over the incrementally maintained record,
    /// never a fresh set.
    fn rejected_set(&self, participant: ParticipantId) -> Arc<FxHashSet<TransactionId>>;

    /// A shared snapshot of the transactions the participant has accepted so
    /// far (see [`UpdateStore::rejected_set`]).
    fn accepted_set(&self, participant: ParticipantId) -> Arc<FxHashSet<TransactionId>>;

    /// Looks up a published transaction by id, sharing the log's copy.
    fn transaction(&self, id: TransactionId) -> Option<Arc<Transaction>>;

    /// The transactions the participant has accepted, in **acceptance
    /// order** — the order its instance applied them, and therefore the
    /// replay stream that reconstructs the instance up to its last
    /// reconciliation (the paper's soft-state property). Publication order
    /// would not do: a participant executes its own transactions against a
    /// lagging view, so its own write to a key can land locally before a
    /// remotely published one it only accepts later. Each entry shares the
    /// log's copy. This is a recovery path and is not charged to the
    /// reconciliation cost model.
    fn accepted_transactions(&self, participant: ParticipantId) -> Vec<Arc<Transaction>>;

    /// The epoch in which a transaction was published, if it is in the log.
    /// Recovery path (used to tell which of a rebuilt participant's own
    /// publications postdate its last reconciliation); not charged to the
    /// cost model.
    fn epoch_of(&self, id: TransactionId) -> Option<Epoch>;

    /// The accepted transactions of [`UpdateStore::accepted_transactions`]
    /// grouped into **replay units** — maximal antecedent-linked runs, each
    /// the newly accepted slice of one candidate extension. The participant
    /// applied each unit's *flattened* net effect, so reconstruction must
    /// flatten per unit too (a chain that collapsed to a no-op must replay
    /// as a no-op). Recovery path; not charged to the cost model.
    fn accepted_replay_units(&self, participant: ParticipantId) -> Vec<Vec<Arc<Transaction>>>;

    /// The epoch cursor of the participant's most recent *committed*
    /// reconciliation (`Epoch::ZERO` if it has never reconciled).
    fn epoch_cursor(&self, participant: ParticipantId) -> Epoch;

    /// The relevant, trusted, still-undecided transactions at or before the
    /// participant's epoch cursor, in publication order with extensions —
    /// exactly the candidates its earlier reconciliations deferred. This is
    /// the second half of the paper's soft-state property: together with
    /// [`UpdateStore::accepted_transactions`] it lets a participant that lost
    /// all local state rebuild both its instance *and* its deferred conflict
    /// state from the store. Recovery path; not charged to the cost model.
    fn undecided_candidates(&self, participant: ParticipantId) -> Vec<CandidateTransaction>;

    // --- Causal mode -----------------------------------------------------
    //
    // Default implementations keep scalar-only stores valid trait impls:
    // `causal_mode` reports `false` and the stamped entry points error. The
    // bundled stores override the lot by delegating to their catalogue.

    /// Whether the store is in causal mode (client-side stamp allocation;
    /// see [`UpdateStore::publish_stamped`]). Scalar-only stores report
    /// `false`.
    fn causal_mode(&self) -> bool {
        false
    }

    /// Switches the store to causal mode: publishers allocate their own
    /// [`CausalStamp`]s and publish through [`UpdateStore::publish_stamped`];
    /// scalar [`UpdateStore::publish`] is rejected from then on. Idempotent
    /// and one-way. The default errors (scalar-only store).
    fn enable_causal_mode(&self) -> Result<()> {
        Err(StorageError::Causal("this store does not support causal mode".to_string()))
    }

    /// The store's causal ingest frontier: the deepest ingested stamp per
    /// publisher (empty for scalar-only stores) — the store holds everything
    /// at or behind it. A reconciling participant learns it from its
    /// session's [`SessionInfo::frontier`]; a rejoining one reads it here.
    fn causal_frontier(&self) -> AntichainClock {
        AntichainClock::default()
    }

    /// The sequence number the participant's next causal stamp must carry
    /// (per-publisher FIFO, starting at 1). A participant rebuilt from the
    /// store resynchronises its client-side sequence from this.
    fn next_publisher_seq(&self, participant: ParticipantId) -> u64 {
        let _ = participant;
        1
    }

    /// Publishes a causally stamped batch (causal mode only): the stamp was
    /// allocated client-side, so no central sequence round trip serialises
    /// concurrent publishers. Returns the batch's *arrival epoch* — the
    /// store's linear extension of the causal order. The default errors
    /// (scalar-only store).
    fn publish_stamped(
        &self,
        stamp: CausalStamp,
        transactions: Vec<Transaction>,
    ) -> Result<Timed<Epoch>> {
        let _ = (stamp, transactions);
        Err(StorageError::Causal("this store does not support causal stamps".to_string()))
    }

    // --- Fabric replication ----------------------------------------------
    //
    // Default implementations keep standalone stores valid trait impls: the
    // replica entry points error. A store that can serve as a fabric shard
    // (the central store) overrides them.

    /// Publishes, at the epoch the home shard assigned, a batch already
    /// published at another fabric shard. Replication keeps every shard's log
    /// identical — same transactions, same epoch numbering — and is otherwise
    /// an ordinary publish: the store extends the relevance of the policies
    /// registered *on it*, which on a fabric are those of the participants
    /// homed there. Errors if this store would assign a different epoch (the
    /// fabric fan-out got out of order) or if it does not support
    /// replication (the default).
    fn publish_replica(
        &self,
        participant: ParticipantId,
        epoch: Epoch,
        transactions: Vec<Transaction>,
    ) -> Result<Timed<Epoch>> {
        let _ = (participant, epoch, transactions);
        Err(StorageError::Persistence("this store does not support fabric replication".to_string()))
    }

    /// Causal-mode counterpart of [`UpdateStore::publish_replica`]: publishes
    /// a causally stamped batch at the home shard's epoch, validating and
    /// ingesting the stamp exactly as the home shard did. The default
    /// errors.
    fn publish_replica_stamped(
        &self,
        stamp: CausalStamp,
        epoch: Epoch,
        transactions: Vec<Transaction>,
    ) -> Result<Timed<Epoch>> {
        let _ = (stamp, epoch, transactions);
        Err(StorageError::Persistence("this store does not support fabric replication".to_string()))
    }

    /// Durably records a participant's materialised instance checkpoint, so
    /// rebuilding from the store survives retention pruning the transactions
    /// the instance was built from. The default errors (store without
    /// checkpoint support).
    fn record_instance_checkpoint(
        &self,
        participant: ParticipantId,
        checkpoint: InstanceCheckpoint,
    ) -> Result<()> {
        let _ = (participant, checkpoint);
        Err(StorageError::Causal("this store does not support instance checkpoints".to_string()))
    }

    /// The participant's latest instance checkpoint, if it has recorded one.
    fn instance_checkpoint(&self, participant: ParticipantId) -> Option<InstanceCheckpoint> {
        let _ = participant;
        None
    }

    /// Like [`UpdateStore::accepted_replay_units`], but skipping the first
    /// `skip` entries of the participant's acceptance order — the prefix an
    /// [`InstanceCheckpoint`] already folds in. `skip` counts acceptance
    /// *order* entries (pruned ones included), which only the store can index
    /// correctly, so there is deliberately no default in terms of
    /// `accepted_replay_units` (that would over-skip on a pruned store).
    /// Recovery path; not charged to the cost model.
    fn accepted_replay_units_after(
        &self,
        participant: ParticipantId,
        skip: u64,
    ) -> Vec<Vec<Arc<Transaction>>> {
        if skip == 0 {
            return self.accepted_replay_units(participant);
        }
        Vec::new()
    }

    // --- Administration: snapshot, retention, restart --------------------
    //
    // The defaults error: the fabric, whose shards keep no write-ahead log,
    // has none of the three. The central and DHT stores override the lot by
    // delegating to their catalogue.

    /// Takes a compacting snapshot of a durable store and starts a fresh WAL
    /// generation, which it returns. Errors on an ephemeral store.
    fn snapshot(&self) -> Result<u64> {
        Err(StorageError::Persistence("this store does not take snapshots".to_string()))
    }

    /// Prunes converged history per the store's retention policy (see
    /// [`orchestra_storage::RetentionPolicy`]); decisions stay.
    fn prune_to_horizon(&self) -> Result<PruneReport> {
        Err(StorageError::Persistence("this store does not prune".to_string()))
    }

    /// The store a restarted store process holds, reopened from everything
    /// this one wrote to its directory; the caller drops this one for it.
    /// A recovered store whose durable state does not render byte-identically
    /// to this one's is an error, not a store. The retention policy is
    /// configuration and carries over. Errors on an ephemeral store.
    fn restart(&self) -> Result<Self>
    where
        Self: Sized,
    {
        Err(StorageError::Persistence(
            "this store cannot restart from a write-ahead log".to_string(),
        ))
    }
}

/// Compile-time proof that the trait stays object-safe.
const _: fn(&dyn UpdateStore) = |_| {};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_timing_accumulates_and_totals() {
        let mut a =
            StoreTiming { compute: Duration::from_millis(2), network: Duration::from_millis(3) };
        let b =
            StoreTiming { compute: Duration::from_millis(5), network: Duration::from_millis(7) };
        a.accumulate(b);
        assert_eq!(a.compute, Duration::from_millis(7));
        assert_eq!(a.network, Duration::from_millis(10));
        assert_eq!(a.total(), Duration::from_millis(17));
        assert_eq!(StoreTiming::default().total(), Duration::ZERO);
    }

    #[test]
    fn timed_carries_value_and_cost() {
        let t = Timed::new(
            42u32,
            StoreTiming { compute: Duration::from_micros(1), network: Duration::ZERO },
        );
        assert_eq!(t.value, 42);
        assert_eq!(t.timing.total(), Duration::from_micros(1));
        assert_eq!(SessionId(7).as_u64(), 7);
    }
}
