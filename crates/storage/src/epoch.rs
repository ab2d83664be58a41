//! Epoch allocation and publication bookkeeping.
//!
//! Section 5.2.1 of the paper: an epoch counter (an SQL sequence in the
//! original implementation) timestamps each batch of published transactions.
//! Because publishing is not instantaneous, each peer records when it starts
//! and when it finishes publishing; a reconciling peer then uses the *largest
//! stable epoch* — the latest epoch not preceded by an unfinished epoch — as
//! its reconciliation point, so that no transaction can later appear "in the
//! past".
//!
//! # Causal mode
//!
//! The scalar counter is the store's one global serialisation point, and a
//! partitioned participant cannot publish against it at all. In *causal mode*
//! the registry additionally maintains a [`CausalRegistry`]: publishers
//! allocate their own 1-based per-publisher sequences client-side
//! ([`orchestra_model::CausalStamp`]), the store ingests stamps in any
//! interleaving that respects each publisher's FIFO, and every ingested stamp
//! still receives an *arrival epoch* from the scalar sequence — the store's
//! linear extension of the causal order, which keeps cursors, sessions and
//! retention horizons epoch-keyed while the stamps remain the ground truth
//! for ordering and merge decisions.

use crate::error::{Result, StorageError};
use orchestra_model::{AntichainClock, CausalStamp, Epoch, ParticipantId, StampId};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;

/// Publication status of one epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PublicationStatus {
    /// The publishing peer has requested the epoch but not finished writing
    /// its transactions.
    Started,
    /// The publishing peer has finished writing all transactions for the
    /// epoch.
    Finished,
}

/// One allocated epoch and who is publishing in it.
///
/// Fields are `pub(crate)` so the binary codec ([`crate::codec`]) can
/// serialise and rebuild records without an intermediate representation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct EpochRecord {
    pub(crate) publisher: ParticipantId,
    pub(crate) status: PublicationStatus,
}

/// One ingested causal stamp's durable DAG node: the parent frontier it
/// descends from and the arrival epoch the store assigned on ingest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CausalNode {
    /// The frontier the stamped publication causally descends from.
    pub parents: AntichainClock,
    /// The stamp's slot in the store's linear extension of the causal order.
    pub epoch: Epoch,
}

/// The causal side of the registry: the stamp DAG, the per-publisher ingest
/// frontier, and the mode switch.
///
/// The frontier doubles as the per-publisher FIFO validator: a publisher's
/// next acceptable stamp is always `frontier.seq_of(publisher) + 1`, whether
/// the publisher was online or buffered the stamp while partitioned. Pruning
/// drops DAG nodes but never the frontier, so sequence validation keeps
/// working.
#[derive(Debug, Clone, Default)]
pub struct CausalRegistry {
    pub(crate) enabled: bool,
    /// DAG nodes by stamp id.
    pub(crate) nodes: BTreeMap<StampId, CausalNode>,
    /// Deepest ingested stamp per publisher.
    pub(crate) frontier: AntichainClock,
}

impl CausalRegistry {
    /// Whether the registry is in causal mode.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Switches causal mode on (idempotent; there is no way back — scalar
    /// epochs keep being allocated as the linear extension either way).
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    /// The store's ingest frontier: the deepest ingested stamp per publisher.
    pub fn frontier(&self) -> &AntichainClock {
        &self.frontier
    }

    /// The deepest ingested sequence of a publisher (0 if it never
    /// published).
    pub fn last_seq(&self, publisher: ParticipantId) -> u64 {
        self.frontier.seq_of(publisher).unwrap_or(0)
    }

    /// The sequence number the publisher's next stamp must carry.
    pub fn next_seq(&self, publisher: ParticipantId) -> u64 {
        self.last_seq(publisher) + 1
    }

    /// Checks that a stamp is admissible without recording it: the registry
    /// must be in causal mode, the per-publisher sequence must be the next in
    /// FIFO order, and every parent must already be ingested at least that
    /// deep. Callers that interleave stamp admission with other bookkeeping
    /// (epoch allocation, WAL appends) validate first so a rejected stamp
    /// leaves no trace.
    pub fn validate(&self, stamp: &CausalStamp) -> Result<()> {
        if !self.enabled {
            return Err(StorageError::Causal("store is not in causal mode".to_string()));
        }
        let expected = self.next_seq(stamp.publisher);
        if stamp.seq != expected {
            return Err(StorageError::Causal(format!(
                "stamp {} out of order: expected {}#{expected}",
                stamp.id(),
                stamp.publisher
            )));
        }
        for &parent in stamp.parents.members() {
            let known = if parent.publisher == stamp.publisher {
                parent.seq < stamp.seq
            } else {
                self.last_seq(parent.publisher) >= parent.seq
            };
            if !known {
                return Err(StorageError::Causal(format!(
                    "stamp {} names unknown parent {parent}",
                    stamp.id()
                )));
            }
        }
        Ok(())
    }

    /// Validates and records one stamp (see [`CausalRegistry::validate`]).
    /// `epoch` is the arrival slot the scalar sequence assigned.
    pub fn ingest(&mut self, stamp: &CausalStamp, epoch: Epoch) -> Result<()> {
        self.validate(stamp)?;
        self.nodes.insert(stamp.id(), CausalNode { parents: stamp.parents.clone(), epoch });
        self.frontier.insert(stamp.id());
        Ok(())
    }

    /// The arrival epoch a stamp was ingested at, if its node is live.
    pub fn epoch_of(&self, id: StampId) -> Option<Epoch> {
        self.nodes.get(&id).map(|n| n.epoch)
    }

    /// Drops the DAG nodes of every stamp whose arrival epoch is at or below
    /// `through`, keeping the frontier (and with it FIFO validation) intact.
    /// Returns the number of nodes removed.
    pub fn prune_through(&mut self, through: Epoch) -> u64 {
        let before = self.nodes.len();
        self.nodes.retain(|_, n| n.epoch > through);
        (before - self.nodes.len()) as u64
    }

    /// Number of live (unpruned) DAG nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if no stamp's node is live.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

/// The epoch sequence plus per-epoch publication records.
#[derive(Clone)]
pub struct EpochRegistry {
    /// The records of the unpruned epochs, oldest first: epochs are
    /// allocated consecutively and pruned from the front, so the live ones
    /// are exactly `next - records.len() .. next`.
    pub(crate) records: VecDeque<EpochRecord>,
    pub(crate) next: u64,
    /// The stable frontier, advanced incrementally as publications finish so
    /// that [`EpochRegistry::largest_stable_epoch`] is O(1) instead of a scan
    /// over every epoch ever allocated.
    pub(crate) stable: u64,
    /// The causal side: stamp DAG, ingest frontier, mode switch (disabled —
    /// and empty — in scalar mode).
    pub(crate) causal: CausalRegistry,
}

impl fmt::Debug for EpochRegistry {
    /// Renders the records as an epoch → record map.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let records: BTreeMap<u64, &EpochRecord> = self.records().collect();
        f.debug_struct("EpochRegistry")
            .field("records", &records)
            .field("next", &self.next)
            .field("stable", &self.stable)
            .field("causal", &self.causal)
            .finish()
    }
}

impl Default for EpochRegistry {
    fn default() -> Self {
        EpochRegistry::new()
    }
}

impl EpochRegistry {
    /// Creates an empty registry; the first allocated epoch will be 1.
    pub fn new() -> Self {
        EpochRegistry {
            records: VecDeque::new(),
            next: 1,
            stable: 0,
            causal: CausalRegistry::default(),
        }
    }

    /// The causal side of the registry (stamp DAG, ingest frontier, mode).
    pub fn causal(&self) -> &CausalRegistry {
        &self.causal
    }

    /// Mutable access to the causal side.
    pub fn causal_mut(&mut self) -> &mut CausalRegistry {
        &mut self.causal
    }

    /// The oldest unpruned epoch (`next` when no record is live).
    fn first(&self) -> u64 {
        self.next - self.records.len() as u64
    }

    /// The live records with their epochs, oldest first.
    pub(crate) fn records(&self) -> impl Iterator<Item = (u64, &EpochRecord)> + '_ {
        (self.first()..).zip(&self.records)
    }

    /// Where an epoch's record sits in `records`, if the epoch is not
    /// below the oldest live one (the index may be past the end).
    fn index_of(&self, epoch: Epoch) -> Option<usize> {
        usize::try_from(epoch.as_u64().checked_sub(self.first())?).ok()
    }

    /// Installs the records and the allocation counter a snapshot carries,
    /// refusing records that skip an epoch or do not end at the last
    /// allocated one (`next - 1`).
    pub(crate) fn restore(&mut self, records: Vec<(u64, EpochRecord)>, next: u64) -> Result<()> {
        let first = next.checked_sub(records.len() as u64).ok_or_else(|| {
            StorageError::Persistence(format!(
                "snapshot holds {} epoch records but only {next} allocated epochs",
                records.len()
            ))
        })?;
        for (expected, (epoch, _)) in (first..).zip(&records) {
            if *epoch != expected {
                return Err(StorageError::Persistence(format!(
                    "snapshot epoch records are not consecutive up to epoch {}: found {epoch} \
                     where {expected} belongs",
                    next - 1
                )));
            }
        }
        self.records = records.into_iter().map(|(_, record)| record).collect();
        self.next = next;
        Ok(())
    }

    /// Allocates the next epoch for a publishing peer and marks it started.
    pub fn begin_publish(&mut self, publisher: ParticipantId) -> Epoch {
        let epoch = Epoch(self.next);
        self.next += 1;
        self.records.push_back(EpochRecord { publisher, status: PublicationStatus::Started });
        epoch
    }

    /// Marks an epoch's publication as finished.
    pub fn finish_publish(&mut self, epoch: Epoch) -> Result<()> {
        let record = self
            .index_of(epoch)
            .and_then(|index| self.records.get_mut(index))
            .ok_or(StorageError::UnknownEpoch(epoch.as_u64()))?;
        record.status = PublicationStatus::Finished;
        // Advance the stable frontier over every consecutively finished
        // epoch. Each epoch is crossed exactly once over the registry's
        // lifetime, so the amortised cost is O(1).
        while self.status(Epoch(self.stable + 1)) == Some(PublicationStatus::Finished) {
            self.stable += 1;
        }
        Ok(())
    }

    fn record(&self, epoch: Epoch) -> Option<&EpochRecord> {
        self.index_of(epoch).and_then(|index| self.records.get(index))
    }

    /// The publication status of an epoch, if it has been allocated.
    pub fn status(&self, epoch: Epoch) -> Option<PublicationStatus> {
        self.record(epoch).map(|r| r.status)
    }

    /// The peer publishing in an epoch, if it has been allocated.
    pub fn publisher(&self, epoch: Epoch) -> Option<ParticipantId> {
        self.record(epoch).map(|r| r.publisher)
    }

    /// The most recently allocated epoch (`Epoch::ZERO` if none).
    pub fn latest_allocated(&self) -> Epoch {
        Epoch(self.next.saturating_sub(1))
    }

    /// The largest stable epoch: the greatest epoch `e` such that every
    /// allocated epoch `≤ e` has finished publishing. A reconciling peer uses
    /// this as its reconciliation epoch so that no unpublished transaction
    /// can precede it.
    pub fn largest_stable_epoch(&self) -> Epoch {
        Epoch(self.stable)
    }

    /// Drops the publication records of every epoch at or below `through`,
    /// keeping the allocation counter and the stable frontier intact — the
    /// retention layer calls this for epochs below the convergence horizon,
    /// which are always finished (the horizon never passes the stable
    /// frontier). Returns the number of records removed. Pruned epochs
    /// answer [`EpochRegistry::status`] / [`EpochRegistry::publisher`] with
    /// `None`, exactly like never-allocated ones.
    pub fn prune_through(&mut self, through: Epoch) -> u64 {
        let through_len = through.as_u64().saturating_add(1).saturating_sub(self.first());
        let pruned = self.records.len().min(usize::try_from(through_len).unwrap_or(usize::MAX));
        self.records.drain(..pruned);
        // Causal DAG nodes live and die with their arrival epoch's record.
        self.causal.prune_through(through);
        pruned as u64
    }

    /// Number of live (unpruned) epoch records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns true if no epoch has been allocated.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> ParticipantId {
        ParticipantId(i)
    }

    #[test]
    fn epochs_are_allocated_sequentially_from_one() {
        let mut reg = EpochRegistry::new();
        assert!(reg.is_empty());
        assert_eq!(reg.begin_publish(p(1)), Epoch(1));
        assert_eq!(reg.begin_publish(p(2)), Epoch(2));
        assert_eq!(reg.latest_allocated(), Epoch(2));
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.publisher(Epoch(1)), Some(p(1)));
        assert_eq!(reg.publisher(Epoch(2)), Some(p(2)));
        assert_eq!(reg.publisher(Epoch(3)), None);
    }

    #[test]
    fn stable_epoch_stops_at_first_unfinished() {
        let mut reg = EpochRegistry::new();
        let e1 = reg.begin_publish(p(1));
        let e2 = reg.begin_publish(p(2));
        let e3 = reg.begin_publish(p(3));
        assert_eq!(reg.largest_stable_epoch(), Epoch::ZERO);

        reg.finish_publish(e1).unwrap();
        assert_eq!(reg.largest_stable_epoch(), Epoch(1));

        // Epoch 3 finishes before epoch 2: the stable frontier stays at 1.
        reg.finish_publish(e3).unwrap();
        assert_eq!(reg.largest_stable_epoch(), Epoch(1));

        reg.finish_publish(e2).unwrap();
        assert_eq!(reg.largest_stable_epoch(), Epoch(3));
    }

    #[test]
    fn finish_of_unknown_epoch_is_error() {
        let mut reg = EpochRegistry::new();
        assert!(matches!(reg.finish_publish(Epoch(5)), Err(StorageError::UnknownEpoch(5))));
    }

    #[test]
    fn status_transitions() {
        let mut reg = EpochRegistry::new();
        let e = reg.begin_publish(p(1));
        assert_eq!(reg.status(e), Some(PublicationStatus::Started));
        reg.finish_publish(e).unwrap();
        assert_eq!(reg.status(e), Some(PublicationStatus::Finished));
        assert_eq!(reg.status(Epoch(99)), None);
    }

    #[test]
    fn pruning_keeps_the_counter_and_frontier() {
        let mut reg = EpochRegistry::new();
        for i in 1..=4u32 {
            let e = reg.begin_publish(p(i));
            reg.finish_publish(e).unwrap();
        }
        assert_eq!(reg.prune_through(Epoch(2)), 2);
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.status(Epoch(1)), None);
        assert_eq!(reg.publisher(Epoch(2)), None);
        assert_eq!(reg.publisher(Epoch(3)), Some(p(3)));
        // Allocation continues where it left off; stability is unaffected.
        assert_eq!(reg.largest_stable_epoch(), Epoch(4));
        assert_eq!(reg.begin_publish(p(9)), Epoch(5));
        assert_eq!(reg.latest_allocated(), Epoch(5));
        // Pruning the same range again is a no-op.
        assert_eq!(reg.prune_through(Epoch(2)), 0);
    }

    #[test]
    fn empty_registry_is_stable_at_zero() {
        let reg = EpochRegistry::new();
        assert_eq!(reg.largest_stable_epoch(), Epoch::ZERO);
        assert_eq!(reg.latest_allocated(), Epoch::ZERO);
    }

    fn stamp(publisher: u32, seq: u64, parents: &[StampId]) -> CausalStamp {
        CausalStamp::new(p(publisher), seq, AntichainClock::from_stamps(parents.iter().copied()))
    }

    #[test]
    fn causal_ingest_enforces_per_publisher_fifo() {
        let mut causal = CausalRegistry::default();
        assert!(matches!(causal.ingest(&stamp(1, 1, &[]), Epoch(1)), Err(StorageError::Causal(_))));
        causal.enable();
        assert!(causal.is_enabled());
        causal.ingest(&stamp(1, 1, &[]), Epoch(1)).unwrap();
        // A gap and a replay are both rejected.
        assert!(matches!(causal.ingest(&stamp(1, 3, &[]), Epoch(2)), Err(StorageError::Causal(_))));
        assert!(matches!(causal.ingest(&stamp(1, 1, &[]), Epoch(2)), Err(StorageError::Causal(_))));
        causal.ingest(&stamp(1, 2, &[StampId::new(p(1), 1)]), Epoch(2)).unwrap();
        assert_eq!(causal.last_seq(p(1)), 2);
        assert_eq!(causal.next_seq(p(2)), 1);
        assert_eq!(causal.frontier().to_string(), "{p1:2}");
    }

    #[test]
    fn causal_ingest_rejects_unknown_parents() {
        let mut causal = CausalRegistry::default();
        causal.enable();
        causal.ingest(&stamp(1, 1, &[]), Epoch(1)).unwrap();
        // A parent the store has never seen that deep is rejected.
        assert!(matches!(
            causal.ingest(&stamp(2, 1, &[StampId::new(p(1), 5)]), Epoch(2)),
            Err(StorageError::Causal(_))
        ));
        // A parent at or behind the frontier is fine.
        causal.ingest(&stamp(2, 1, &[StampId::new(p(1), 1)]), Epoch(2)).unwrap();
        assert_eq!(causal.epoch_of(StampId::new(p(2), 1)), Some(Epoch(2)));
    }

    #[test]
    fn registry_prune_drops_causal_nodes_but_keeps_the_frontier() {
        let mut reg = EpochRegistry::new();
        reg.causal_mut().enable();
        for seq in 1..=3u64 {
            let e = reg.begin_publish(p(1));
            let parents: &[StampId] =
                &(seq > 1).then(|| StampId::new(p(1), seq - 1)).into_iter().collect::<Vec<_>>();
            reg.causal_mut().ingest(&stamp(1, seq, parents), e).unwrap();
            reg.finish_publish(e).unwrap();
        }
        assert_eq!(reg.causal().len(), 3);
        reg.prune_through(Epoch(2));
        assert_eq!(reg.causal().len(), 1);
        // FIFO validation survives: the next stamp is still #4.
        assert_eq!(reg.causal().next_seq(p(1)), 4);
    }
}
