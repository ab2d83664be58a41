//! Epoch allocation.
//!
//! Section 5.2.1 of the paper: an epoch counter (an SQL sequence in the
//! original implementation) timestamps each batch of published transactions.
//! There, publishing into an RDBMS is not instantaneous, so each peer records
//! when it starts and when it finishes publishing, and a reconciling peer
//! uses the *largest stable epoch* — the latest epoch not preceded by an
//! unfinished one — as its reconciliation point, so that no transaction can
//! later appear "in the past".
//!
//! Here every allocated epoch is already stable, so the registry keeps no
//! per-epoch records: `orchestra_store::StoreCatalog::publish` allocates an
//! epoch, writes the batch and ends the publication within one hold of the
//! log write lock, and every reader of the counter takes that lock, so no
//! reader ever sees a started but unfinished epoch. A publish that is not
//! atomic — one whose batch reaches the store in several steps, as a durable
//! distributed fabric's would — needs the started/finished records and the
//! stable frontier back.
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
use std::collections::BTreeMap;

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
    pub(crate) fn last_seq(&self, publisher: ParticipantId) -> u64 {
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

/// The epoch allocation counter plus the causal side.
#[derive(Debug, Clone)]
pub struct EpochRegistry {
    /// The next epoch to allocate; epochs below it are allocated.
    pub(crate) next: u64,
    /// The causal side: stamp DAG, ingest frontier, mode switch (disabled —
    /// and empty — in scalar mode).
    pub(crate) causal: CausalRegistry,
}

impl Default for EpochRegistry {
    fn default() -> Self {
        EpochRegistry::new()
    }
}

impl EpochRegistry {
    /// Creates an empty registry; the first allocated epoch will be 1.
    pub fn new() -> Self {
        EpochRegistry { next: 1, causal: CausalRegistry::default() }
    }

    /// The causal side of the registry (stamp DAG, ingest frontier, mode).
    pub fn causal(&self) -> &CausalRegistry {
        &self.causal
    }

    /// Mutable access to the causal side.
    pub fn causal_mut(&mut self) -> &mut CausalRegistry {
        &mut self.causal
    }

    /// Allocates the next epoch.
    pub fn allocate(&mut self) -> Epoch {
        let epoch = Epoch(self.next);
        self.next += 1;
        epoch
    }

    /// The most recently allocated epoch (`Epoch::ZERO` if none).
    pub fn latest_allocated(&self) -> Epoch {
        Epoch(self.next.saturating_sub(1))
    }

    /// The largest stable epoch: the greatest epoch `e` such that every
    /// allocated epoch `≤ e` has finished publishing. A reconciling peer uses
    /// this as its reconciliation epoch so that no unpublished transaction
    /// can precede it. It is the latest allocated epoch, which holds only
    /// because the store allocates an epoch and finishes publishing in it
    /// within one hold of its log write lock, the lock every reader of this
    /// registry takes (see the module docs).
    pub fn largest_stable_epoch(&self) -> Epoch {
        self.latest_allocated()
    }

    /// Drops the causal DAG nodes of every epoch at or below `through`,
    /// keeping the allocation counter and the causal frontier intact — the
    /// retention layer calls this for epochs below the convergence horizon.
    pub fn prune_through(&mut self, through: Epoch) {
        self.causal.prune_through(through);
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
        assert_eq!(reg.allocate(), Epoch(1));
        assert_eq!(reg.allocate(), Epoch(2));
        assert_eq!(reg.latest_allocated(), Epoch(2));
        assert_eq!(reg.largest_stable_epoch(), Epoch(2));
    }

    #[test]
    fn pruning_keeps_the_counter_and_frontier() {
        let mut reg = EpochRegistry::new();
        for _ in 1..=4 {
            reg.allocate();
        }
        reg.prune_through(Epoch(2));
        // Allocation continues where it left off; stability is unaffected.
        assert_eq!(reg.largest_stable_epoch(), Epoch(4));
        assert_eq!(reg.allocate(), Epoch(5));
        assert_eq!(reg.latest_allocated(), Epoch(5));
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
            let e = reg.allocate();
            let parents: &[StampId] =
                &(seq > 1).then(|| StampId::new(p(1), seq - 1)).into_iter().collect::<Vec<_>>();
            reg.causal_mut().ingest(&stamp(1, seq, parents), e).unwrap();
        }
        assert_eq!(reg.causal().len(), 3);
        reg.prune_through(Epoch(2));
        assert_eq!(reg.causal().len(), 1);
        // FIFO validation survives: the next stamp is still #4.
        assert_eq!(reg.causal().next_seq(p(1)), 4);
    }
}
