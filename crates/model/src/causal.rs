//! Causal version stamps and antichain clocks.
//!
//! The paper's update store orders publications with a single scalar epoch
//! counter (an SQL sequence): every publish serialises through one allocator,
//! and a partitioned participant cannot publish at all. This module replaces
//! that counter — behind a mode switch — with a *causal DAG* in the style of
//! causal version graphs: each publisher allocates its own totally-ordered
//! sequence of [`StampId`]s, every published batch carries a
//! [`crate::ids::CausalStamp`] naming the frontier it causally descends from,
//! and two histories are compared by walking the DAG backwards.
//!
//! # Nomenclature
//!
//! * A **stamp id** `p3:7` is one event: publisher 3's seventh publication.
//!   Stamps of one publisher form a chain (`p3:7` descends from `p3:6`).
//! * An [`AntichainClock`] is a set of stamp ids none of which is an ancestor
//!   of another — the *frontier* of a causal history. Because each
//!   publisher's stamps are totally ordered, an antichain holds at most one
//!   stamp per publisher.
//! * [`CausalRelation`] is the result of comparing two clocks: `Equal`,
//!   `StrictDescends` (with a forward chain witnessing the descent),
//!   `StrictAscends`, `DivergedSince` (with the meet — the greatest common
//!   frontier), `Disjoint`, or `BudgetExceeded` when the backward traversal
//!   hit its budget.
//!
//! The comparator ([`compare_clocks`]) runs a backward breadth-first search
//! from both frontiers toward common ancestors, bounded by a traversal
//! budget so that a deep history cannot stall a store-side comparison; the
//! forward chain reported for `StrictDescends` is recovered from the BFS
//! parent pointers and runs oldest → newest. Coverage and meets are computed
//! per publisher *chain* (reaching `p:n` implicitly reaches `p:1..n`), so
//! same-publisher comparisons cost no traversal and verdicts stay correct
//! when intermediate history has been pruned below the retention horizon.

use crate::ids::ParticipantId;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

/// One event in the causal DAG: a publisher plus its per-publisher sequence
/// number (1-based; sequence 0 never exists, the empty clock is the root).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StampId {
    /// The publishing participant.
    pub publisher: ParticipantId,
    /// Its per-publisher sequence number, allocated 1, 2, 3, … by the
    /// publisher itself (not by a shared counter).
    pub seq: u64,
}

impl StampId {
    /// Creates a stamp id.
    pub fn new(publisher: ParticipantId, seq: u64) -> Self {
        StampId { publisher, seq }
    }

    /// The deterministic tie-break between two stamps that the scalar order
    /// cannot separate: deeper per-publisher chains first, then the smaller
    /// publisher id. Total, antisymmetric, and independent of arrival order —
    /// the WAL segment merge and conflict bookkeeping use it so every replica
    /// linearises ties identically.
    pub fn tie_break(self, other: StampId) -> std::cmp::Ordering {
        other.seq.cmp(&self.seq).then(self.publisher.cmp(&other.publisher))
    }
}

impl fmt::Display for StampId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.publisher, self.seq)
    }
}

/// A frontier of a causal history: a set of [`StampId`]s none of which is an
/// ancestor of another. Because each publisher's stamps form a chain, the
/// clock keeps at most one stamp per publisher — inserting `p3:7` absorbs
/// `p3:5`. Members are held sorted by publisher, so equal clocks compare,
/// hash, render and serialise identically regardless of insertion order.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct AntichainClock {
    members: Vec<StampId>,
}

impl AntichainClock {
    /// The empty clock — the root every history descends from.
    pub fn new() -> Self {
        AntichainClock { members: Vec::new() }
    }

    /// Builds a clock from arbitrary stamps, keeping the deepest per
    /// publisher.
    pub fn from_stamps(stamps: impl IntoIterator<Item = StampId>) -> Self {
        let mut clock = AntichainClock::new();
        for stamp in stamps {
            clock.insert(stamp);
        }
        clock
    }

    /// True if no event has happened yet.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Number of distinct publishers on the frontier.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// The frontier members, sorted by publisher.
    pub fn members(&self) -> &[StampId] {
        &self.members
    }

    /// The frontier's sequence number for a publisher, if that publisher has
    /// published.
    pub fn seq_of(&self, publisher: ParticipantId) -> Option<u64> {
        self.members
            .binary_search_by_key(&publisher, |s| s.publisher)
            .ok()
            .map(|idx| self.members[idx].seq)
    }

    /// True if the clock's per-publisher entry is at or past the stamp —
    /// i.e. the stamp is on or behind the frontier *along its own
    /// publisher's chain*. (Cross-publisher ancestry needs the DAG; see
    /// [`compare_clocks`].)
    pub fn covers(&self, stamp: StampId) -> bool {
        self.seq_of(stamp.publisher).is_some_and(|seq| seq >= stamp.seq)
    }

    /// Inserts a stamp, absorbing any shallower stamp of the same publisher.
    /// Returns true if the frontier advanced.
    pub fn insert(&mut self, stamp: StampId) -> bool {
        match self.members.binary_search_by_key(&stamp.publisher, |s| s.publisher) {
            Ok(idx) => {
                if self.members[idx].seq < stamp.seq {
                    self.members[idx].seq = stamp.seq;
                    true
                } else {
                    false
                }
            }
            Err(idx) => {
                self.members.insert(idx, stamp);
                true
            }
        }
    }

    /// Merges another clock in, keeping the deepest stamp per publisher.
    /// Returns true if the frontier advanced.
    pub fn merge(&mut self, other: &AntichainClock) -> bool {
        let mut advanced = false;
        for &stamp in &other.members {
            advanced |= self.insert(stamp);
        }
        advanced
    }
}

impl fmt::Display for AntichainClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, stamp) in self.members.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{stamp}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<StampId> for AntichainClock {
    fn from_iter<I: IntoIterator<Item = StampId>>(iter: I) -> Self {
        AntichainClock::from_stamps(iter)
    }
}

/// How two causal frontiers relate, per the backward-BFS comparator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CausalRelation {
    /// The frontiers are the same set of stamps.
    Equal,
    /// The subject strictly descends from (is causally after) the other
    /// frontier. `chain` is one forward path witnessing the descent, oldest
    /// stamp first, ending in a subject-frontier member.
    StrictDescends {
        /// A forward chain (oldest → newest) from the other frontier into
        /// the subject frontier.
        chain: Vec<StampId>,
    },
    /// The subject is strictly before the other frontier (the mirror of
    /// `StrictDescends`).
    StrictAscends,
    /// The frontiers are concurrent: each contains events the other has not
    /// seen, but they share history.
    DivergedSince {
        /// The meet — the deepest common frontier both histories descend
        /// from (empty when they share only the root).
        meet: AntichainClock,
    },
    /// The frontiers share no history at all (distinct publishers, no common
    /// ancestors) — concurrent from the root.
    Disjoint,
    /// The backward traversal spent its budget before reaching a verdict.
    BudgetExceeded {
        /// The budget that was exhausted (parent-set lookups performed).
        budget: usize,
    },
}

/// Backward breadth-first state for one side of the comparison: the stamps
/// reached so far and, for chain recovery, which child each stamp was first
/// reached from.
///
/// Because each publisher's stamps form a total chain (`p:n` descends from
/// `p:n-1` by construction), reaching `p:n` implicitly reaches the whole
/// chain below it — the per-publisher maximum (`deepest`) therefore closes
/// the ancestry without materialising it, which keeps same-publisher
/// comparisons O(1) and keeps verdicts correct even when parent sets below
/// the retention horizon have been pruned away.
struct Reach {
    seen: BTreeSet<StampId>,
    /// Deepest reached sequence per publisher (the chain-closure of `seen`).
    deepest: BTreeMap<ParticipantId, u64>,
    frontier: VecDeque<StampId>,
    /// `child_of[s]` = the stamp whose parent set first yielded `s` (absent
    /// for the roots of the search).
    child_of: BTreeMap<StampId, StampId>,
}

impl Reach {
    fn from_clock(clock: &AntichainClock) -> Self {
        let mut reach = Reach {
            seen: BTreeSet::new(),
            deepest: BTreeMap::new(),
            frontier: clock.members().iter().copied().collect(),
            child_of: BTreeMap::new(),
        };
        for &stamp in clock.members() {
            reach.insert(stamp);
        }
        reach
    }

    fn insert(&mut self, stamp: StampId) -> bool {
        let depth = self.deepest.entry(stamp.publisher).or_insert(0);
        *depth = (*depth).max(stamp.seq);
        self.seen.insert(stamp)
    }

    /// True if the search's ancestry contains the stamp, explicitly or
    /// through its publisher's chain.
    fn covers(&self, stamp: StampId) -> bool {
        self.deepest.get(&stamp.publisher).is_some_and(|&seq| seq >= stamp.seq)
    }

    /// Expands one stamp of the frontier through `parents_of`; returns false
    /// when the frontier is exhausted.
    fn step(&mut self, parents_of: &mut impl FnMut(StampId) -> Option<AntichainClock>) -> bool {
        let Some(stamp) = self.frontier.pop_front() else {
            return false;
        };
        if let Some(parents) = parents_of(stamp) {
            for &parent in parents.members() {
                if self.insert(parent) {
                    self.child_of.insert(parent, stamp);
                    self.frontier.push_back(parent);
                }
            }
        }
        true
    }

    /// Walks forward from `from` to a search root, producing the chain oldest
    /// → newest. Segments the search reached only through a publisher's
    /// implicit chain are synthesised stamp by stamp; from the first visited
    /// stamp onward the recorded child pointers take over.
    fn forward_chain(&self, from: StampId) -> Vec<StampId> {
        let mut chain = Vec::new();
        let mut cursor = from;
        if !self.seen.contains(&from) {
            // Find the shallowest *visited* stamp of the same publisher at or
            // above `from` and synthesise the chain segment up to it.
            let visited =
                self.seen.range(from..=StampId::new(from.publisher, u64::MAX)).next().copied();
            let Some(visited) = visited else {
                return vec![from];
            };
            chain.extend((from.seq..visited.seq).map(|seq| StampId::new(from.publisher, seq)));
            cursor = visited;
        }
        chain.push(cursor);
        while let Some(&child) = self.child_of.get(&cursor) {
            chain.push(child);
            cursor = child;
        }
        chain
    }
}

/// Compares two causal frontiers by backward BFS over the DAG.
///
/// `parents_of` maps a stamp to its recorded parent frontier (`None` for
/// stamps whose parent sets are unknown — e.g. pruned history — which the
/// search treats as roots). `budget` bounds the number of parent-set lookups
/// across both sides; a comparison that would exceed it returns
/// [`CausalRelation::BudgetExceeded`] instead of stalling.
pub fn compare_clocks(
    subject: &AntichainClock,
    other: &AntichainClock,
    mut parents_of: impl FnMut(StampId) -> Option<AntichainClock>,
    budget: usize,
) -> CausalRelation {
    if subject == other {
        return CausalRelation::Equal;
    }
    // The empty clock is the root: everything descends from it.
    if other.is_empty() {
        return CausalRelation::StrictDescends { chain: Vec::new() };
    }
    if subject.is_empty() {
        return CausalRelation::StrictAscends;
    }

    let mut down = Reach::from_clock(subject); // searches subject's ancestry
    let mut up = Reach::from_clock(other); // searches other's ancestry
    let mut spent = 0usize;

    loop {
        // Verdicts are checked before each expansion so a verdict reachable
        // without lookups (e.g. a frontier member of one side sitting inside
        // the other's start set) costs no budget.
        let other_covered = other.members().iter().all(|m| down.covers(*m));
        let subject_covered = subject.members().iter().all(|m| up.covers(*m));
        match (other_covered, subject_covered) {
            (true, true) => {
                // Each frontier sits inside the other's ancestry — only
                // possible when they are equal, handled above; divergence
                // with mutual coverage means the "extra" members of each
                // side are ancestors of the other, i.e. the deeper side
                // covers both. Resolve by membership: if every subject
                // member is on `other`'s frontier the subject is behind.
                return if subject.members().iter().all(|m| other.covers(*m)) {
                    CausalRelation::StrictAscends
                } else {
                    descends(subject, other, &down)
                };
            }
            (true, false) => return descends(subject, other, &down),
            (false, true) => return CausalRelation::StrictAscends,
            (false, false) => {}
        }

        let down_live = !down.frontier.is_empty();
        let up_live = !up.frontier.is_empty();
        if !down_live && !up_live {
            // Both ancestries fully explored without either frontier
            // covering the other: concurrent. The meet is the deepest
            // common ancestry per publisher — each side's ancestry on a
            // publisher is the chain up to its deepest reached stamp, so
            // the shared portion ends at the shallower of the two maxima
            // (empty → no shared history).
            let meet: AntichainClock = down
                .deepest
                .iter()
                .filter_map(|(&publisher, &seq)| {
                    let other_seq = *up.deepest.get(&publisher)?;
                    Some(StampId::new(publisher, seq.min(other_seq)))
                })
                .collect::<Vec<_>>()
                .into_iter()
                .collect();
            return if meet.is_empty() {
                CausalRelation::Disjoint
            } else {
                CausalRelation::DivergedSince { meet }
            };
        }
        if spent >= budget {
            return CausalRelation::BudgetExceeded { budget };
        }
        // Alternate sides so a lopsided history cannot starve the other
        // search.
        if down_live && (spent % 2 == 0 || !up_live) {
            down.step(&mut parents_of);
        } else {
            up.step(&mut parents_of);
        }
        spent += 1;
    }
}

/// Builds the `StrictDescends` verdict with a forward chain from `other`'s
/// frontier into `subject`'s, recovered from the backward search's child
/// pointers.
fn descends(subject: &AntichainClock, other: &AntichainClock, down: &Reach) -> CausalRelation {
    // Start the chain at the deepest `other` member the search reached (any
    // member works; the deepest gives the shortest witness).
    let from = other
        .members()
        .iter()
        .copied()
        .max_by_key(|s| s.seq)
        .expect("other is non-empty in descends");
    let mut chain = down.forward_chain(from);
    // Drop the starting stamp if it is already on the subject frontier (the
    // chain then witnesses a zero-length descent through shared members).
    if chain.len() == 1 && subject.covers(from) {
        chain.clear();
    }
    CausalRelation::StrictDescends { chain }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::CausalStamp;

    fn p(i: u32) -> ParticipantId {
        ParticipantId(i)
    }

    fn s(i: u32, seq: u64) -> StampId {
        StampId::new(p(i), seq)
    }

    /// A test DAG: stamp → parent frontier.
    #[derive(Default)]
    struct Dag {
        parents: BTreeMap<StampId, AntichainClock>,
    }

    impl Dag {
        fn add(&mut self, stamp: StampId, parents: &[StampId]) {
            self.parents.insert(stamp, AntichainClock::from_stamps(parents.iter().copied()));
        }

        fn lookup(&self) -> impl FnMut(StampId) -> Option<AntichainClock> + '_ {
            |stamp| self.parents.get(&stamp).cloned()
        }
    }

    #[test]
    fn clock_keeps_one_stamp_per_publisher() {
        let mut clock = AntichainClock::new();
        assert!(clock.insert(s(2, 1)));
        assert!(clock.insert(s(1, 4)));
        assert!(!clock.insert(s(1, 3)), "shallower stamp is absorbed");
        assert!(clock.insert(s(1, 5)));
        assert_eq!(clock.members(), &[s(1, 5), s(2, 1)]);
        assert_eq!(clock.seq_of(p(1)), Some(5));
        assert_eq!(clock.seq_of(p(9)), None);
        assert!(clock.covers(s(1, 5)));
        assert!(clock.covers(s(1, 2)));
        assert!(!clock.covers(s(1, 6)));
        assert!(!clock.covers(s(9, 1)));
        assert_eq!(clock.to_string(), "{p1:5,p2:1}");
    }

    #[test]
    fn clock_equality_ignores_insertion_order() {
        let a = AntichainClock::from_stamps([s(1, 1), s(2, 2), s(3, 3)]);
        let b = AntichainClock::from_stamps([s(3, 3), s(1, 1), s(2, 2)]);
        assert_eq!(a, b);
        let mut merged = AntichainClock::from_stamps([s(1, 1)]);
        assert!(merged.merge(&a));
        assert!(!merged.merge(&a), "idempotent");
        assert_eq!(merged, a);
    }

    #[test]
    fn tie_break_is_total_and_deterministic() {
        use std::cmp::Ordering;
        // Deeper chain first.
        assert_eq!(s(5, 9).tie_break(s(1, 3)), Ordering::Less);
        // Equal depth: smaller publisher first.
        assert_eq!(s(1, 4).tie_break(s(2, 4)), Ordering::Less);
        assert_eq!(s(2, 4).tie_break(s(1, 4)), Ordering::Greater);
        assert_eq!(s(2, 4).tie_break(s(2, 4)), Ordering::Equal);
    }

    /// A linear chain by one publisher: p1:1 ← p1:2 ← p1:3.
    fn linear_dag() -> Dag {
        let mut dag = Dag::default();
        dag.add(s(1, 1), &[]);
        dag.add(s(1, 2), &[s(1, 1)]);
        dag.add(s(1, 3), &[s(1, 2)]);
        dag
    }

    #[test]
    fn equal_and_empty_clocks() {
        let dag = linear_dag();
        let a = AntichainClock::from_stamps([s(1, 2)]);
        assert_eq!(compare_clocks(&a, &a.clone(), dag.lookup(), 100), CausalRelation::Equal);
        let empty = AntichainClock::new();
        assert_eq!(
            compare_clocks(&empty, &empty.clone(), dag.lookup(), 100),
            CausalRelation::Equal
        );
        assert!(matches!(
            compare_clocks(&a, &empty, dag.lookup(), 100),
            CausalRelation::StrictDescends { .. }
        ));
        assert_eq!(compare_clocks(&empty, &a, dag.lookup(), 100), CausalRelation::StrictAscends);
    }

    #[test]
    fn linear_descent_reports_a_forward_chain() {
        let dag = linear_dag();
        let newer = AntichainClock::from_stamps([s(1, 3)]);
        let older = AntichainClock::from_stamps([s(1, 1)]);
        match compare_clocks(&newer, &older, dag.lookup(), 100) {
            CausalRelation::StrictDescends { chain } => {
                assert_eq!(chain, vec![s(1, 1), s(1, 2), s(1, 3)], "oldest → newest");
            }
            other => panic!("expected StrictDescends, got {other:?}"),
        }
        assert_eq!(
            compare_clocks(&older, &newer, dag.lookup(), 100),
            CausalRelation::StrictAscends
        );
    }

    /// Two publishers diverging from a shared prefix, then merging:
    ///
    /// ```text
    /// p1:1 ← p1:2 ← p2:1   (p2:1's parents = {p1:2})
    ///          ↖ p1:3      (concurrent with p2:1)
    /// p2:2 parents {p1:3, p2:1}  (the merge)
    /// ```
    fn diamond_dag() -> Dag {
        let mut dag = Dag::default();
        dag.add(s(1, 1), &[]);
        dag.add(s(1, 2), &[s(1, 1)]);
        dag.add(s(2, 1), &[s(1, 2)]);
        dag.add(s(1, 3), &[s(1, 2)]);
        dag.add(s(2, 2), &[s(1, 3), s(2, 1)]);
        dag
    }

    #[test]
    fn concurrent_branches_diverge_since_their_meet() {
        let dag = diamond_dag();
        let left = AntichainClock::from_stamps([s(1, 3)]);
        let right = AntichainClock::from_stamps([s(2, 1)]);
        match compare_clocks(&left, &right, dag.lookup(), 100) {
            CausalRelation::DivergedSince { meet } => {
                assert_eq!(meet, AntichainClock::from_stamps([s(1, 2)]));
            }
            other => panic!("expected DivergedSince, got {other:?}"),
        }
    }

    #[test]
    fn a_merge_descends_from_both_branches() {
        let dag = diamond_dag();
        let merged = AntichainClock::from_stamps([s(2, 2)]);
        for branch in [[s(1, 3)], [s(2, 1)]] {
            let branch = AntichainClock::from_stamps(branch);
            assert!(
                matches!(
                    compare_clocks(&merged, &branch, dag.lookup(), 100),
                    CausalRelation::StrictDescends { .. }
                ),
                "merge must descend from {branch}"
            );
        }
        // Cross-publisher descent through the DAG: {p2:2} covers p1's chain
        // even though the clock has no p1 entry.
        let deep = AntichainClock::from_stamps([s(1, 1)]);
        assert!(matches!(
            compare_clocks(&merged, &deep, dag.lookup(), 100),
            CausalRelation::StrictDescends { .. }
        ));
    }

    #[test]
    fn unrelated_publishers_are_disjoint() {
        let mut dag = Dag::default();
        dag.add(s(1, 1), &[]);
        dag.add(s(2, 1), &[]);
        let a = AntichainClock::from_stamps([s(1, 1)]);
        let b = AntichainClock::from_stamps([s(2, 1)]);
        assert_eq!(compare_clocks(&a, &b, dag.lookup(), 100), CausalRelation::Disjoint);
    }

    #[test]
    fn same_publisher_chains_resolve_without_budget() {
        // Per-publisher chains are total by construction, so a deep
        // same-publisher comparison resolves through the chain invariant
        // without walking (or even recording) the intermediate stamps — the
        // verdict survives pruned history and a budget of 1.
        let mut dag = Dag::default();
        dag.add(s(1, 50), &[s(1, 49)]);
        let newest = AntichainClock::from_stamps([s(1, 50)]);
        let oldest = AntichainClock::from_stamps([s(1, 1)]);
        match compare_clocks(&newest, &oldest, dag.lookup(), 1) {
            CausalRelation::StrictDescends { chain } => {
                assert_eq!(chain.len(), 50, "synthesised p1:1..=p1:50 witness");
                assert_eq!(chain.first(), Some(&s(1, 1)));
                assert_eq!(chain.last(), Some(&s(1, 50)));
            }
            other => panic!("expected StrictDescends, got {other:?}"),
        }
        assert_eq!(
            compare_clocks(&oldest, &newest, dag.lookup(), 1),
            CausalRelation::StrictAscends
        );
    }

    #[test]
    fn budget_bounds_the_traversal() {
        // Cross-publisher history has to be walked: alternate two publishers
        // so neither chain covers the other frontier, and hang a third
        // publisher's stamp off the root.
        let mut dag = Dag::default();
        dag.add(s(1, 1), &[]);
        dag.add(s(3, 1), &[s(1, 1)]);
        dag.add(s(2, 1), &[s(1, 1)]);
        for seq in 2..=25 {
            dag.add(s(1, seq), &[s(2, seq - 1)]);
            dag.add(s(2, seq), &[s(1, seq)]);
        }
        let newest = AntichainClock::from_stamps([s(2, 25)]);
        let aside = AntichainClock::from_stamps([s(3, 1)]);
        assert_eq!(
            compare_clocks(&newest, &aside, dag.lookup(), 5),
            CausalRelation::BudgetExceeded { budget: 5 }
        );
        // A sufficient budget reaches the verdict: concurrent since the root.
        match compare_clocks(&newest, &aside, dag.lookup(), 200) {
            CausalRelation::DivergedSince { meet } => {
                assert_eq!(meet, AntichainClock::from_stamps([s(1, 1)]));
            }
            other => panic!("expected DivergedSince, got {other:?}"),
        }
    }

    #[test]
    fn frontier_vs_superset_frontier_ascends() {
        let dag = diamond_dag();
        let part = AntichainClock::from_stamps([s(1, 3)]);
        let whole = AntichainClock::from_stamps([s(1, 3), s(2, 1)]);
        assert_eq!(compare_clocks(&part, &whole, dag.lookup(), 100), CausalRelation::StrictAscends);
        assert!(matches!(
            compare_clocks(&whole, &part, dag.lookup(), 100),
            CausalRelation::StrictDescends { .. }
        ));
    }

    #[test]
    fn causal_stamp_display_and_id() {
        let stamp = CausalStamp::new(p(2), 5, AntichainClock::from_stamps([s(1, 3), s(3, 7)]));
        assert_eq!(stamp.id(), s(2, 5));
        assert_eq!(stamp.to_string(), "p2#5<-{p1:3,p3:7}");
    }
}
