//! The client-centric `ReconcileUpdates` algorithm (Figures 4 and 5).
//!
//! The engine takes the candidate transactions retrieved from the update
//! store (fully trusted, not yet decided, each with its transaction extension
//! and priority), the reconciling participant's instance and soft state, and
//! the participant's own freshly published updates (the "delta for recno").
//! It decides every candidate (accept / reject / defer), applies the accepted
//! ones, and rebuilds the soft state (dirty values and conflict groups) from
//! the deferred ones.
//!
//! A run names a candidate by its position in the candidate list, as the
//! paper's figures do: the verdicts are one vector in that order, and
//! `FindConflicts` hands `DoGroup` the sorted `(i, j, keys)` pairs that
//! [`direct_conflicts`] returns, which the network-centric mode computes at
//! the store instead. The own-delta check of `CheckState` asks the question
//! `FindConflicts` asks, of the participant's own net delta.

use crate::extension::{direct_conflicts, CandidateTransaction, FlatExtension, TouchedPairs};
use crate::softstate::SoftState;
use orchestra_model::{
    flatten_keyed, ConflictKey, Priority, ReconciliationId, Schema, TransactionId, Update,
};
use orchestra_obs::Span;
use orchestra_storage::Database;
use rustc_hash::FxHashSet;
use std::sync::Arc;

/// The decision made about one candidate transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransactionDecision {
    /// Accept and apply the transaction (and its extension).
    Accept,
    /// Reject the transaction; future transactions depending on it will also
    /// be rejected.
    Reject,
    /// Defer the transaction until the user resolves its conflict.
    Defer,
}

/// Input to one reconciliation run.
#[derive(Debug, Clone, Default)]
pub struct ReconcileInput {
    /// The reconciliation number.
    pub recno: ReconciliationId,
    /// The newly relevant, fully trusted, undecided transactions, in
    /// publication order, each with its transaction extension and priority.
    pub candidates: Vec<CandidateTransaction>,
    /// The participant's own updates published together with this
    /// reconciliation (the delta for `recno`). Trusted transactions that
    /// conflict with these are rejected — the participant always prefers its
    /// own version.
    pub own_updates: Vec<Update>,
    /// Transactions this participant has rejected in previous
    /// reconciliations; any candidate whose extension contains one of these
    /// is rejected too. Shared (`Arc`) so the caller's incrementally
    /// maintained record is lent to the engine instead of being copied per
    /// reconciliation.
    pub previously_rejected: Arc<FxHashSet<TransactionId>>,
    /// Transactions this participant has accepted so far (shared, like
    /// `previously_rejected`). Extensions are defined over *undecided*
    /// antecedents (Definition 3): candidates arrive without accepted
    /// members, and the engine prunes them from the deferred candidates it
    /// carries across reconciliations, whose chains would otherwise go stale
    /// as their antecedents get accepted.
    pub previously_accepted: Arc<FxHashSet<TransactionId>>,
    /// Pairwise direct conflicts already computed elsewhere (the
    /// network-centric mode of Section 5, where conflict detection is
    /// distributed across the peers owning the conflicting keys), as
    /// [`direct_conflicts`] returns them: positions into `candidates`. When
    /// present, the engine skips its own `FindConflicts` step and uses these;
    /// when absent, conflicts are detected locally (client-centric mode).
    pub precomputed_conflicts: Option<Vec<(usize, usize, Vec<ConflictKey>)>>,
}

/// The result of one reconciliation run.
#[derive(Debug, Clone, Default)]
pub struct ReconcileOutcome {
    /// The reconciliation number.
    pub recno: ReconciliationId,
    /// Root transactions that were accepted.
    pub accepted_roots: Vec<TransactionId>,
    /// Every transaction (roots and extension members) applied by this
    /// reconciliation — the set the update store records as accepted.
    pub accepted_members: Vec<TransactionId>,
    /// Root transactions that were rejected.
    pub rejected: Vec<TransactionId>,
    /// Root transactions that were deferred.
    pub deferred: Vec<TransactionId>,
    /// How many net updates were applied to the local instance (updates
    /// whose effect was already present are not counted).
    pub applied: usize,
}

/// The client-centric reconciliation engine. It holds nothing but the
/// schema: a candidate carries its own flattening (see
/// [`CandidateTransaction::flattening`]), and a deferred candidate keeps it
/// in the soft state, so an unchanged chain is flattened once however often
/// it is re-presented.
#[derive(Debug, Clone)]
pub struct ReconcileEngine {
    schema: Schema,
}

impl ReconcileEngine {
    /// Creates an engine for the given schema.
    pub fn new(schema: Schema) -> Self {
        ReconcileEngine { schema }
    }

    /// The schema the engine reconciles over.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Runs `ReconcileUpdates` (Figure 4): decides every candidate, applies
    /// the accepted ones to `instance`, and rebuilds `soft` from the deferred
    /// ones (previously deferred transactions remain deferred and keep their
    /// dirty marks).
    ///
    /// Each phase of Figure 5 runs in a child of `span`, the caller's
    /// `reconcile` span: `check_state` (flattening included),
    /// `find_conflicts`, `do_group`, `apply` and `update_soft_state`.
    pub fn reconcile(
        &self,
        input: ReconcileInput,
        instance: &mut Database,
        soft: &mut SoftState,
        span: &Span,
    ) -> ReconcileOutcome {
        let schema = &self.schema;
        let candidates = input.candidates;
        let phase = span.child("check_state", &[("candidates", candidates.len() as u64)]);
        // Every extension arrives on Definition 3, with no member the
        // participant has accepted: the store excludes the accepted set when
        // it builds extensions, and a resolution re-presents deferred
        // candidates that `UpdateSoftState` pruned in every run since they
        // were deferred (a run that keeps a deferred set rebuilds it).
        debug_assert!(
            candidates.iter().all(|cand| {
                let accepted = |id: &TransactionId| input.previously_accepted.contains(id);
                cand.members.iter().all(|(id, _)| *id == cand.id || !accepted(id))
            }),
            "a candidate arrives without accepted members"
        );
        debug_assert!(
            {
                let mut ids: Vec<TransactionId> = candidates.iter().map(|c| c.id).collect();
                ids.sort_unstable();
                ids.windows(2).all(|pair| pair[0] != pair[1])
            },
            "a candidate is presented once"
        );
        // The participant's own net delta, its touches sorted once per run;
        // every candidate probes them with its own keys.
        let own_delta = flatten_keyed(schema, [&Arc::new(input.own_updates)]);
        let own = TouchedPairs::new([&own_delta]);

        // Lines 5-8: per-candidate flattened extensions and CheckState. A
        // candidate from the store arrives with the flattening it derived
        // once for every participant: the transaction's own for one
        // transaction, the chain memo's for a chain; a candidate re-presented
        // from the soft state with an unchanged chain arrives with the one it
        // was deferred with; any other is flattened here. Every later step
        // reads that one flattening and its keys, and the candidates deferred
        // below carry it into the soft state.
        let flats: Vec<Arc<FlatExtension>> =
            candidates.iter().map(|cand| Arc::clone(cand.flattening(schema))).collect();
        let mut decisions: Vec<TransactionDecision> = candidates
            .iter()
            .zip(&flats)
            .map(|(cand, flat)| {
                self.check_state(cand, flat, instance, soft, &own, &input.previously_rejected)
            })
            .collect();
        drop(phase);

        // Line 9: FindConflicts — pairwise direct conflicts between
        // candidates, skipping pairs where one subsumes the other. In
        // network-centric mode the conflicts arrive precomputed from the
        // store and the local step is skipped.
        let phase = span.child("find_conflicts", &[]);
        let conflicts = input
            .precomputed_conflicts
            .unwrap_or_else(|| direct_conflicts(&candidates, &flats, schema, &phase));
        drop(phase);

        // Lines 10-12: DoGroup per priority, in decreasing order. It only
        // ever revises the decisions of conflicting candidates.
        let phase = span.child("do_group", &[("pairs", conflicts.len() as u64)]);
        if !conflicts.is_empty() {
            let mut priorities: Vec<Priority> = candidates.iter().map(|c| c.priority).collect();
            priorities.sort_unstable();
            priorities.dedup();
            for prio in priorities.into_iter().rev() {
                Self::do_group(prio, &candidates, &conflicts, &mut decisions);
            }
        }
        drop(phase);

        // Lines 14-19: apply accepted candidates. An extension none of whose
        // members has been applied yet is applied as flattened above; one
        // that shares an antecedent with an already applied candidate is
        // re-flattened without the used members, so shared antecedents are
        // applied exactly once.
        let phase = span.child("apply", &[]);
        let mut used: FxHashSet<TransactionId> = FxHashSet::default();
        let mut outcome = ReconcileOutcome { recno: input.recno, ..Default::default() };
        for ((cand, flat), decision) in candidates.iter().zip(&flats).zip(&mut decisions) {
            if *decision != TransactionDecision::Accept {
                continue;
            }
            let applied = if cand.members.iter().any(|(id, _)| used.contains(id)) {
                instance.apply_net(&cand.flattened_excluding(schema, |id| used.contains(id)))
            } else {
                instance.apply_net(flat)
            };
            match applied {
                Ok(applied) => {
                    for (id, _) in &cand.members {
                        if used.insert(*id) {
                            outcome.accepted_members.push(*id);
                        }
                    }
                    outcome.accepted_roots.push(cand.id);
                    outcome.applied += applied;
                }
                Err(_) => {
                    // The accepted set should always apply cleanly; if an
                    // application fails despite the checks (e.g. an exotic
                    // constraint interaction), the instance is as it was
                    // before the attempt and the transaction is rejected.
                    *decision = TransactionDecision::Reject;
                }
            }
        }

        // Collect rejected and deferred roots. A root whose decision was
        // Defer can nonetheless have been *accepted as a member* of another
        // accepted candidate's extension in this very run — the store now
        // durably records it accepted, so it is no longer deferred (and must
        // not linger in the soft state where a user could "resolve" a
        // transaction the store has already committed to).
        for (cand, decision) in candidates.iter().zip(&decisions) {
            match decision {
                TransactionDecision::Reject => outcome.rejected.push(cand.id),
                TransactionDecision::Defer if !used.contains(&cand.id) => {
                    outcome.deferred.push(cand.id)
                }
                TransactionDecision::Defer | TransactionDecision::Accept => {}
            }
        }
        drop(phase);

        // Line 21: UpdateSoftState. The common case first: nothing was
        // deferred before this run and nothing is now, so the soft state is
        // already what a rebuild would produce.
        let phase = span.child("update_soft_state", &[("deferred", outcome.deferred.len() as u64)]);
        if soft.deferred().is_empty() && outcome.deferred.is_empty() {
            return outcome;
        }
        // Otherwise previously deferred transactions remain deferred
        // alongside the newly deferred ones, all moved into the rebuild. No
        // candidate is among the former, so no rejected root is either.
        debug_assert!(
            candidates.iter().all(|cand| !soft.is_deferred(cand.id)),
            "regular sessions never present a deferred candidate again, and a resolution \
             starts from an empty soft state"
        );
        let mut all_deferred = soft.take_deferred();
        let deferred = candidates.into_iter().zip(decisions);
        all_deferred.extend(
            deferred.filter_map(|(cand, d)| (d == TransactionDecision::Defer).then_some(cand)),
        );
        // A transaction accepted as a member of an accepted extension drops
        // out of the deferred set — the store's durable record is
        // authoritative. The chains left are pruned against everything
        // accepted up to and *including* this run (probing the two sets in
        // place — the accepted history is never copied), so the soft state
        // never holds a member whose effects are already in the instance
        // (and crash recovery, which rebuilds deferred candidates from the
        // store's current accepted set, reproduces the same chains). A chain
        // that loses a member there is flattened again by the rebuild; every
        // other one keeps its flattening.
        all_deferred.retain(|cand| !used.contains(&cand.id));
        for cand in &mut all_deferred {
            cand.prune_accepted_members(|id| {
                input.previously_accepted.contains(id) || used.contains(id)
            });
        }
        soft.rebuild(all_deferred, schema, &phase);
        outcome
    }

    /// `CheckState` (Figure 5): decide a candidate against the dirty-value
    /// set, previous decisions, the materialised instance, and the
    /// participant's own delta for this reconciliation, whose touches `own`
    /// holds.
    fn check_state(
        &self,
        cand: &CandidateTransaction,
        flat: &FlatExtension,
        instance: &Database,
        soft: &SoftState,
        own: &TouchedPairs<'_>,
        previously_rejected: &FxHashSet<TransactionId>,
    ) -> TransactionDecision {
        // 1-2: touches a dirty value -> defer.
        if flat.touched().any(|(relation, key, _)| soft.is_dirty(relation, key)) {
            return TransactionDecision::Defer;
        }
        // 3-4: extension contains an already rejected transaction -> reject.
        if cand.members.iter().any(|(id, _)| previously_rejected.contains(id)) {
            return TransactionDecision::Reject;
        }
        // 5-6: incompatible with the instance -> reject.
        for (u, keys) in flat.iter() {
            if !instance.is_compatible_keyed(u, keys) || instance.check_constraints(u).is_err() {
                return TransactionDecision::Reject;
            }
        }
        // 7-8: conflicts with the participant's own delta -> reject.
        if own.conflict_with(flat) {
            return TransactionDecision::Reject;
        }
        TransactionDecision::Accept
    }

    /// `DoGroup` (Figure 5) for the candidates of priority `prio`, over the
    /// conflicting pairs of positions: reject a candidate that conflicts
    /// with a higher-priority accepted one, else defer one that conflicts
    /// with a higher-priority deferred one, then defer both sides of every
    /// conflict within the group that neither side lost.
    fn do_group(
        prio: Priority,
        candidates: &[CandidateTransaction],
        conflicts: &[(usize, usize, Vec<ConflictKey>)],
        decisions: &mut [TransactionDecision],
    ) {
        use TransactionDecision::{Accept, Defer, Reject};
        let of = |at: usize| candidates[at].priority;
        // Conflicts with strictly higher-priority candidates, whose verdicts
        // this group cannot change. Reject is sticky: one accepted
        // higher-priority conflict rejects the candidate, however many
        // deferred ones it also has, so the order of the pairs is immaterial.
        for &(i, j, _) in conflicts {
            let (low, high) = match (of(i), of(j)) {
                (a, b) if a == prio && b > prio => (i, j),
                (a, b) if b == prio && a > prio => (j, i),
                _ => continue,
            };
            match decisions[high] {
                Accept => decisions[low] = Reject,
                Defer if decisions[low] != Reject => decisions[low] = Defer,
                Defer | Reject => {}
            }
        }
        // Conflicts within the group: defer both sides.
        for &(i, j, _) in conflicts {
            if of(i) == prio && of(j) == prio && decisions[i] != Reject && decisions[j] != Reject {
                (decisions[i], decisions[j]) = (Defer, Defer);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ResolutionChoice;
    use orchestra_model::schema::bioinformatics_schema;
    use orchestra_model::{ParticipantId, Transaction, Tuple};

    fn p(i: u32) -> ParticipantId {
        ParticipantId(i)
    }

    fn func(org: &str, prot: &str, f: &str) -> Tuple {
        Tuple::of_text(&[org, prot, f])
    }

    fn txn(i: u32, j: u64, updates: Vec<Update>) -> Transaction {
        Transaction::from_parts(p(i), j, updates).unwrap()
    }

    fn cand(txn: &Transaction, prio: u32) -> CandidateTransaction {
        CandidateTransaction::new(txn, Priority(prio), vec![])
    }

    fn setup() -> (ReconcileEngine, Database, SoftState) {
        let schema = bioinformatics_schema();
        (ReconcileEngine::new(schema.clone()), Database::new(schema), SoftState::new())
    }

    #[test]
    fn non_conflicting_candidates_are_accepted_and_applied() {
        let (engine, mut db, mut soft) = setup();
        let x1 =
            txn(2, 0, vec![Update::insert("Function", func("mouse", "prot2", "immune"), p(2))]);
        let x2 = txn(3, 0, vec![Update::insert("Function", func("rat", "prot1", "immune"), p(3))]);
        let input = ReconcileInput {
            recno: ReconciliationId(1),
            candidates: vec![cand(&x1, 1), cand(&x2, 1)],
            ..Default::default()
        };
        let out = engine.reconcile(input, &mut db, &mut soft, &Span::default());
        assert_eq!(out.accepted_roots.len(), 2);
        assert!(out.rejected.is_empty());
        assert!(out.deferred.is_empty());
        assert_eq!(db.total_tuples(), 2);
        assert_eq!(out.applied, 2);
        assert_eq!(out.accepted_roots, vec![x1.id(), x2.id()]);
    }

    #[test]
    fn equal_priority_conflicts_are_deferred_with_conflict_groups() {
        let (engine, mut db, mut soft) = setup();
        let x1 =
            txn(2, 0, vec![Update::insert("Function", func("rat", "prot1", "cell-resp"), p(2))]);
        let x2 = txn(3, 0, vec![Update::insert("Function", func("rat", "prot1", "immune"), p(3))]);
        let input = ReconcileInput {
            recno: ReconciliationId(1),
            candidates: vec![cand(&x1, 1), cand(&x2, 1)],
            ..Default::default()
        };
        let out = engine.reconcile(input, &mut db, &mut soft, &Span::default());
        assert!(out.accepted_roots.is_empty());
        assert_eq!(out.deferred.len(), 2);
        assert!(db.is_empty());
        assert_eq!(soft.conflict_groups().len(), 1);
        assert_eq!(soft.conflict_groups()[0].options.len(), 2);
        assert!(soft.is_deferred(x1.id()));
        assert!(soft.is_deferred(x2.id()));
    }

    #[test]
    fn higher_priority_wins_and_lower_is_rejected() {
        let (engine, mut db, mut soft) = setup();
        let high =
            txn(2, 0, vec![Update::insert("Function", func("rat", "prot1", "immune"), p(2))]);
        let low =
            txn(3, 0, vec![Update::insert("Function", func("rat", "prot1", "cell-resp"), p(3))]);
        let input = ReconcileInput {
            recno: ReconciliationId(1),
            candidates: vec![cand(&low, 1), cand(&high, 5)],
            ..Default::default()
        };
        let out = engine.reconcile(input, &mut db, &mut soft, &Span::default());
        assert_eq!(out.accepted_roots, vec![high.id()]);
        assert_eq!(out.rejected, vec![low.id()]);
        assert!(out.deferred.is_empty());
        assert!(db.contains_tuple_exact("Function", &func("rat", "prot1", "immune")));
    }

    #[test]
    fn conflict_with_own_updates_is_rejected() {
        let (engine, mut db, mut soft) = setup();
        // The participant already applied its own insert locally.
        db.apply_update(&Update::insert("Function", func("rat", "prot1", "cell-resp"), p(1)))
            .unwrap();
        let remote =
            txn(3, 0, vec![Update::insert("Function", func("rat", "prot1", "immune"), p(3))]);
        let input = ReconcileInput {
            recno: ReconciliationId(1),
            candidates: vec![cand(&remote, 7)],
            own_updates: vec![Update::insert("Function", func("rat", "prot1", "cell-resp"), p(1))],
            ..Default::default()
        };
        let out = engine.reconcile(input, &mut db, &mut soft, &Span::default());
        assert_eq!(out.rejected, vec![remote.id()]);
        assert!(db.contains_tuple_exact("Function", &func("rat", "prot1", "cell-resp")));
    }

    #[test]
    fn incompatible_with_instance_is_rejected() {
        let (engine, mut db, mut soft) = setup();
        db.apply_update(&Update::insert("Function", func("rat", "prot1", "immune"), p(1))).unwrap();
        // A remote modify of a tuple value this participant never had.
        let remote = txn(
            3,
            0,
            vec![Update::modify(
                "Function",
                func("rat", "prot1", "other"),
                func("rat", "prot1", "cell-resp"),
                p(3),
            )],
        );
        let input = ReconcileInput {
            recno: ReconciliationId(1),
            candidates: vec![cand(&remote, 1)],
            ..Default::default()
        };
        let out = engine.reconcile(input, &mut db, &mut soft, &Span::default());
        assert_eq!(out.rejected, vec![remote.id()]);
    }

    #[test]
    fn extension_containing_rejected_transaction_is_rejected() {
        let (engine, mut db, mut soft) = setup();
        let x0 = txn(2, 0, vec![Update::insert("Function", func("rat", "prot1", "v1"), p(2))]);
        let x1 = txn(
            2,
            1,
            vec![Update::modify(
                "Function",
                func("rat", "prot1", "v1"),
                func("rat", "prot1", "v2"),
                p(2),
            )],
        );
        let candidate = CandidateTransaction::new(&x1, Priority(1), vec![x0.clone()]);
        let mut rejected = FxHashSet::default();
        rejected.insert(x0.id());
        let input = ReconcileInput {
            recno: ReconciliationId(2),
            candidates: vec![candidate],
            previously_rejected: Arc::new(rejected),
            ..Default::default()
        };
        let out = engine.reconcile(input, &mut db, &mut soft, &Span::default());
        assert_eq!(out.rejected, vec![x1.id()]);
        assert!(db.is_empty());
    }

    #[test]
    fn transactions_touching_dirty_values_are_deferred() {
        let (engine, mut db, mut soft) = setup();
        // First reconciliation: two equal-priority conflicting inserts defer
        // and dirty the key.
        let x1 = txn(2, 0, vec![Update::insert("Function", func("rat", "prot1", "a"), p(2))]);
        let x2 = txn(3, 0, vec![Update::insert("Function", func("rat", "prot1", "b"), p(3))]);
        engine.reconcile(
            ReconcileInput {
                recno: ReconciliationId(1),
                candidates: vec![cand(&x1, 1), cand(&x2, 1)],
                ..Default::default()
            },
            &mut db,
            &mut soft,
            &Span::default(),
        );
        assert!(soft.is_dirty("Function", &orchestra_model::KeyValue::of_text(&["rat", "prot1"])));

        // Second reconciliation: a new (even higher-priority) transaction on
        // the same key must be deferred, so the earlier deferral stays
        // resolvable.
        let x3 = txn(4, 0, vec![Update::insert("Function", func("rat", "prot1", "c"), p(4))]);
        let out = engine.reconcile(
            ReconcileInput {
                recno: ReconciliationId(2),
                candidates: vec![cand(&x3, 9)],
                ..Default::default()
            },
            &mut db,
            &mut soft,
            &Span::default(),
        );
        assert_eq!(out.deferred, vec![x3.id()]);
        assert!(db.is_empty());
        // The previously deferred transactions are still deferred.
        assert!(soft.is_deferred(x1.id()));
        assert!(soft.is_deferred(x2.id()));
        assert!(soft.is_deferred(x3.id()));
    }

    #[test]
    fn shared_antecedents_are_applied_once() {
        let (engine, mut db, mut soft) = setup();
        let base = txn(2, 0, vec![Update::insert("Function", func("rat", "prot1", "base"), p(2))]);
        let left = txn(2, 1, vec![Update::insert("Function", func("mouse", "prot2", "x"), p(2))]);
        // Two candidates share `base` as an antecedent (one is base itself).
        let c_base = CandidateTransaction::new(&base, Priority(1), vec![]);
        let c_left = CandidateTransaction::new(&left, Priority(1), vec![base.clone()]);
        let out = engine.reconcile(
            ReconcileInput {
                recno: ReconciliationId(1),
                candidates: vec![c_base, c_left],
                ..Default::default()
            },
            &mut db,
            &mut soft,
            &Span::default(),
        );
        assert_eq!(out.accepted_roots.len(), 2);
        // base appears once in accepted_members even though it is in both
        // extensions.
        assert_eq!(out.accepted_members.iter().filter(|id| **id == base.id()).count(), 1);
        assert_eq!(db.total_tuples(), 2);
    }

    #[test]
    fn lower_priority_conflict_with_deferred_higher_priority_is_deferred() {
        let (engine, mut db, mut soft) = setup();
        // Two high-priority transactions conflict with each other (defer);
        // a lower-priority transaction conflicting with them must defer, not
        // be accepted.
        let h1 = txn(2, 0, vec![Update::insert("Function", func("rat", "prot1", "a"), p(2))]);
        let h2 = txn(3, 0, vec![Update::insert("Function", func("rat", "prot1", "b"), p(3))]);
        let low = txn(4, 0, vec![Update::insert("Function", func("rat", "prot1", "c"), p(4))]);
        let out = engine.reconcile(
            ReconcileInput {
                recno: ReconciliationId(1),
                candidates: vec![cand(&h1, 5), cand(&h2, 5), cand(&low, 1)],
                ..Default::default()
            },
            &mut db,
            &mut soft,
            &Span::default(),
        );
        assert!(out.accepted_roots.is_empty());
        assert_eq!(out.deferred.len(), 3);
        assert!(db.is_empty());
    }

    #[test]
    fn lower_priority_conflict_with_accepted_higher_priority_is_rejected() {
        let (engine, mut db, mut soft) = setup();
        let high = txn(2, 0, vec![Update::insert("Function", func("rat", "prot1", "a"), p(2))]);
        let low1 = txn(3, 0, vec![Update::insert("Function", func("rat", "prot1", "b"), p(3))]);
        let low2 = txn(4, 0, vec![Update::insert("Function", func("rat", "prot1", "c"), p(4))]);
        let out = engine.reconcile(
            ReconcileInput {
                recno: ReconciliationId(1),
                candidates: vec![cand(&high, 5), cand(&low1, 1), cand(&low2, 1)],
                ..Default::default()
            },
            &mut db,
            &mut soft,
            &Span::default(),
        );
        // The high-priority transaction is applied; both low-priority
        // transactions conflict with it and are rejected, not deferred.
        assert_eq!(out.accepted_roots, vec![high.id()]);
        assert_eq!(out.rejected.len(), 2);
        assert!(out.deferred.is_empty());
        assert!(db.contains_tuple_exact("Function", &func("rat", "prot1", "a")));
    }

    #[test]
    fn reject_is_sticky_regardless_of_conflict_iteration_order() {
        // Regression test for an order-dependence bug in DoGroup: a candidate
        // conflicting with BOTH an accepted and a deferred higher-priority
        // transaction must be rejected, whichever conflict is met first. An
        // earlier DoGroup overwrote the decision per conflict, so a Defer met
        // after the Reject won. DoGroup meets the pairs in position order, so
        // `high` comes first or last among the candidates; the ids vary too.
        let orders = [(4u32, 5u32), (8, 4), (8, 5), (8, 9), (14, 4), (4, 9)]
            .into_iter()
            .flat_map(|ids| [(ids, true), (ids, false)]);
        for ((d2_participant, low_participant), high_first) in orders {
            let (engine, mut db, mut soft) = setup();
            // `high` is alone at priority 9 on key (rat, prot1): accepted.
            let high = txn(2, 0, vec![Update::insert("Function", func("rat", "prot1", "a"), p(2))]);
            // `d1`/`d2` collide at priority 5 on key (rat, prot2): deferred.
            let d1 = txn(3, 0, vec![Update::insert("Function", func("rat", "prot2", "b"), p(3))]);
            let d2 = txn(
                d2_participant,
                0,
                vec![Update::insert("Function", func("rat", "prot2", "c"), p(d2_participant))],
            );
            // `low` conflicts with the accepted `high` (rat, prot1) and with
            // the deferred `d1`/`d2` (rat, prot2).
            let low = txn(
                low_participant,
                0,
                vec![
                    Update::insert("Function", func("rat", "prot1", "x"), p(low_participant)),
                    Update::insert("Function", func("rat", "prot2", "y"), p(low_participant)),
                ],
            );
            let mut candidates = vec![cand(&d1, 5), cand(&d2, 5), cand(&low, 1)];
            if high_first {
                candidates.insert(0, cand(&high, 9));
            } else {
                candidates.push(cand(&high, 9));
            }
            let out = engine.reconcile(
                ReconcileInput { recno: ReconciliationId(1), candidates, ..Default::default() },
                &mut db,
                &mut soft,
                &Span::default(),
            );
            assert_eq!(out.accepted_roots, vec![high.id()]);
            assert_eq!(out.deferred.len(), 2, "only d1/d2 defer (low id {low_participant})");
            assert_eq!(
                out.rejected,
                vec![low.id()],
                "low-priority candidate {low_participant} must be rejected, not deferred"
            );
        }
    }

    /// The flattening the soft state holds for a deferred candidate.
    fn deferred_flattening(soft: &SoftState, id: TransactionId) -> Arc<FlatExtension> {
        Arc::clone(soft.deferred()[&id].flattening(&bioinformatics_schema()))
    }

    #[test]
    fn unchanged_deferred_chains_are_flattened_once() {
        let (engine, mut db, mut soft) = setup();
        // Two conflicts: x1 against x2, and the chain y0 → y1 against y2.
        let x1 = txn(2, 0, vec![Update::insert("Function", func("rat", "prot1", "a"), p(2))]);
        let x2 = txn(3, 0, vec![Update::insert("Function", func("rat", "prot1", "b"), p(3))]);
        let y0 = txn(2, 1, vec![Update::insert("Function", func("mouse", "prot2", "a"), p(2))]);
        let y1 = txn(
            2,
            2,
            vec![Update::modify(
                "Function",
                func("mouse", "prot2", "a"),
                func("mouse", "prot2", "c"),
                p(2),
            )],
        );
        let y2 = txn(4, 0, vec![Update::insert("Function", func("mouse", "prot2", "d"), p(4))]);
        let chain = CandidateTransaction::new(&y1, Priority(1), vec![y0]);
        engine.reconcile(
            ReconcileInput {
                recno: ReconciliationId(1),
                candidates: vec![cand(&x1, 1), cand(&x2, 1), chain, cand(&y2, 1)],
                ..Default::default()
            },
            &mut db,
            &mut soft,
            &Span::default(),
        );
        assert_eq!(soft.conflict_groups().len(), 2);
        let deferred_with = deferred_flattening(&soft, y1.id());

        // A second reconciliation with no new candidates re-presents the
        // deferred chains via the soft state; nothing is re-flattened.
        engine.reconcile(
            ReconcileInput { recno: ReconciliationId(2), ..Default::default() },
            &mut db,
            &mut soft,
            &Span::default(),
        );
        assert!(Arc::ptr_eq(&deferred_with, &deferred_flattening(&soft, y1.id())));

        // Resolving the other conflict re-runs the engine over every deferred
        // chain; the unchanged chain is deferred again with its flattening.
        let group = soft.conflict_groups().iter().find(|g| g.transactions().contains(&x1.id()));
        let choice = ResolutionChoice { group: group.unwrap().key.clone(), chosen_option: Some(0) };
        let (rejected, remaining) = soft.resolve(&[choice]).unwrap();
        let rerun = ReconcileInput {
            recno: ReconciliationId(3),
            candidates: remaining,
            previously_rejected: Arc::new(rejected.into_iter().collect()),
            ..Default::default()
        };
        let resolved = engine.reconcile(rerun, &mut db, &mut soft, &Span::default());
        assert_eq!(resolved.accepted_roots.len(), 1);
        assert!(soft.is_deferred(y1.id()) && soft.is_deferred(y2.id()));
        assert!(Arc::ptr_eq(&deferred_with, &deferred_flattening(&soft, y1.id())));
    }

    #[test]
    fn a_deferred_chain_is_flattened_again_once_an_antecedent_is_accepted() {
        let (engine, mut db, mut soft) = setup();
        let insert = Update::insert("Function", func("mouse", "prot2", "a"), p(2));
        let y0 = txn(2, 0, vec![insert.clone()]);
        let y1 = txn(
            2,
            1,
            vec![Update::modify(
                "Function",
                func("mouse", "prot2", "a"),
                func("mouse", "prot2", "c"),
                p(2),
            )],
        );
        let y2 = txn(3, 0, vec![Update::insert("Function", func("mouse", "prot2", "d"), p(3))]);
        let chain = CandidateTransaction::new(&y1, Priority(1), vec![y0.clone()]);
        engine.reconcile(
            ReconcileInput {
                recno: ReconciliationId(1),
                candidates: vec![chain, cand(&y2, 1)],
                ..Default::default()
            },
            &mut db,
            &mut soft,
            &Span::default(),
        );
        let deferred_with = deferred_flattening(&soft, y1.id());

        // y0 is accepted before the next run: the chain is pruned to y1.
        db.apply_update(&insert).unwrap();
        engine.reconcile(
            ReconcileInput {
                recno: ReconciliationId(2),
                previously_accepted: Arc::new([y0.id()].into_iter().collect()),
                ..Default::default()
            },
            &mut db,
            &mut soft,
            &Span::default(),
        );
        let pruned = &soft.deferred()[&y1.id()];
        assert_eq!(pruned.members.len(), 1);
        let flattening = deferred_flattening(&soft, y1.id());
        assert!(!Arc::ptr_eq(&deferred_with, &flattening));
        assert_eq!(flattening.updates(), pruned.flattened(engine.schema()).updates());
    }

    #[test]
    fn a_run_that_defers_nothing_leaves_the_soft_state_as_an_empty_rebuild_would() {
        let (engine, mut db, mut soft) = setup();
        db.apply_update(&Update::insert("Function", func("rat", "prot1", "own"), p(1))).unwrap();
        let accepted =
            txn(2, 0, vec![Update::insert("Function", func("mouse", "prot2", "immune"), p(2))]);
        let rejected =
            txn(3, 0, vec![Update::insert("Function", func("rat", "prot1", "theirs"), p(3))]);
        let out = engine.reconcile(
            ReconcileInput {
                recno: ReconciliationId(7),
                candidates: vec![cand(&accepted, 1), cand(&rejected, 1)],
                own_updates: vec![Update::insert("Function", func("rat", "prot1", "own"), p(1))],
                ..Default::default()
            },
            &mut db,
            &mut soft,
            &Span::default(),
        );
        assert_eq!(out.accepted_roots, vec![accepted.id()]);
        assert_eq!(out.rejected, vec![rejected.id()]);
        assert!(out.deferred.is_empty());

        // Nothing was deferred before or after: the soft state was left
        // alone, and reads exactly as a rebuild from no candidates would.
        let mut rebuilt = SoftState::new();
        rebuilt.rebuild(vec![], engine.schema(), &Span::default());
        assert_eq!(soft.dirty_len(), rebuilt.dirty_len());
        assert_eq!(soft.deferred(), rebuilt.deferred());
        assert_eq!(soft.conflict_groups(), rebuilt.conflict_groups());
    }

    #[test]
    fn identical_remote_insert_is_accepted_as_noop() {
        let (engine, mut db, mut soft) = setup();
        db.apply_update(&Update::insert("Function", func("rat", "prot1", "immune"), p(1))).unwrap();
        let remote =
            txn(2, 0, vec![Update::insert("Function", func("rat", "prot1", "immune"), p(2))]);
        let out = engine.reconcile(
            ReconcileInput {
                recno: ReconciliationId(1),
                candidates: vec![cand(&remote, 1)],
                own_updates: vec![Update::insert("Function", func("rat", "prot1", "immune"), p(1))],
                ..Default::default()
            },
            &mut db,
            &mut soft,
            &Span::default(),
        );
        assert_eq!(out.accepted_roots, vec![remote.id()]);
        // Nothing new was applied; the value was already there.
        assert_eq!(out.applied, 0);
        assert_eq!(db.total_tuples(), 1);
    }
}
