//! Trust policies: acceptance rules, update predicates and the transaction
//! priority function `pri_i(X)`.
//!
//! Each participant `p_i` carries a set of acceptance rules `A(p_i)`, each a
//! pair `(θ, v)` of a predicate over updates and an integer priority. The
//! priority of a transaction `X` relative to `p_i` is
//!
//! * `0` if any update in `X` is untrusted (no rule with `v > 0` matches), and
//! * the maximum matching `v` otherwise.
//!
//! A participant implicitly trusts its own updates above everything else
//! ([`Priority::OWN`]).
//!
//! Every update of a transaction carries the transaction's origin, and most
//! policies only ask who published: the paper's figures are all rules of the
//! shape "updates from `p` get priority `v`". So this module also owns what a
//! predicate says about origins — whether it is decided by the origin alone
//! ([`TrustPolicy::priority_by_origin`]) and which origins it can match at
//! all ([`TrustPolicy::trusted_origins`]).

use crate::ids::{ParticipantId, Priority};
use crate::transaction::Transaction;
use crate::update::{Update, UpdateKind};
use crate::value::Value;
use std::fmt;

/// A predicate `θ` over updates, used by acceptance rules.
///
/// Predicates can inspect the origin of an update, the relation it targets,
/// its kind, and the values it writes. Compound predicates are built with
/// [`Predicate::And`], [`Predicate::Or`] and [`Predicate::Not`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Predicate {
    /// Matches every update.
    True,
    /// Matches no update.
    False,
    /// Matches updates originated by the given participant.
    FromParticipant(ParticipantId),
    /// Matches updates originated by any of the given participants.
    FromAnyOf(Vec<ParticipantId>),
    /// Matches updates over the named relation.
    OverRelation(String),
    /// Matches updates of the given kind.
    OfKind(UpdateKind),
    /// Matches updates whose *written* tuple has the given value in the named
    /// column (insertions and modifications only).
    WritesValue {
        /// Column name inspected in the written tuple.
        column: String,
        /// Value the column must equal.
        equals: Value,
    },
    /// Conjunction.
    And(Vec<Predicate>),
    /// Disjunction.
    Or(Vec<Predicate>),
    /// Negation.
    Not(Box<Predicate>),
}

impl Predicate {
    /// Evaluates the predicate against an update. Column lookups that cannot
    /// be resolved (unknown relation or column) evaluate to `false` rather
    /// than erroring, so that a policy written for one schema degrades safely.
    fn matches(&self, update: &Update, schema: &crate::schema::Schema) -> bool {
        match self {
            Predicate::True => true,
            Predicate::False => false,
            Predicate::FromParticipant(p) => update.origin == *p,
            Predicate::FromAnyOf(ps) => ps.contains(&update.origin),
            Predicate::OverRelation(r) => update.relation == *r,
            Predicate::OfKind(k) => update.kind() == *k,
            Predicate::WritesValue { column, equals } => {
                let Some(written) = update.written_tuple() else { return false };
                let Ok(rel) = schema.relation(&update.relation) else { return false };
                let Ok(idx) = rel.column_index(column) else { return false };
                written.values().get(idx) == Some(equals)
            }
            Predicate::And(ps) => ps.iter().all(|p| p.matches(update, schema)),
            Predicate::Or(ps) => ps.iter().any(|p| p.matches(update, schema)),
            Predicate::Not(p) => !p.matches(update, schema),
        }
    }

    /// The predicate's value on every update of `origin`, when the origin
    /// alone decides it: three-valued logic over the predicate's shape, with
    /// `None` for what depends on the update itself (relation, kind, written
    /// value). An `And` with a child false for this origin is false and an
    /// `Or` with a child true for it is true, whatever the other children.
    fn decided_by_origin(&self, origin: ParticipantId) -> Option<bool> {
        match self {
            Predicate::True => Some(true),
            Predicate::False => Some(false),
            Predicate::FromParticipant(p) => Some(*p == origin),
            Predicate::FromAnyOf(ps) => Some(ps.contains(&origin)),
            Predicate::OverRelation(_) | Predicate::OfKind(_) | Predicate::WritesValue { .. } => {
                None
            }
            Predicate::And(ps) => decide_all(ps, origin, false),
            Predicate::Or(ps) => decide_all(ps, origin, true),
            Predicate::Not(p) => p.decided_by_origin(origin).map(|b| !b),
        }
    }

    /// Convenience: conjunction of two predicates.
    pub fn and(self, other: Predicate) -> Predicate {
        Predicate::And(vec![self, other])
    }

    /// Convenience: disjunction of two predicates.
    pub fn or(self, other: Predicate) -> Predicate {
        Predicate::Or(vec![self, other])
    }
}

/// The value of a conjunction (`dominant == false`) or a disjunction
/// (`dominant == true`) of `children` for `origin`: `dominant` as soon as one
/// child is decided to it, `!dominant` when every child is decided the other
/// way, and undecided otherwise.
fn decide_all(children: &[Predicate], origin: ParticipantId, dominant: bool) -> Option<bool> {
    let mut decided = Some(!dominant);
    for child in children {
        match child.decided_by_origin(origin) {
            Some(value) if value == dominant => return Some(dominant),
            Some(_) => {}
            None => decided = None,
        }
    }
    decided
}

/// Appends the update origins a predicate can match to `out`, or returns
/// `false` when no finite set bounds them (`out` is then meaningless). An
/// over-approximation read off the predicate's shape, never an evaluation —
/// `And` intersects its bounded children (none bounded: unbounded), `Or` is
/// unbounded as soon as one child is, and everything that does not name an
/// origin (`Not` included) is unbounded.
fn bounded_origins(predicate: &Predicate, out: &mut Vec<ParticipantId>) -> bool {
    match predicate {
        Predicate::False => true,
        Predicate::FromParticipant(p) => {
            out.push(*p);
            true
        }
        Predicate::FromAnyOf(ps) => {
            out.extend_from_slice(ps);
            true
        }
        Predicate::Or(children) => children.iter().all(|child| bounded_origins(child, out)),
        Predicate::And(children) => {
            let mut meet: Option<Vec<ParticipantId>> = None;
            for child in children {
                let mut origins = Vec::new();
                if bounded_origins(child, &mut origins) {
                    if let Some(meet) = &mut meet {
                        meet.retain(|p| origins.contains(p));
                    } else {
                        meet = Some(origins);
                    }
                }
            }
            match meet {
                Some(meet) => {
                    out.extend(meet);
                    true
                }
                None => false,
            }
        }
        Predicate::True
        | Predicate::OverRelation(_)
        | Predicate::OfKind(_)
        | Predicate::WritesValue { .. }
        | Predicate::Not(_) => false,
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::True => f.write_str("true"),
            Predicate::False => f.write_str("false"),
            Predicate::FromParticipant(p) => write!(f, "from({p})"),
            Predicate::FromAnyOf(ps) => {
                f.write_str("from-any(")?;
                for (i, p) in ps.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{p}")?;
                }
                f.write_str(")")
            }
            Predicate::OverRelation(r) => write!(f, "relation({r})"),
            Predicate::OfKind(k) => write!(f, "kind({k})"),
            Predicate::WritesValue { column, equals } => write!(f, "{column}={equals}"),
            Predicate::And(ps) => {
                f.write_str("(")?;
                for (i, p) in ps.iter().enumerate() {
                    if i > 0 {
                        f.write_str(" AND ")?;
                    }
                    write!(f, "{p}")?;
                }
                f.write_str(")")
            }
            Predicate::Or(ps) => {
                f.write_str("(")?;
                for (i, p) in ps.iter().enumerate() {
                    if i > 0 {
                        f.write_str(" OR ")?;
                    }
                    write!(f, "{p}")?;
                }
                f.write_str(")")
            }
            Predicate::Not(p) => write!(f, "NOT {p}"),
        }
    }
}

/// An acceptance rule `(θ, v)`: a predicate plus the priority assigned to
/// updates satisfying it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AcceptanceRule {
    /// Predicate over updates.
    pub predicate: Predicate,
    /// Priority assigned to matching updates (0 would mean untrusted, so
    /// useful rules carry a positive priority).
    pub priority: Priority,
}

impl AcceptanceRule {
    /// Creates an acceptance rule.
    pub fn new(predicate: Predicate, priority: impl Into<Priority>) -> Self {
        AcceptanceRule { predicate, priority: priority.into() }
    }

    /// The common case in the paper's figures: "updates from participant `p`
    /// get priority `v`".
    fn trust_participant(p: ParticipantId, priority: impl Into<Priority>) -> Self {
        AcceptanceRule::new(Predicate::FromParticipant(p), priority)
    }
}

/// The trust policy `A(p_i)` of one participant: its identity plus its set of
/// acceptance rules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrustPolicy {
    owner: ParticipantId,
    rules: Vec<AcceptanceRule>,
}

impl TrustPolicy {
    /// Creates an empty policy for a participant (it still trusts itself).
    pub fn new(owner: ParticipantId) -> Self {
        TrustPolicy { owner, rules: Vec::new() }
    }

    /// The participant that owns this policy.
    pub fn owner(&self) -> ParticipantId {
        self.owner
    }

    /// The acceptance rules.
    pub fn rules(&self) -> &[AcceptanceRule] {
        &self.rules
    }

    /// Adds an acceptance rule.
    pub fn add_rule(&mut self, rule: AcceptanceRule) {
        self.rules.push(rule);
    }

    /// Builder-style variant of [`TrustPolicy::add_rule`].
    pub fn with_rule(mut self, rule: AcceptanceRule) -> Self {
        self.add_rule(rule);
        self
    }

    /// Builder-style shorthand for "updates from `p` get priority `v`".
    pub fn trusting(mut self, p: ParticipantId, priority: impl Into<Priority>) -> Self {
        self.add_rule(AcceptanceRule::trust_participant(p, priority));
        self
    }

    /// The priority this policy assigns to a single update: the participant's
    /// own updates get [`Priority::OWN`]; otherwise the maximum priority of
    /// any matching rule, or [`Priority::UNTRUSTED`] if none matches with a
    /// positive priority.
    pub fn priority_of_update(&self, update: &Update, schema: &crate::schema::Schema) -> Priority {
        if update.origin == self.owner {
            return Priority::OWN;
        }
        self.rules
            .iter()
            .filter(|r| r.priority.is_trusted() && r.predicate.matches(update, schema))
            .map(|r| r.priority)
            .max()
            .unwrap_or(Priority::UNTRUSTED)
    }

    /// The paper's `pri_i(X)`: `0` if any update in the transaction is
    /// untrusted, otherwise the maximum priority over all matching rules and
    /// component updates.
    pub fn priority_of_transaction(
        &self,
        txn: &Transaction,
        schema: &crate::schema::Schema,
    ) -> Priority {
        let mut max = Priority::UNTRUSTED;
        for u in txn.updates() {
            let p = self.priority_of_update(u, schema);
            if p.is_untrusted() {
                return Priority::UNTRUSTED;
            }
            max = max.max(p);
        }
        max
    }

    /// [`TrustPolicy::priority_of_transaction`], decided once for the
    /// transaction's origin when the origin alone decides every positive
    /// rule, in O(rules) instead of O(updates × rules); otherwise the
    /// per-update definition itself.
    ///
    /// Exact because [`Transaction::new`] admits neither an empty transaction
    /// nor an update whose origin is not the transaction's: every update then
    /// gets the origin's priority, so the transaction does too. A decoded
    /// WAL record or snapshot goes through `Transaction::new` as well.
    pub fn priority_by_origin(
        &self,
        txn: &Transaction,
        schema: &crate::schema::Schema,
    ) -> Priority {
        self.origin_priority(txn.origin())
            .unwrap_or_else(|| self.priority_of_transaction(txn, schema))
    }

    /// The priority of every update of `origin`, or `None` when some positive
    /// rule depends on more than the origin.
    fn origin_priority(&self, origin: ParticipantId) -> Option<Priority> {
        if origin == self.owner {
            return Some(Priority::OWN);
        }
        let mut max = Priority::UNTRUSTED;
        for rule in self.rules.iter().filter(|r| r.priority.is_trusted()) {
            if rule.predicate.decided_by_origin(origin)? {
                max = max.max(rule.priority);
            }
        }
        Some(max)
    }

    /// The update origins this policy can give a non-zero priority, sorted
    /// and distinct: the union over its positive rules (zero-priority rules
    /// trust nothing), `None` when one of them is unbounded. The owner's own
    /// updates are not listed — a participant is never offered its own
    /// transactions.
    pub fn trusted_origins(&self) -> Option<Vec<ParticipantId>> {
        let mut origins = Vec::new();
        for rule in self.rules.iter().filter(|rule| rule.priority.is_trusted()) {
            if !bounded_origins(&rule.predicate, &mut origins) {
                return None;
            }
        }
        origins.sort_unstable();
        origins.dedup();
        Some(origins)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::bioinformatics_schema;
    use crate::tuple::Tuple;
    use proptest::prelude::*;

    fn p(i: u32) -> ParticipantId {
        ParticipantId(i)
    }

    fn func(org: &str, prot: &str, f: &str) -> Tuple {
        Tuple::of_text(&[org, prot, f])
    }

    #[test]
    fn origin_predicate() {
        let schema = bioinformatics_schema();
        let u = Update::insert("Function", func("rat", "prot1", "immune"), p(3));
        assert!(Predicate::FromParticipant(p(3)).matches(&u, &schema));
        assert!(!Predicate::FromParticipant(p(2)).matches(&u, &schema));
        assert!(Predicate::FromAnyOf(vec![p(1), p(3)]).matches(&u, &schema));
        assert!(!Predicate::FromAnyOf(vec![p(1), p(2)]).matches(&u, &schema));
    }

    #[test]
    fn relation_kind_and_value_predicates() {
        let schema = bioinformatics_schema();
        let u = Update::insert("Function", func("rat", "prot1", "immune"), p(3));
        assert!(Predicate::OverRelation("Function".into()).matches(&u, &schema));
        assert!(!Predicate::OverRelation("XRef".into()).matches(&u, &schema));
        assert!(Predicate::OfKind(UpdateKind::Insert).matches(&u, &schema));
        assert!(!Predicate::OfKind(UpdateKind::Delete).matches(&u, &schema));
        assert!(Predicate::WritesValue { column: "organism".into(), equals: "rat".into() }
            .matches(&u, &schema));
        assert!(!Predicate::WritesValue { column: "organism".into(), equals: "mouse".into() }
            .matches(&u, &schema));
        // Unknown column degrades to false rather than erroring.
        assert!(!Predicate::WritesValue { column: "nope".into(), equals: "rat".into() }
            .matches(&u, &schema));
        // Deletions write nothing, so WritesValue never matches them.
        let d = Update::delete("Function", func("rat", "prot1", "immune"), p(3));
        assert!(!Predicate::WritesValue { column: "organism".into(), equals: "rat".into() }
            .matches(&d, &schema));
    }

    #[test]
    fn boolean_combinators() {
        let schema = bioinformatics_schema();
        let u = Update::insert("Function", func("rat", "prot1", "immune"), p(3));
        let from3 = Predicate::FromParticipant(p(3));
        let over_func = Predicate::OverRelation("Function".into());
        assert!(from3.clone().and(over_func.clone()).matches(&u, &schema));
        assert!(!from3.clone().and(Predicate::False).matches(&u, &schema));
        assert!(Predicate::False.or(over_func).matches(&u, &schema));
        assert!(!Predicate::Not(Box::new(from3)).matches(&u, &schema));
        assert!(Predicate::True.matches(&u, &schema));
        assert!(!Predicate::False.matches(&u, &schema));
    }

    #[test]
    fn own_updates_always_have_top_priority() {
        let schema = bioinformatics_schema();
        let policy = TrustPolicy::new(p(1));
        let own = Update::insert("Function", func("rat", "prot1", "immune"), p(1));
        assert_eq!(policy.priority_of_update(&own, &schema), Priority::OWN);
    }

    #[test]
    fn unmatched_updates_are_untrusted() {
        let schema = bioinformatics_schema();
        let policy = TrustPolicy::new(p(1)).trusting(p(2), 5u32);
        let from3 = Update::insert("Function", func("rat", "prot1", "immune"), p(3));
        assert_eq!(policy.priority_of_update(&from3, &schema), Priority::UNTRUSTED);
    }

    #[test]
    fn max_priority_wins_for_updates() {
        let schema = bioinformatics_schema();
        let policy = TrustPolicy::new(p(1)).trusting(p(2), 1u32).with_rule(AcceptanceRule::new(
            Predicate::FromParticipant(p(2)).and(Predicate::OverRelation("Function".into())),
            4u32,
        ));
        let u = Update::insert("Function", func("rat", "prot1", "immune"), p(2));
        assert_eq!(policy.priority_of_update(&u, &schema), Priority(4));
        let xref = Update::insert("XRef", Tuple::of_text(&["rat", "prot1", "db", "a"]), p(2));
        assert_eq!(policy.priority_of_update(&xref, &schema), Priority(1));
    }

    #[test]
    fn transaction_priority_is_zero_if_any_update_untrusted() {
        let schema = bioinformatics_schema();
        // Trust p2 only for the Function relation.
        let policy = TrustPolicy::new(p(1)).with_rule(AcceptanceRule::new(
            Predicate::FromParticipant(p(2)).and(Predicate::OverRelation("Function".into())),
            3u32,
        ));
        let trusted = Transaction::from_parts(
            p(2),
            0,
            vec![Update::insert("Function", func("rat", "prot1", "immune"), p(2))],
        )
        .unwrap();
        assert_eq!(policy.priority_of_transaction(&trusted, &schema), Priority(3));

        let mixed = Transaction::from_parts(
            p(2),
            1,
            vec![
                Update::insert("Function", func("rat", "prot1", "immune"), p(2)),
                Update::insert("XRef", Tuple::of_text(&["rat", "prot1", "db", "a"]), p(2)),
            ],
        )
        .unwrap();
        assert_eq!(policy.priority_of_transaction(&mixed, &schema), Priority::UNTRUSTED);
    }

    #[test]
    fn figure1_policies() {
        // p1 trusts p2 and p3 at priority 1; p2 trusts p1 at 2 and p3 at 1;
        // p3 trusts only p2 at 1.
        let schema = bioinformatics_schema();
        let p1_policy = TrustPolicy::new(p(1)).trusting(p(2), 1u32).trusting(p(3), 1u32);
        let p2_policy = TrustPolicy::new(p(2)).trusting(p(1), 2u32).trusting(p(3), 1u32);
        let p3_policy = TrustPolicy::new(p(3)).trusting(p(2), 1u32);

        let from1 = Update::insert("Function", func("a", "b", "c"), p(1));
        let from2 = Update::insert("Function", func("a", "b", "c"), p(2));
        let from3 = Update::insert("Function", func("a", "b", "c"), p(3));

        assert_eq!(p1_policy.priority_of_update(&from2, &schema), Priority(1));
        assert_eq!(p1_policy.priority_of_update(&from3, &schema), Priority(1));
        assert_eq!(p2_policy.priority_of_update(&from1, &schema), Priority(2));
        assert_eq!(p2_policy.priority_of_update(&from3, &schema), Priority(1));
        assert_eq!(p3_policy.priority_of_update(&from2, &schema), Priority(1));
        assert_eq!(p3_policy.priority_of_update(&from1, &schema), Priority::UNTRUSTED);
    }

    #[test]
    fn display_of_predicates() {
        let pred = Predicate::FromParticipant(p(2)).and(Predicate::OverRelation("F".into()));
        let s = pred.to_string();
        assert!(s.contains("from(p2)"));
        assert!(s.contains("relation(F)"));
        assert!(s.contains("AND"));
    }

    #[test]
    fn trusted_origins_follow_the_predicate_grammar() {
        use Predicate::{And, False, FromAnyOf, FromParticipant, Not, OfKind, Or, True};
        let set = |ids: &[u32]| Some(ids.iter().map(|i| p(*i)).collect::<Vec<_>>());
        let kind = || OfKind(UpdateKind::Insert);
        for (predicate, expected) in [
            (True, None),
            (False, set(&[])),
            (FromParticipant(p(2)), set(&[2])),
            (FromAnyOf(vec![p(3), p(2), p(3)]), set(&[2, 3])),
            (Predicate::OverRelation("Function".into()), None),
            (kind(), None),
            (Not(Box::new(FromParticipant(p(2)))), None),
            (And(vec![]), None),
            (And(vec![True, kind()]), None),
            (And(vec![kind(), FromParticipant(p(2))]), set(&[2])),
            (And(vec![FromAnyOf(vec![p(2), p(3)]), FromParticipant(p(3))]), set(&[3])),
            (And(vec![FromParticipant(p(2)), FromParticipant(p(3))]), set(&[])),
            (Or(vec![]), set(&[])),
            (Or(vec![FromParticipant(p(2)), FromAnyOf(vec![p(4)])]), set(&[2, 4])),
            (Or(vec![FromParticipant(p(2)), kind()]), None),
            (Or(vec![And(vec![True, FromParticipant(p(5))]), False]), set(&[5])),
        ] {
            let policy = TrustPolicy::new(p(1)).with_rule(AcceptanceRule::new(predicate, 1u32));
            assert_eq!(policy.trusted_origins(), expected, "{}", policy.rules()[0].predicate);
        }
        // Only positive rules count: a zero-priority `True` trusts nothing.
        let policy = TrustPolicy::new(p(1))
            .with_rule(AcceptanceRule::new(True, 0u32))
            .trusting(p(3), 1u32)
            .trusting(p(2), 1u32);
        assert_eq!(policy.trusted_origins(), set(&[2, 3]));
        assert_eq!(TrustPolicy::new(p(1)).trusted_origins(), set(&[]));
        let open = policy.with_rule(AcceptanceRule::new(kind(), 2u32));
        assert_eq!(open.trusted_origins(), None);
    }

    #[test]
    fn origins_decide_predicates_in_three_valued_logic() {
        use Predicate::{And, False, FromAnyOf, FromParticipant, Not, OfKind, Or, True};
        let kind = || OfKind(UpdateKind::Insert);
        let not = |predicate| Not(Box::new(predicate));
        for (predicate, expected) in [
            (True, Some(true)),
            (False, Some(false)),
            (FromParticipant(p(2)), Some(true)),
            (FromParticipant(p(3)), Some(false)),
            (FromAnyOf(vec![p(3), p(2)]), Some(true)),
            (FromAnyOf(vec![]), Some(false)),
            (Predicate::OverRelation("Function".into()), None),
            (kind(), None),
            (not(FromParticipant(p(3))), Some(true)),
            (not(kind()), None),
            (And(vec![]), Some(true)),
            (And(vec![kind(), FromParticipant(p(3))]), Some(false)),
            (And(vec![kind(), FromParticipant(p(2))]), None),
            (Or(vec![]), Some(false)),
            (Or(vec![kind(), FromParticipant(p(2))]), Some(true)),
            (Or(vec![kind(), FromParticipant(p(3))]), None),
            (not(Or(vec![kind(), FromAnyOf(vec![p(2)])])), Some(false)),
        ] {
            assert_eq!(predicate.decided_by_origin(p(2)), expected, "{predicate}");
        }
        // The owner's own transactions are decided whatever the rules say;
        // a positive rule the origin cannot decide sends everyone else to the
        // per-update definition, a zero-priority one does not.
        let policy = TrustPolicy::new(p(1))
            .trusting(p(2), 3u32)
            .with_rule(AcceptanceRule::new(kind(), 0u32));
        assert_eq!(policy.origin_priority(p(1)), Some(Priority::OWN));
        assert_eq!(policy.origin_priority(p(2)), Some(Priority(3)));
        assert_eq!(policy.origin_priority(p(4)), Some(Priority::UNTRUSTED));
        let policy = policy.with_rule(AcceptanceRule::new(kind(), 5u32));
        assert_eq!(policy.origin_priority(p(1)), Some(Priority::OWN));
        assert_eq!(policy.origin_priority(p(2)), None);
    }

    /// A bounded stream of choices a property case decodes its policies and
    /// transactions from (the vendored proptest has no recursive strategies).
    struct Tape<'a>(std::slice::Iter<'a, u32>);

    impl Tape<'_> {
        /// The next choice in `0..n`; an exhausted tape answers 0.
        fn pick(&mut self, n: u32) -> u32 {
            self.0.next().map_or(0, |v| v % n)
        }

        fn participant(&mut self) -> ParticipantId {
            p(1 + self.pick(4))
        }

        /// A predicate drawn from the whole grammar, or from its origin
        /// predicates alone (`True`, `False`, `FromParticipant`,
        /// `FromAnyOf`, `And`, `Or`, `Not`) when `origins_only`.
        fn predicate(&mut self, depth: u32, origins_only: bool) -> Predicate {
            let children = |tape: &mut Self| {
                let len = tape.pick(4);
                (0..len).map(|_| tape.predicate(depth - 1, origins_only)).collect::<Vec<_>>()
            };
            let leaves = if origins_only { 4 } else { 7 };
            let choice = self.pick(if depth == 0 { leaves } else { leaves + 3 });
            match (choice, origins_only) {
                (0, _) => Predicate::True,
                (1, _) => Predicate::False,
                (2, _) => Predicate::FromParticipant(self.participant()),
                (3, _) => {
                    Predicate::FromAnyOf((0..self.pick(4)).map(|_| self.participant()).collect())
                }
                (4, false) => {
                    Predicate::OverRelation(["Function", "XRef"][self.pick(2) as usize].into())
                }
                (5, false) => Predicate::OfKind(
                    [UpdateKind::Insert, UpdateKind::Delete, UpdateKind::Modify]
                        [self.pick(3) as usize],
                ),
                (6, false) => Predicate::WritesValue {
                    column: "function".into(),
                    equals: ["a", "b"][self.pick(2) as usize].into(),
                },
                (c, _) if c == leaves => Predicate::And(children(self)),
                (c, _) if c == leaves + 1 => Predicate::Or(children(self)),
                _ => Predicate::Not(Box::new(self.predicate(depth - 1, origins_only))),
            }
        }

        /// A policy of zero to three rules, zero priorities included.
        fn policy(&mut self, origins_only: bool) -> TrustPolicy {
            (0..self.pick(4)).fold(TrustPolicy::new(p(1)), |policy, _| {
                let rule = AcceptanceRule::new(self.predicate(3, origins_only), self.pick(4));
                policy.with_rule(rule)
            })
        }

        /// A transaction of one to four updates by one of the participants,
        /// the policy's owner included.
        fn transaction(&mut self) -> Transaction {
            let origin = self.participant();
            let updates = (0..1 + self.pick(4))
                .map(|k| {
                    let value = |tape: &mut Self| ["a", "b"][tape.pick(2) as usize];
                    let tuple = |f: &str| func("rat", &format!("prot{k}"), f);
                    match self.pick(4) {
                        0 => Update::insert("Function", tuple(value(self)), origin),
                        1 => Update::delete("Function", tuple(value(self)), origin),
                        2 => Update::modify("Function", tuple("a"), tuple(value(self)), origin),
                        _ => Update::insert(
                            "XRef",
                            Tuple::of_text(&["rat", &format!("prot{k}"), "db", "x"]),
                            origin,
                        ),
                    }
                })
                .collect();
            Transaction::from_parts(origin, 0, updates).unwrap()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Deciding by origin is the per-update definition, on any policy
        /// and any transaction; and a policy of origin predicates alone is
        /// always decided by origin.
        #[test]
        fn priority_by_origin_is_the_per_update_definition(
            choices in prop::collection::vec(0u32..1 << 16, 20..200),
        ) {
            let schema = bioinformatics_schema();
            let mut tape = Tape(choices.iter());
            let origins_only = tape.pick(2) == 0;
            let policy = tape.policy(origins_only);
            for _ in 0..4 {
                let txn = tape.transaction();
                prop_assert_eq!(
                    policy.priority_by_origin(&txn, &schema),
                    policy.priority_of_transaction(&txn, &schema),
                    "{:?} on {:?}", policy, txn
                );
                if origins_only {
                    prop_assert!(policy.origin_priority(txn.origin()).is_some(), "{:?}", policy);
                }
            }
        }
    }
}
