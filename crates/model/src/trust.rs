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
    pub fn matches(&self, update: &Update, schema: &crate::schema::Schema) -> bool {
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

    /// Convenience: conjunction of two predicates.
    pub fn and(self, other: Predicate) -> Predicate {
        Predicate::And(vec![self, other])
    }

    /// Convenience: disjunction of two predicates.
    pub fn or(self, other: Predicate) -> Predicate {
        Predicate::Or(vec![self, other])
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::bioinformatics_schema;
    use crate::tuple::Tuple;

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
}
