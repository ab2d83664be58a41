//! Provenance-annotated updates: insertions, deletions and modifications.

use crate::ids::ParticipantId;
use crate::intern::RelName;
use crate::schema::Schema;
use crate::tuple::{KeyValue, Tuple};
use std::fmt;

/// The kind of an update, without its payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum UpdateKind {
    /// `+R(ā; i)` — insertion of a tuple.
    Insert,
    /// `−R(ā; i)` — deletion of a tuple.
    Delete,
    /// `R(ā → ā′; i)` — replacement (modification) of a tuple.
    Modify,
}

impl fmt::Display for UpdateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            UpdateKind::Insert => "insert",
            UpdateKind::Delete => "delete",
            UpdateKind::Modify => "modify",
        };
        f.write_str(s)
    }
}

/// The payload of an update.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum UpdateOp {
    /// Insert a new tuple.
    Insert(Tuple),
    /// Delete an existing tuple (identified by its full value, as in the
    /// paper's `−R(ā; i)` notation).
    Delete(Tuple),
    /// Replace an existing tuple `from` with a new tuple `to`.
    Modify {
        /// The antecedent tuple value being replaced.
        from: Tuple,
        /// The replacement tuple value.
        to: Tuple,
    },
}

/// A single update to a relation, annotated with the identity of the
/// participant that originated it (its provenance).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Update {
    /// Name of the relation the update targets (interned, cheap to clone).
    pub relation: RelName,
    /// The operation payload.
    pub op: UpdateOp,
    /// The participant that originated the update.
    pub origin: ParticipantId,
}

impl Update {
    /// Creates an insertion `+R(ā; i)`.
    pub fn insert(relation: impl Into<RelName>, tuple: Tuple, origin: ParticipantId) -> Self {
        Update { relation: relation.into(), op: UpdateOp::Insert(tuple), origin }
    }

    /// Creates a deletion `−R(ā; i)`.
    pub fn delete(relation: impl Into<RelName>, tuple: Tuple, origin: ParticipantId) -> Self {
        Update { relation: relation.into(), op: UpdateOp::Delete(tuple), origin }
    }

    /// Creates a replacement `R(ā → ā′; i)`.
    pub fn modify(
        relation: impl Into<RelName>,
        from: Tuple,
        to: Tuple,
        origin: ParticipantId,
    ) -> Self {
        Update { relation: relation.into(), op: UpdateOp::Modify { from, to }, origin }
    }

    /// The kind of the update.
    pub fn kind(&self) -> UpdateKind {
        match self.op {
            UpdateOp::Insert(_) => UpdateKind::Insert,
            UpdateOp::Delete(_) => UpdateKind::Delete,
            UpdateOp::Modify { .. } => UpdateKind::Modify,
        }
    }

    /// The tuple value this update reads (its antecedent): the deleted tuple
    /// for a deletion, the `from` tuple for a modification, `None` for an
    /// insertion.
    pub fn read_tuple(&self) -> Option<&Tuple> {
        match &self.op {
            UpdateOp::Insert(_) => None,
            UpdateOp::Delete(t) => Some(t),
            UpdateOp::Modify { from, .. } => Some(from),
        }
    }

    /// The tuple value this update writes: the inserted tuple for an
    /// insertion, the `to` tuple for a modification, `None` for a deletion.
    pub fn written_tuple(&self) -> Option<&Tuple> {
        match &self.op {
            UpdateOp::Insert(t) => Some(t),
            UpdateOp::Delete(_) => None,
            UpdateOp::Modify { to, .. } => Some(to),
        }
    }

    /// Validates that all tuples in this update conform to the schema.
    pub fn validate(&self, schema: &Schema) -> crate::error::Result<()> {
        let rel = schema.relation(&self.relation)?;
        if let Some(t) = self.read_tuple() {
            rel.validate_tuple(t)?;
        }
        if let Some(t) = self.written_tuple() {
            rel.validate_tuple(t)?;
        }
        Ok(())
    }

    /// Decides whether two updates conflict, per Section 4 of the paper:
    ///
    /// 1. both are insertions with the same key attribute values but different
    ///    values for at least one other attribute; or
    /// 2. one is a deletion and the other is a replacement or insertion with
    ///    the same key attribute values; or
    /// 3. both are replacements with the same source tuple value but
    ///    different replacement tuples.
    ///
    /// Updates over different relations never conflict.
    pub fn conflicts_with(&self, other: &Update, schema: &Schema) -> bool {
        self.conflict_kind_with(other, schema).is_some()
    }

    /// Like [`Update::conflicts_with`] but returns the kind of conflict, which
    /// the reconciliation algorithm uses to build conflict groups, and the
    /// key it is on.
    ///
    /// Two updates conflict only over one relation and at one first key:
    /// the key of the tuple each reads or, for an insertion, inserts. That
    /// key is the one reported, and [`Update::conflict_kind_keyed`] decides
    /// the rest.
    pub fn conflict_kind_with(
        &self,
        other: &Update,
        schema: &Schema,
    ) -> Option<(crate::conflict::ConflictKind, KeyValue)> {
        if self.relation != other.relation {
            return None;
        }
        let kind = self.conflict_kind_keyed(other)?;
        let rel = schema.relation(&self.relation).ok()?;
        let first_key = |u: &Update| u.read_tuple().or(u.written_tuple()).map(|t| rel.key_of(t));
        let key = first_key(self)?;
        (first_key(other)? == key).then_some((kind, key))
    }

    /// The Section 4 conflict table for two updates over one relation that
    /// touch the same key first: the key of the tuple each reads or, for an
    /// insertion, inserts — the first key [`crate::NetUpdates::iter`] hands
    /// out with it. [`Update::conflict_kind_with`] is this check behind that
    /// key comparison.
    ///
    /// A caller that already holds both first keys, and has seen them equal,
    /// decides the conflict from the tuples alone, with no schema and no key
    /// derived.
    pub fn conflict_kind_keyed(&self, other: &Update) -> Option<crate::conflict::ConflictKind> {
        use crate::conflict::ConflictKind;
        match (&self.op, &other.op) {
            (UpdateOp::Insert(a), UpdateOp::Insert(b)) => {
                (a != b).then_some(ConflictKind::DivergentInsert)
            }
            (UpdateOp::Delete(_), UpdateOp::Insert(_) | UpdateOp::Modify { .. })
            | (UpdateOp::Insert(_) | UpdateOp::Modify { .. }, UpdateOp::Delete(_)) => {
                Some(ConflictKind::DeleteVersusWrite)
            }
            (UpdateOp::Modify { from: f1, to: t1 }, UpdateOp::Modify { from: f2, to: t2 }) => {
                (f1 == f2 && t1 != t2).then_some(ConflictKind::DivergentModify)
            }
            _ => None,
        }
    }
}

impl fmt::Display for Update {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.op {
            UpdateOp::Insert(t) => write!(f, "+{}{}; {}", self.relation, t, self.origin),
            UpdateOp::Delete(t) => write!(f, "-{}{}; {}", self.relation, t, self.origin),
            UpdateOp::Modify { from, to } => {
                write!(f, "{}({} -> {}); {}", self.relation, from, to, self.origin)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conflict::ConflictKind;
    use crate::schema::bioinformatics_schema;

    fn p(i: u32) -> ParticipantId {
        ParticipantId(i)
    }

    fn func(org: &str, prot: &str, f: &str) -> Tuple {
        Tuple::of_text(&[org, prot, f])
    }

    #[test]
    fn kinds_and_accessors() {
        let ins = Update::insert("Function", func("rat", "prot1", "immune"), p(3));
        assert_eq!(ins.kind(), UpdateKind::Insert);
        assert!(ins.read_tuple().is_none());
        assert_eq!(ins.written_tuple().unwrap(), &func("rat", "prot1", "immune"));

        let del = Update::delete("Function", func("rat", "prot1", "immune"), p(3));
        assert_eq!(del.kind(), UpdateKind::Delete);
        assert!(del.written_tuple().is_none());
        assert_eq!(del.read_tuple().unwrap(), &func("rat", "prot1", "immune"));

        let m = Update::modify(
            "Function",
            func("rat", "prot1", "cell-metab"),
            func("rat", "prot1", "immune"),
            p(3),
        );
        assert_eq!(m.kind(), UpdateKind::Modify);
        assert_eq!(m.read_tuple().unwrap(), &func("rat", "prot1", "cell-metab"));
        assert_eq!(m.written_tuple().unwrap(), &func("rat", "prot1", "immune"));
    }

    #[test]
    fn divergent_inserts_conflict() {
        let schema = bioinformatics_schema();
        let a = Update::insert("Function", func("rat", "prot1", "immune"), p(3));
        let b = Update::insert("Function", func("rat", "prot1", "cell-resp"), p(2));
        let c = Update::insert("Function", func("rat", "prot1", "immune"), p(2));
        let d = Update::insert("Function", func("rat", "prot2", "immune"), p(2));
        assert!(a.conflicts_with(&b, &schema));
        assert_eq!(a.conflict_kind_with(&b, &schema).unwrap().0, ConflictKind::DivergentInsert);
        // Identical inserts do not conflict.
        assert!(!a.conflicts_with(&c, &schema));
        // Different keys do not conflict.
        assert!(!a.conflicts_with(&d, &schema));
    }

    #[test]
    fn delete_versus_write_conflicts() {
        let schema = bioinformatics_schema();
        let del = Update::delete("Function", func("rat", "prot1", "immune"), p(1));
        let ins = Update::insert("Function", func("rat", "prot1", "other"), p(2));
        let modify = Update::modify(
            "Function",
            func("rat", "prot1", "immune"),
            func("rat", "prot1", "cell-resp"),
            p(2),
        );
        let unrelated = Update::insert("Function", func("mouse", "prot2", "x"), p(2));
        assert!(del.conflicts_with(&ins, &schema));
        assert!(ins.conflicts_with(&del, &schema));
        assert!(del.conflicts_with(&modify, &schema));
        assert!(!del.conflicts_with(&unrelated, &schema));
        assert_eq!(
            del.conflict_kind_with(&modify, &schema).unwrap().0,
            ConflictKind::DeleteVersusWrite
        );
    }

    #[test]
    fn divergent_modifies_conflict() {
        let schema = bioinformatics_schema();
        let base = func("rat", "prot1", "cell-metab");
        let m1 = Update::modify("Function", base.clone(), func("rat", "prot1", "immune"), p(3));
        let m2 = Update::modify("Function", base.clone(), func("rat", "prot1", "cell-resp"), p(2));
        let m3 = Update::modify("Function", base.clone(), func("rat", "prot1", "immune"), p(2));
        let other_base = Update::modify(
            "Function",
            func("rat", "prot1", "other"),
            func("rat", "prot1", "cell-resp"),
            p(2),
        );
        assert!(m1.conflicts_with(&m2, &schema));
        assert_eq!(m1.conflict_kind_with(&m2, &schema).unwrap().0, ConflictKind::DivergentModify);
        // Same source, same target: no conflict.
        assert!(!m1.conflicts_with(&m3, &schema));
        // Different source tuples: no conflict under rule 3.
        assert!(!m1.conflicts_with(&other_base, &schema));
    }

    #[test]
    fn updates_on_different_relations_never_conflict() {
        let schema = bioinformatics_schema();
        let a = Update::insert("Function", func("rat", "prot1", "immune"), p(1));
        let b = Update::insert("XRef", Tuple::of_text(&["rat", "prot1", "db1", "acc1"]), p(2));
        assert!(!a.conflicts_with(&b, &schema));
    }

    #[test]
    fn validation_against_schema() {
        let schema = bioinformatics_schema();
        let ok = Update::insert("Function", func("rat", "prot1", "immune"), p(1));
        assert!(ok.validate(&schema).is_ok());
        let bad_arity = Update::insert("Function", Tuple::of_text(&["rat", "prot1"]), p(1));
        assert!(bad_arity.validate(&schema).is_err());
        let bad_rel = Update::insert("Nope", func("rat", "prot1", "immune"), p(1));
        assert!(bad_rel.validate(&schema).is_err());
    }

    #[test]
    fn display_matches_paper_notation() {
        let ins = Update::insert("F", Tuple::of_text(&["rat", "prot1", "cell-metab"]), p(3));
        assert_eq!(ins.to_string(), "+F(rat, prot1, cell-metab); p3");
        let m = Update::modify(
            "F",
            Tuple::of_text(&["rat", "prot1", "cell-metab"]),
            Tuple::of_text(&["rat", "prot1", "immune"]),
            p(3),
        );
        assert!(m.to_string().contains("->"));
    }
}
