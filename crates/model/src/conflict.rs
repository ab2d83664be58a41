//! Conflict kinds and conflict-group keys.
//!
//! The reconciliation algorithm groups deferred conflicts into *conflict
//! groups*: conflicts of the same [`ConflictKind`] over the same key value of
//! the same relation (Section 5 of the paper). Within a group, transactions
//! that make the same modification form an *option*; the user resolves a
//! group by picking at most one option.

use crate::intern::RelName;
use crate::tuple::KeyValue;
use std::fmt;

/// The kind of a pairwise conflict between updates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ConflictKind {
    /// Two insertions write the same key with different non-key attributes.
    DivergentInsert,
    /// A deletion collides with an insertion or replacement of the same key.
    DeleteVersusWrite,
    /// Two replacements of the same source tuple write different targets.
    DivergentModify,
    /// Applying the update would violate an integrity constraint of the
    /// reconciling participant's instance.
    ConstraintViolation,
}

impl fmt::Display for ConflictKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ConflictKind::DivergentInsert => "divergent-insert",
            ConflictKind::DeleteVersusWrite => "delete-versus-write",
            ConflictKind::DivergentModify => "divergent-modify",
            ConflictKind::ConstraintViolation => "constraint-violation",
        };
        f.write_str(s)
    }
}

/// Identifies a conflict group: the `(type, value)` pair of the paper's
/// `UpdateSoftState` helper, qualified with the relation name.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConflictKey {
    /// The kind of conflict.
    pub kind: ConflictKind,
    /// Relation over which the conflict arose.
    pub relation: RelName,
    /// The key value that both sides of the conflict touch.
    pub key: KeyValue,
}

impl ConflictKey {
    /// Creates a conflict-group key.
    pub fn new(kind: ConflictKind, relation: impl Into<RelName>, key: KeyValue) -> Self {
        ConflictKey { kind, relation: relation.into(), key }
    }
}

impl fmt::Display for ConflictKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}{}", self.kind, self.relation, self.key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conflict_keys_group_by_kind_relation_and_key() {
        use std::collections::HashSet;
        let a = ConflictKey::new(
            ConflictKind::DivergentInsert,
            "Function",
            KeyValue::of_text(&["rat", "prot1"]),
        );
        let b = ConflictKey::new(
            ConflictKind::DivergentInsert,
            "Function",
            KeyValue::of_text(&["rat", "prot1"]),
        );
        let c = ConflictKey::new(
            ConflictKind::DeleteVersusWrite,
            "Function",
            KeyValue::of_text(&["rat", "prot1"]),
        );
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut set = HashSet::new();
        set.insert(a.clone());
        set.insert(b);
        set.insert(c);
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn display_is_informative() {
        let k = ConflictKey::new(
            ConflictKind::DivergentModify,
            "Function",
            KeyValue::of_text(&["mouse", "prot2"]),
        );
        let s = k.to_string();
        assert!(s.contains("divergent-modify"));
        assert!(s.contains("Function"));
        assert!(s.contains("mouse"));
    }

    #[test]
    fn kinds_are_ordered_and_displayable() {
        assert!(ConflictKind::DivergentInsert < ConflictKind::ConstraintViolation);
        assert_eq!(ConflictKind::ConstraintViolation.to_string(), "constraint-violation");
    }
}
