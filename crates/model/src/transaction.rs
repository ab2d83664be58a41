//! Transactions: ordered groups of updates published atomically by one
//! participant.

use crate::error::{ModelError, Result};
use crate::ids::{ParticipantId, TransactionId};
use crate::schema::Schema;
use crate::update::Update;
use std::fmt;
use std::sync::Arc;

/// A transaction `X_{i:j}`: an ordered sequence of updates originated by a
/// single participant and published atomically.
///
/// The paper's semantics treat the transaction as the unit of acceptance,
/// rejection and deferral: either all of its updates are applied at a
/// reconciliation, or none are.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transaction {
    id: TransactionId,
    /// Shared so that cloning a transaction (store-side retrieval, candidate
    /// construction) bumps a reference count instead of deep-copying updates.
    updates: Arc<Vec<Update>>,
}

impl Transaction {
    /// Creates a transaction, checking that it is non-empty and that every
    /// update's origin matches the transaction's originating participant.
    pub fn new(id: TransactionId, updates: Vec<Update>) -> Result<Self> {
        if updates.is_empty() {
            return Err(ModelError::InvalidTransaction(format!("transaction {id} has no updates")));
        }
        for u in &updates {
            if u.origin != id.participant {
                return Err(ModelError::InvalidTransaction(format!(
                    "transaction {id} contains an update originated by {}",
                    u.origin
                )));
            }
        }
        Ok(Transaction { id, updates: Arc::new(updates) })
    }

    /// Convenience constructor that builds the [`TransactionId`] from its
    /// parts.
    pub fn from_parts(
        participant: ParticipantId,
        local_id: u64,
        updates: Vec<Update>,
    ) -> Result<Self> {
        Transaction::new(TransactionId::new(participant, local_id), updates)
    }

    /// The transaction identifier.
    pub fn id(&self) -> TransactionId {
        self.id
    }

    /// The originating participant.
    pub fn origin(&self) -> ParticipantId {
        self.id.participant
    }

    /// The updates, in the order they were made.
    pub fn updates(&self) -> &[Update] {
        &self.updates
    }

    /// A shared handle to the update list. Cloning the result is a
    /// reference-count bump; the update store uses this to build candidate
    /// extensions without copying any update.
    pub fn shared_updates(&self) -> Arc<Vec<Update>> {
        Arc::clone(&self.updates)
    }

    /// Number of component updates.
    pub fn len(&self) -> usize {
        self.updates.len()
    }

    /// Transactions are never empty, but the method is provided for
    /// completeness of the collection-like API.
    pub fn is_empty(&self) -> bool {
        self.updates.is_empty()
    }

    /// Validates every component update against the schema.
    pub fn validate(&self, schema: &Schema) -> Result<()> {
        for u in self.updates.iter() {
            u.validate(schema)?;
        }
        Ok(())
    }
}

impl fmt::Display for Transaction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {{", self.id)?;
        for (i, u) in self.updates.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{u}")?;
        }
        f.write_str("}")
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
    fn empty_transactions_are_rejected() {
        let err = Transaction::from_parts(p(1), 0, vec![]).unwrap_err();
        assert!(matches!(err, ModelError::InvalidTransaction(_)));
    }

    #[test]
    fn mismatched_origin_is_rejected() {
        let u = Update::insert("Function", func("rat", "prot1", "immune"), p(2));
        let err = Transaction::from_parts(p(1), 0, vec![u]).unwrap_err();
        assert!(matches!(err, ModelError::InvalidTransaction(_)));
    }

    #[test]
    fn accessors() {
        let u1 = Update::insert("Function", func("rat", "prot1", "immune"), p(3));
        let u2 = Update::insert("Function", func("mouse", "prot2", "immune"), p(3));
        let x = Transaction::from_parts(p(3), 7, vec![u1.clone(), u2.clone()]).unwrap();
        assert_eq!(x.id(), TransactionId::new(p(3), 7));
        assert_eq!(x.origin(), p(3));
        assert_eq!(x.len(), 2);
        assert!(!x.is_empty());
        assert_eq!(x.updates(), &[u1, u2]);
        assert!(x.to_string().starts_with("X3:7: {"));
    }

    #[test]
    fn validate_checks_every_update() {
        let schema = bioinformatics_schema();
        let good = Transaction::from_parts(
            p(1),
            0,
            vec![Update::insert("Function", func("rat", "prot1", "immune"), p(1))],
        )
        .unwrap();
        assert!(good.validate(&schema).is_ok());
        let bad = Transaction::from_parts(
            p(1),
            1,
            vec![Update::insert("Function", Tuple::of_text(&["rat"]), p(1))],
        )
        .unwrap();
        assert!(bad.validate(&schema).is_err());
    }
}
