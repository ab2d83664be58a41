//! Error types for the storage engine.

use orchestra_model::ModelError;
use std::fmt;

/// Convenience alias for storage results.
pub type Result<T> = std::result::Result<T, StorageError>;

/// Errors raised by the storage engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// An error bubbled up from the data model (schema mismatch, constraint
    /// violation, unknown relation, ...).
    Model(ModelError),
    /// An insertion targeted a primary key that already exists with a
    /// different tuple value.
    DuplicateKey {
        /// Relation of the attempted insertion.
        relation: String,
        /// Rendering of the duplicate key.
        key: String,
    },
    /// A deletion or modification referenced a tuple that is not present.
    MissingTuple {
        /// Relation of the attempted operation.
        relation: String,
        /// Rendering of the missing tuple.
        tuple: String,
    },
    /// A deletion or modification found a tuple with the right key but a
    /// different value than the one named by the update.
    StaleTuple {
        /// Relation of the attempted operation.
        relation: String,
        /// Rendering of the expected (antecedent) tuple.
        expected: String,
        /// Rendering of the tuple actually present.
        found: String,
    },
    /// A transaction id was published twice or referenced before publication.
    TransactionLog(String),
    /// Persistence failed: an I/O error, or a payload the codec rejects.
    Persistence(String),
    /// A reconciliation-session operation referenced an unknown, expired or
    /// foreign session handle.
    Session(String),
    /// A retention operation was invalid (retiring an unknown participant,
    /// pruning past the convergence horizon, ...).
    Retention(String),
    /// A causal stamp was rejected (out-of-order per-publisher sequence,
    /// unknown parent, or a causal operation in scalar mode).
    Causal(String),
    /// A conflict resolution kept an option its conflict group does not
    /// have.
    Resolution(String),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Model(e) => write!(f, "{e}"),
            StorageError::DuplicateKey { relation, key } => {
                write!(f, "duplicate key {key} in relation `{relation}`")
            }
            StorageError::MissingTuple { relation, tuple } => {
                write!(f, "tuple {tuple} not present in relation `{relation}`")
            }
            StorageError::StaleTuple { relation, expected, found } => write!(
                f,
                "relation `{relation}` holds {found} where the update expected {expected}"
            ),
            StorageError::TransactionLog(msg) => write!(f, "transaction log error: {msg}"),
            StorageError::Persistence(msg) => write!(f, "persistence error: {msg}"),
            StorageError::Session(msg) => write!(f, "reconciliation session error: {msg}"),
            StorageError::Retention(msg) => write!(f, "retention error: {msg}"),
            StorageError::Causal(msg) => write!(f, "causal stamp error: {msg}"),
            StorageError::Resolution(msg) => write!(f, "conflict resolution error: {msg}"),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ModelError> for StorageError {
    fn from(e: ModelError) -> Self {
        StorageError::Model(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_errors_convert() {
        let e: StorageError = ModelError::UnknownRelation("R".into()).into();
        assert!(matches!(e, StorageError::Model(_)));
        assert!(e.to_string().contains("R"));
    }

    #[test]
    fn display_variants() {
        let dup = StorageError::DuplicateKey { relation: "F".into(), key: "[rat]".into() };
        assert!(dup.to_string().contains("duplicate key"));
        let missing = StorageError::MissingTuple { relation: "F".into(), tuple: "(x)".into() };
        assert!(missing.to_string().contains("not present"));
        let stale = StorageError::StaleTuple {
            relation: "F".into(),
            expected: "(a)".into(),
            found: "(b)".into(),
        };
        assert!(stale.to_string().contains("expected"));
    }
}
