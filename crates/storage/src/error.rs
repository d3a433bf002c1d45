//! Error types for the storage engine.

use std::fmt;

use crate::txn::TxnId;

/// Errors surfaced by the storage engine.
///
/// `Deadlock` and `LockTimeout` (the workload's) and `Unavailable` (a
/// failed machine) are refusals in the cluster's one classification,
/// `tenantdb_cluster::Refusal`; the rest are statement errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// The requested database does not exist.
    NoSuchDatabase(String),
    /// The requested table does not exist in the database.
    NoSuchTable(String),
    /// The requested index does not exist on the table.
    NoSuchIndex(String),
    /// A database or table with this name already exists.
    AlreadyExists(String),
    /// The transaction id is unknown (never begun, or already finished).
    NoSuchTxn(TxnId),
    /// The transaction is not in a state that permits this operation
    /// (e.g. issuing a write after `prepare`).
    InvalidTxnState { txn: TxnId, state: &'static str },
    /// This transaction was chosen as a deadlock victim and must be aborted
    /// by the caller.
    Deadlock(TxnId),
    /// A lock wait exceeded the configured timeout.
    LockTimeout(TxnId),
    /// The machine hosting this engine has failed (fault injection).
    Unavailable,
    /// A row violates a unique index.
    UniqueViolation { table: String, index: String },
    /// A row does not match the table schema (arity or type).
    SchemaMismatch(String),
    /// The referenced row id does not exist.
    NoSuchRow(u64),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::NoSuchDatabase(name) => write!(f, "no such database: {name}"),
            StorageError::NoSuchTable(name) => write!(f, "no such table: {name}"),
            StorageError::NoSuchIndex(name) => write!(f, "no such index: {name}"),
            StorageError::AlreadyExists(name) => write!(f, "already exists: {name}"),
            StorageError::NoSuchTxn(txn) => write!(f, "no such transaction: {txn}"),
            StorageError::InvalidTxnState { txn, state } => {
                write!(f, "transaction {txn} is {state}; operation not permitted")
            }
            StorageError::Deadlock(txn) => write!(f, "transaction {txn} chosen as deadlock victim"),
            StorageError::LockTimeout(txn) => {
                write!(f, "transaction {txn} timed out waiting for a lock")
            }
            StorageError::Unavailable => write!(f, "machine unavailable"),
            StorageError::UniqueViolation { table, index } => {
                write!(f, "unique violation on {table}.{index}")
            }
            StorageError::SchemaMismatch(msg) => write!(f, "schema mismatch: {msg}"),
            StorageError::NoSuchRow(id) => write!(f, "no such row: {id}"),
        }
    }
}

impl std::error::Error for StorageError {}

/// Convenience alias used throughout the engine.
pub type Result<T> = std::result::Result<T, StorageError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_stable() {
        assert_eq!(
            StorageError::NoSuchDatabase("apps".into()).to_string(),
            "no such database: apps"
        );
        assert_eq!(
            StorageError::Deadlock(TxnId(7)).to_string(),
            "transaction t7 chosen as deadlock victim"
        );
    }
}
