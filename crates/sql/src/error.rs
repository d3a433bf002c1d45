//! SQL-layer errors.

use std::fmt;

use tenantdb_storage::StorageError;

/// Errors produced while parsing, planning, or executing SQL.
#[derive(Debug, Clone, PartialEq)]
pub enum SqlError {
    /// Tokenizer error.
    Lex(String),
    /// Parser error.
    Parse(String),
    /// Semantic error (unknown column, ambiguous reference, arity, ...).
    Plan(String),
    /// Runtime evaluation error (type mismatch, division by zero, ...).
    Eval(String),
    /// Not enough / too many `?` parameters supplied.
    Params { expected: usize, got: usize },
    /// Error surfaced from the storage engine (locks, deadlocks, failures).
    Storage(StorageError),
}

impl fmt::Display for SqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SqlError::Lex(m) => write!(f, "lex error: {m}"),
            SqlError::Parse(m) => write!(f, "parse error: {m}"),
            SqlError::Plan(m) => write!(f, "plan error: {m}"),
            SqlError::Eval(m) => write!(f, "eval error: {m}"),
            SqlError::Params { expected, got } => {
                write!(f, "expected {expected} parameters, got {got}")
            }
            SqlError::Storage(e) => write!(f, "storage error: {e}"),
        }
    }
}

impl std::error::Error for SqlError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SqlError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StorageError> for SqlError {
    fn from(e: StorageError) -> Self {
        SqlError::Storage(e)
    }
}

pub type Result<T> = std::result::Result<T, SqlError>;

#[cfg(test)]
mod tests {
    use super::*;
    use tenantdb_storage::TxnId;

    #[test]
    fn storage_conversion() {
        let e: SqlError = StorageError::Deadlock(TxnId(3)).into();
        assert!(matches!(e, SqlError::Storage(StorageError::Deadlock(_))));
    }

    #[test]
    fn display() {
        assert_eq!(
            SqlError::Params {
                expected: 2,
                got: 1
            }
            .to_string(),
            "expected 2 parameters, got 1"
        );
    }
}
