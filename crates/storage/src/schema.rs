//! Table schemas: column definitions and index definitions.

use crate::error::{Result, StorageError};
use crate::value::{DataType, Value};

/// A column definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDef {
    pub name: String,
    pub ty: DataType,
    pub nullable: bool,
}

impl ColumnDef {
    pub fn new(name: impl Into<String>, ty: DataType) -> Self {
        ColumnDef {
            name: name.into(),
            ty,
            nullable: true,
        }
    }

    pub fn not_null(mut self) -> Self {
        self.nullable = false;
        self
    }
}

/// An index definition. Indexes may span multiple columns and may be unique.
/// The primary key is modelled as a unique index named `"pk"`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexDef {
    pub name: String,
    /// Column ordinals (into the table schema) covered by the index.
    pub columns: Vec<usize>,
    pub unique: bool,
}

/// A table schema: ordered columns plus index definitions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableSchema {
    pub name: String,
    pub columns: Vec<ColumnDef>,
    pub indexes: Vec<IndexDef>,
}

impl TableSchema {
    pub fn new(name: impl Into<String>, columns: Vec<ColumnDef>) -> Self {
        TableSchema {
            name: name.into(),
            columns,
            indexes: Vec::new(),
        }
    }

    /// Declare a primary key over the named columns (unique index `"pk"`).
    pub fn with_primary_key(self, cols: &[&str]) -> Self {
        self.with_index("pk", cols, true)
    }

    /// Fallible variant of [`TableSchema::with_index`] for runtime DDL.
    pub fn try_add_index(&mut self, name: &str, cols: &[String], unique: bool) -> Result<()> {
        if self.index(name).is_some() {
            return Err(StorageError::AlreadyExists(name.to_string()));
        }
        let columns = cols
            .iter()
            .map(|c| {
                self.column_index(c)
                    .ok_or_else(|| StorageError::SchemaMismatch(format!("unknown column: {c}")))
            })
            .collect::<Result<Vec<_>>>()?;
        self.indexes.push(IndexDef {
            name: name.to_string(),
            columns,
            unique,
        });
        Ok(())
    }

    /// Declare a (possibly non-unique) secondary index over the named columns.
    pub fn with_index(mut self, name: &str, cols: &[&str], unique: bool) -> Self {
        let columns = cols
            .iter()
            .map(|c| {
                self.column_index(c)
                    .unwrap_or_else(|| panic!("index {name} references unknown column {c}"))
            })
            .collect();
        self.indexes.push(IndexDef {
            name: name.to_string(),
            columns,
            unique,
        });
        self
    }

    /// Ordinal of a named column.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    pub fn column(&self, name: &str) -> Option<&ColumnDef> {
        self.columns.iter().find(|c| c.name == name)
    }

    pub fn index(&self, name: &str) -> Option<&IndexDef> {
        self.indexes.iter().find(|i| i.name == name)
    }

    /// The primary key — the unique index named `"pk"` — and its ordinal
    /// in `indexes`, if declared.
    pub fn primary_key(&self) -> Option<(usize, &IndexDef)> {
        let named_pk = |(_, i): &(usize, &IndexDef)| i.unique && i.name == "pk";
        self.indexes.iter().enumerate().find(named_pk)
    }

    /// Find an index whose column list starts with exactly `cols` (in order).
    /// Used by the planner to select an access path.
    pub fn index_covering(&self, cols: &[usize]) -> Option<&IndexDef> {
        self.indexes
            .iter()
            .find(|i| i.columns.len() >= cols.len() && i.columns[..cols.len()] == *cols)
    }

    /// Validate a row against this schema (arity, types, null constraints).
    pub fn check_row(&self, row: &[Value]) -> Result<()> {
        if row.len() != self.columns.len() {
            return Err(StorageError::SchemaMismatch(format!(
                "table {}: expected {} columns, got {}",
                self.name,
                self.columns.len(),
                row.len()
            )));
        }
        for (v, c) in row.iter().zip(&self.columns) {
            if v.is_null() && !c.nullable {
                return Err(StorageError::SchemaMismatch(format!(
                    "table {}: column {} is NOT NULL",
                    self.name, c.name
                )));
            }
            if !v.matches(c.ty) {
                return Err(StorageError::SchemaMismatch(format!(
                    "table {}: column {} expects {}, got {v}",
                    self.name, c.name, c.ty
                )));
            }
        }
        Ok(())
    }

    /// Extract an index key (the indexed column values) from a row.
    pub fn index_key(&self, idx: &IndexDef, row: &[Value]) -> Vec<Value> {
        idx.columns.iter().map(|&c| row[c].clone()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn users() -> TableSchema {
        TableSchema::new(
            "users",
            vec![
                ColumnDef::new("id", DataType::Int).not_null(),
                ColumnDef::new("name", DataType::Text),
                ColumnDef::new("score", DataType::Float),
            ],
        )
        .with_primary_key(&["id"])
        .with_index("by_name", &["name"], false)
    }

    #[test]
    fn column_lookup() {
        let s = users();
        assert_eq!(s.column_index("name"), Some(1));
        assert_eq!(s.column_index("missing"), None);
        assert_eq!(s.column("score").unwrap().ty, DataType::Float);
    }

    #[test]
    fn index_definitions() {
        let s = users();
        assert_eq!(s.index("pk").unwrap().columns, vec![0]);
        assert!(s.index("pk").unwrap().unique);
        assert!(!s.index("by_name").unwrap().unique);
        assert!(s.index_covering(&[0]).is_some());
        assert!(s.index_covering(&[1]).is_some());
        assert!(s.index_covering(&[2]).is_none());
    }

    #[test]
    fn row_validation() {
        let s = users();
        assert!(s
            .check_row(&[Value::Int(1), Value::Text("a".into()), Value::Float(0.5)])
            .is_ok());
        // Int widens into Float column.
        assert!(s
            .check_row(&[Value::Int(1), Value::Null, Value::Int(2)])
            .is_ok());
        // NOT NULL violation.
        assert!(s
            .check_row(&[Value::Null, Value::Null, Value::Null])
            .is_err());
        // Arity.
        assert!(s.check_row(&[Value::Int(1)]).is_err());
        // Type error.
        assert!(s
            .check_row(&[Value::Text("x".into()), Value::Null, Value::Null])
            .is_err());
    }

    #[test]
    fn key_extraction() {
        let s = users();
        let row = vec![Value::Int(9), Value::Text("bob".into()), Value::Null];
        let pk = s.index("pk").unwrap();
        assert_eq!(s.index_key(pk, &row), vec![Value::Int(9)]);
    }

    #[test]
    #[should_panic(expected = "unknown column")]
    fn bad_index_panics() {
        let _ = TableSchema::new("t", vec![ColumnDef::new("a", DataType::Int)]).with_index(
            "bad",
            &["nope"],
            false,
        );
    }
}
