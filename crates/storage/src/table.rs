//! Physical table storage: a row heap plus secondary indexes.
//!
//! `Table` is a *passive* container — it performs no locking or logging
//! itself. The [`crate::engine::Engine`] is responsible for acquiring 2PL
//! locks, charging buffer-pool costs, and writing WAL records before calling
//! into a table. Methods that must be atomic (e.g. unique-check-then-insert)
//! take the internal structure lock for their whole duration.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::sync::{RwLock, TABLE_DATA};

use crate::error::{Result, StorageError};
use crate::schema::TableSchema;
use crate::value::Value;

/// An index: ordered map from key tuples to the set of row ids with that key.
type IndexMap = BTreeMap<Vec<Value>, BTreeSet<u64>>;

struct TableData {
    rows: BTreeMap<u64, Vec<Value>>,
    /// index name -> index map; kept in schema order for determinism.
    indexes: HashMap<String, IndexMap>,
}

/// A stored table.
pub struct Table {
    /// Global table id (assigned by the engine); used for lock resources and
    /// buffer-pool page keys.
    pub id: u64,
    pub schema: TableSchema,
    data: RwLock<TableData>,
    next_row_id: AtomicU64,
}

impl Table {
    pub fn new(id: u64, schema: TableSchema) -> Self {
        let indexes = schema
            .indexes
            .iter()
            .map(|i| (i.name.clone(), IndexMap::new()))
            .collect();
        Table {
            id,
            schema,
            data: RwLock::new(
                &TABLE_DATA,
                TableData {
                    rows: BTreeMap::new(),
                    indexes,
                },
            ),
            next_row_id: AtomicU64::new(0),
        }
    }

    /// Reserve the next row id without inserting (the engine locks the row id
    /// before the row materializes, so no reader can observe a half-inserted
    /// row).
    pub fn reserve_row_id(&self) -> u64 {
        // ordering: Relaxed — id minting; uniqueness needs only atomicity. The row
        // itself is published later under the table's data lock (see above).
        self.next_row_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Insert a validated row under a pre-reserved id.
    /// Fails (without side effects) on unique-index violation.
    pub fn insert_with_id(&self, row_id: u64, row: Vec<Value>) -> Result<()> {
        self.schema.check_row(&row)?;
        let mut d = self.data.write();
        for idx in &self.schema.indexes {
            if idx.unique {
                let key = self.schema.index_key(idx, &row);
                if d.indexes[&idx.name]
                    .get(&key)
                    .is_some_and(|s| !s.is_empty())
                {
                    return Err(StorageError::UniqueViolation {
                        table: self.schema.name.clone(),
                        index: idx.name.clone(),
                    });
                }
            }
        }
        for idx in &self.schema.indexes {
            let key = self.schema.index_key(idx, &row);
            d.indexes
                .get_mut(&idx.name)
                .unwrap()
                .entry(key)
                .or_default()
                .insert(row_id);
        }
        d.rows.insert(row_id, row);
        // Keep the id allocator ahead of explicitly supplied ids (restore path).
        // ordering: Relaxed — monotonic bump; fetch_max is atomic, no ordering needed.
        self.next_row_id.fetch_max(row_id + 1, Ordering::Relaxed);
        Ok(())
    }

    /// Fetch a row image by id.
    pub fn get(&self, row_id: u64) -> Option<Vec<Value>> {
        self.data.read().rows.get(&row_id).cloned()
    }

    pub fn contains(&self, row_id: u64) -> bool {
        self.data.read().rows.contains_key(&row_id)
    }

    /// Replace the row image. Returns the old image.
    /// Fails on unique violation (the violating state is not applied).
    pub fn update(&self, row_id: u64, new_row: Vec<Value>) -> Result<Vec<Value>> {
        self.schema.check_row(&new_row)?;
        let mut d = self.data.write();
        let old = d
            .rows
            .get(&row_id)
            .cloned()
            .ok_or(StorageError::NoSuchRow(row_id))?;
        for idx in &self.schema.indexes {
            if idx.unique {
                let new_key = self.schema.index_key(idx, &new_row);
                let old_key = self.schema.index_key(idx, &old);
                if new_key != old_key
                    && d.indexes[&idx.name]
                        .get(&new_key)
                        .is_some_and(|s| !s.is_empty())
                {
                    return Err(StorageError::UniqueViolation {
                        table: self.schema.name.clone(),
                        index: idx.name.clone(),
                    });
                }
            }
        }
        for idx in &self.schema.indexes {
            let old_key = self.schema.index_key(idx, &old);
            let new_key = self.schema.index_key(idx, &new_row);
            if old_key != new_key {
                let map = d.indexes.get_mut(&idx.name).unwrap();
                if let Some(set) = map.get_mut(&old_key) {
                    set.remove(&row_id);
                    if set.is_empty() {
                        map.remove(&old_key);
                    }
                }
                map.entry(new_key).or_default().insert(row_id);
            }
        }
        d.rows.insert(row_id, new_row);
        Ok(old)
    }

    /// Remove a row. Returns the old image.
    pub fn delete(&self, row_id: u64) -> Result<Vec<Value>> {
        let mut d = self.data.write();
        let old = d
            .rows
            .remove(&row_id)
            .ok_or(StorageError::NoSuchRow(row_id))?;
        for idx in &self.schema.indexes {
            let key = self.schema.index_key(idx, &old);
            let map = d.indexes.get_mut(&idx.name).unwrap();
            if let Some(set) = map.get_mut(&key) {
                set.remove(&row_id);
                if set.is_empty() {
                    map.remove(&key);
                }
            }
        }
        Ok(old)
    }

    /// Row ids matching an exact index key.
    pub fn index_get(&self, index: &str, key: &[Value]) -> Result<Vec<u64>> {
        let d = self.data.read();
        let map = d
            .indexes
            .get(index)
            .ok_or_else(|| StorageError::NoSuchIndex(index.into()))?;
        Ok(map
            .get(key)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default())
    }

    /// Row ids whose index key lies in `[lo, hi]` (inclusive bounds; `None`
    /// means unbounded on that side). Returned in key order.
    pub fn index_range(
        &self,
        index: &str,
        lo: Option<&[Value]>,
        hi: Option<&[Value]>,
    ) -> Result<Vec<u64>> {
        let d = self.data.read();
        let map = d
            .indexes
            .get(index)
            .ok_or_else(|| StorageError::NoSuchIndex(index.into()))?;
        let lo_b = lo.map_or(Bound::Unbounded, |k| Bound::Included(k.to_vec()));
        let hi_b = hi.map_or(Bound::Unbounded, |k| Bound::Included(k.to_vec()));
        let mut out = Vec::new();
        for (_, ids) in map.range((lo_b, hi_b)) {
            out.extend(ids.iter().copied());
        }
        Ok(out)
    }

    /// Snapshot of all `(row_id, row)` pairs in row-id order.
    pub fn scan(&self) -> Vec<(u64, Vec<Value>)> {
        self.data
            .read()
            .rows
            .iter()
            .map(|(&id, r)| (id, r.clone()))
            .collect()
    }

    pub fn row_count(&self) -> usize {
        self.data.read().rows.len()
    }

    /// Logical size in pages (for buffer-pool accounting and SLA sizing).
    pub fn page_count(&self) -> u64 {
        let d = self.data.read();
        match d.rows.keys().next_back() {
            Some(&max) => crate::buffer::page_of_row(max) + 1,
            None => 0,
        }
    }
}

impl std::fmt::Debug for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Table")
            .field("id", &self.id)
            .field("name", &self.schema.name)
            .field("rows", &self.row_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnDef;
    use crate::value::DataType;

    fn items() -> Table {
        let schema = TableSchema::new(
            "items",
            vec![
                ColumnDef::new("id", DataType::Int).not_null(),
                ColumnDef::new("title", DataType::Text),
                ColumnDef::new("stock", DataType::Int),
            ],
        )
        .with_primary_key(&["id"])
        .with_index("by_title", &["title"], false);
        Table::new(1, schema)
    }

    fn row(id: i64, title: &str, stock: i64) -> Vec<Value> {
        vec![Value::Int(id), Value::Text(title.into()), Value::Int(stock)]
    }

    #[test]
    fn insert_get_roundtrip() {
        let t = items();
        let rid = t.reserve_row_id();
        t.insert_with_id(rid, row(1, "book", 10)).unwrap();
        assert_eq!(t.get(rid).unwrap()[1], Value::Text("book".into()));
        assert_eq!(t.row_count(), 1);
    }

    #[test]
    fn unique_index_enforced() {
        let t = items();
        t.insert_with_id(t.reserve_row_id(), row(1, "a", 1))
            .unwrap();
        let err = t
            .insert_with_id(t.reserve_row_id(), row(1, "b", 2))
            .unwrap_err();
        assert!(matches!(err, StorageError::UniqueViolation { .. }));
        assert_eq!(t.row_count(), 1, "failed insert must not leave residue");
    }

    #[test]
    fn non_unique_index_allows_duplicates() {
        let t = items();
        t.insert_with_id(t.reserve_row_id(), row(1, "same", 1))
            .unwrap();
        t.insert_with_id(t.reserve_row_id(), row(2, "same", 2))
            .unwrap();
        let ids = t
            .index_get("by_title", &[Value::Text("same".into())])
            .unwrap();
        assert_eq!(ids.len(), 2);
    }

    #[test]
    fn update_maintains_indexes() {
        let t = items();
        let rid = t.reserve_row_id();
        t.insert_with_id(rid, row(1, "old", 1)).unwrap();
        let old = t.update(rid, row(1, "new", 1)).unwrap();
        assert_eq!(old[1], Value::Text("old".into()));
        assert!(t
            .index_get("by_title", &[Value::Text("old".into())])
            .unwrap()
            .is_empty());
        assert_eq!(
            t.index_get("by_title", &[Value::Text("new".into())])
                .unwrap(),
            vec![rid]
        );
    }

    #[test]
    fn update_unique_violation_is_clean() {
        let t = items();
        let r1 = t.reserve_row_id();
        let r2 = t.reserve_row_id();
        t.insert_with_id(r1, row(1, "a", 1)).unwrap();
        t.insert_with_id(r2, row(2, "b", 2)).unwrap();
        let err = t.update(r2, row(1, "b2", 2)).unwrap_err();
        assert!(matches!(err, StorageError::UniqueViolation { .. }));
        // Row 2 unchanged.
        assert_eq!(t.get(r2).unwrap()[0], Value::Int(2));
        assert_eq!(t.index_get("pk", &[Value::Int(2)]).unwrap(), vec![r2]);
    }

    #[test]
    fn same_key_update_does_not_violate_own_uniqueness() {
        let t = items();
        let rid = t.reserve_row_id();
        t.insert_with_id(rid, row(1, "a", 1)).unwrap();
        // Keep pk, change stock: must succeed.
        t.update(rid, row(1, "a", 99)).unwrap();
        assert_eq!(t.get(rid).unwrap()[2], Value::Int(99));
    }

    #[test]
    fn delete_cleans_indexes() {
        let t = items();
        let rid = t.reserve_row_id();
        t.insert_with_id(rid, row(1, "x", 1)).unwrap();
        t.delete(rid).unwrap();
        assert!(t.get(rid).is_none());
        assert!(t.index_get("pk", &[Value::Int(1)]).unwrap().is_empty());
        // The id can be reused by a fresh insert (restore path).
        t.insert_with_id(rid, row(1, "x", 1)).unwrap();
    }

    #[test]
    fn index_range_scan() {
        let t = items();
        for i in 0..10 {
            t.insert_with_id(t.reserve_row_id(), row(i, &format!("t{i}"), i))
                .unwrap();
        }
        let ids = t
            .index_range("pk", Some(&[Value::Int(3)]), Some(&[Value::Int(6)]))
            .unwrap();
        assert_eq!(ids.len(), 4);
        let open = t.index_range("pk", Some(&[Value::Int(8)]), None).unwrap();
        assert_eq!(open.len(), 2);
    }

    #[test]
    fn scan_in_row_id_order() {
        let t = items();
        for i in 0..5 {
            t.insert_with_id(t.reserve_row_id(), row(i, "x", 0))
                .unwrap();
        }
        let scanned = t.scan();
        let ids: Vec<u64> = scanned.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn page_count_tracks_max_row() {
        let t = items();
        assert_eq!(t.page_count(), 0);
        t.insert_with_id(0, row(0, "a", 0)).unwrap();
        assert_eq!(t.page_count(), 1);
        t.insert_with_id(crate::buffer::ROWS_PER_PAGE, row(1, "b", 0))
            .unwrap();
        assert_eq!(t.page_count(), 2);
    }

    #[test]
    fn restore_advances_id_allocator() {
        let t = items();
        t.insert_with_id(41, row(1, "a", 0)).unwrap();
        assert!(t.reserve_row_id() >= 42);
    }

    #[test]
    fn missing_row_and_index_errors() {
        let t = items();
        assert!(matches!(
            t.update(9, row(1, "a", 0)).unwrap_err(),
            StorageError::NoSuchRow(9)
        ));
        assert!(matches!(
            t.delete(9).unwrap_err(),
            StorageError::NoSuchRow(9)
        ));
        assert!(matches!(
            t.index_get("nope", &[]).unwrap_err(),
            StorageError::NoSuchIndex(_)
        ));
    }
}
