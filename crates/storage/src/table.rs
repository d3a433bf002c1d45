//! Physical table storage: a row heap plus secondary indexes.
//!
//! `Table` is a *passive* container — it performs no locking or logging
//! itself. The [`crate::engine::Engine`] is responsible for acquiring 2PL
//! locks, charging buffer-pool costs, and writing WAL records before calling
//! into a table. Methods that must be atomic (e.g. unique-check-then-insert)
//! take the internal structure lock for their whole duration.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};
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
    /// One map per index, in schema order (an index is addressed by its
    /// ordinal in `schema.indexes`).
    indexes: Vec<IndexMap>,
}

/// A stored table.
pub struct Table {
    /// Global table id (assigned by the engine); used for lock resources and
    /// buffer-pool page keys.
    pub id: u64,
    pub schema: TableSchema,
    /// `shape[n]` fingerprints the columns plus the first `n` indexes (see
    /// [`Table::shape_at`]).
    shape: Vec<u64>,
    data: RwLock<TableData>,
    next_row_id: AtomicU64,
}

/// Fingerprint chain over a schema: entry `n` covers the column list and the
/// definitions of the first `n` indexes.
fn shape_of(schema: &TableSchema) -> Vec<u64> {
    let mut h = DefaultHasher::new();
    for c in &schema.columns {
        (&c.name, c.ty, c.nullable).hash(&mut h);
    }
    let mut shape = vec![h.finish()];
    for idx in &schema.indexes {
        (&idx.name, &idx.columns, idx.unique).hash(&mut h);
        shape.push(h.finish());
    }
    shape
}

impl Table {
    pub fn new(id: u64, schema: TableSchema) -> Self {
        let indexes = schema.indexes.iter().map(|_| IndexMap::new()).collect();
        Table {
            id,
            shape: shape_of(&schema),
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

    /// Fingerprint of everything a statement bound against this table while
    /// it had `indexes` indexes depends on: the column list and those index
    /// definitions. Tables only ever gain indexes, so the value is stable
    /// for the life of the table; it differs (or is `None`) for a table
    /// re-created under the same name with another shape.
    pub fn shape_at(&self, indexes: usize) -> Option<u64> {
        self.shape.get(indexes).copied()
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
        for (ord, idx) in self.schema.indexes.iter().enumerate() {
            if idx.unique {
                let key = self.schema.index_key(idx, &row);
                if d.indexes[ord].get(&key).is_some_and(|s| !s.is_empty()) {
                    return Err(StorageError::UniqueViolation {
                        table: self.schema.name.clone(),
                        index: idx.name.clone(),
                    });
                }
            }
        }
        for (ord, idx) in self.schema.indexes.iter().enumerate() {
            let key = self.schema.index_key(idx, &row);
            d.indexes[ord].entry(key).or_default().insert(row_id);
        }
        d.rows.insert(row_id, row);
        // Keep the id allocator ahead of explicitly supplied ids (restore path).
        // ordering: Relaxed — monotonic bump; fetch_max is atomic, no ordering needed.
        self.next_row_id.fetch_max(row_id + 1, Ordering::Relaxed);
        Ok(())
    }

    /// Fetch a row image by id.
    pub fn get(&self, row_id: u64) -> Option<Vec<Value>> {
        self.with_row(row_id, |row| row.to_vec())
    }

    /// Run `f` over the row image in place (under the table's structure
    /// lock, so `f` must not call back into this table).
    pub fn with_row<R>(&self, row_id: u64, f: impl FnOnce(&[Value]) -> R) -> Option<R> {
        self.data.read().rows.get(&row_id).map(|row| f(row))
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
        for (ord, idx) in self.schema.indexes.iter().enumerate() {
            if idx.unique {
                let new_key = self.schema.index_key(idx, &new_row);
                let old_key = self.schema.index_key(idx, &old);
                if new_key != old_key && d.indexes[ord].get(&new_key).is_some_and(|s| !s.is_empty())
                {
                    return Err(StorageError::UniqueViolation {
                        table: self.schema.name.clone(),
                        index: idx.name.clone(),
                    });
                }
            }
        }
        for (ord, idx) in self.schema.indexes.iter().enumerate() {
            let old_key = self.schema.index_key(idx, &old);
            let new_key = self.schema.index_key(idx, &new_row);
            if old_key != new_key {
                let map = &mut d.indexes[ord];
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
        for (ord, idx) in self.schema.indexes.iter().enumerate() {
            let key = self.schema.index_key(idx, &old);
            let map = &mut d.indexes[ord];
            if let Some(set) = map.get_mut(&key) {
                set.remove(&row_id);
                if set.is_empty() {
                    map.remove(&key);
                }
            }
        }
        Ok(old)
    }

    /// Ordinal of a named index (its position in `schema.indexes`).
    pub fn index_ordinal(&self, index: &str) -> Result<usize> {
        self.schema
            .indexes
            .iter()
            .position(|i| i.name == index)
            .ok_or_else(|| StorageError::NoSuchIndex(index.into()))
    }

    /// Row ids matching an exact key of the index at ordinal `index`.
    pub fn index_get(&self, index: usize, key: &[Value]) -> Result<Vec<u64>> {
        let d = self.data.read();
        let map = d
            .indexes
            .get(index)
            .ok_or_else(|| StorageError::NoSuchIndex(format!("#{index}")))?;
        Ok(map
            .get(key)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default())
    }

    /// Row ids whose index key lies in `[lo, hi]` (inclusive bounds; `None`
    /// means unbounded on that side). Returned in key order.
    pub fn index_range(
        &self,
        index: usize,
        lo: Option<&[Value]>,
        hi: Option<&[Value]>,
    ) -> Result<Vec<u64>> {
        let d = self.data.read();
        let map = d
            .indexes
            .get(index)
            .ok_or_else(|| StorageError::NoSuchIndex(format!("#{index}")))?;
        // An inverted range is empty (`BTreeMap::range` would panic on it).
        if let (Some(lo), Some(hi)) = (lo, hi) {
            if lo > hi {
                return Ok(Vec::new());
            }
        }
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
        let mut out = Vec::new();
        let _ = self.try_for_each(|id, row| {
            out.push((id, row.to_vec()));
            Ok::<(), std::convert::Infallible>(())
        });
        out
    }

    /// Visit every row in row-id order, in place (under the table's
    /// structure lock, so `f` must not call back into this table); stops at
    /// the first error.
    pub fn try_for_each<E>(
        &self,
        mut f: impl FnMut(u64, &[Value]) -> std::result::Result<(), E>,
    ) -> std::result::Result<(), E> {
        self.data
            .read()
            .rows
            .iter()
            .try_for_each(|(&id, row)| f(id, row))
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

    /// Index ordinals of `items()`.
    const PK: usize = 0;
    const BY_TITLE: usize = 1;

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
            .index_get(BY_TITLE, &[Value::Text("same".into())])
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
            .index_get(BY_TITLE, &[Value::Text("old".into())])
            .unwrap()
            .is_empty());
        assert_eq!(
            t.index_get(BY_TITLE, &[Value::Text("new".into())]).unwrap(),
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
        assert_eq!(t.index_get(PK, &[Value::Int(2)]).unwrap(), vec![r2]);
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
        assert!(t.index_get(PK, &[Value::Int(1)]).unwrap().is_empty());
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
            .index_range(PK, Some(&[Value::Int(3)]), Some(&[Value::Int(6)]))
            .unwrap();
        assert_eq!(ids.len(), 4);
        let open = t.index_range(PK, Some(&[Value::Int(8)]), None).unwrap();
        assert_eq!(open.len(), 2);
        let inverted = t.index_range(PK, Some(&[Value::Int(6)]), Some(&[Value::Int(3)]));
        assert!(inverted.unwrap().is_empty());
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
    fn shape_is_stable_under_new_indexes_and_tells_schemas_apart() {
        let t = items();
        let shape = t.shape_at(2).expect("two indexes");
        assert!(t.shape_at(3).is_none());
        // One more index: every earlier shape stands.
        let mut grown = t.schema.clone();
        grown
            .try_add_index("by_stock", &["stock".to_string()], false)
            .unwrap();
        let grown = Table::new(9, grown);
        assert_eq!(grown.shape_at(2), Some(shape));
        assert_eq!(grown.shape_at(0), t.shape_at(0));
        // Other columns, or the same columns under other indexes: another.
        let mut cols = t.schema.columns.clone();
        cols.swap(1, 2);
        let reordered = Table::new(1, TableSchema::new("items", cols).with_primary_key(&["id"]));
        assert_ne!(reordered.shape_at(0), t.shape_at(0));
        let reindexed = TableSchema::new("items", t.schema.columns.clone())
            .with_primary_key(&["id"])
            .with_index("by_title", &["stock"], false);
        let reindexed = Table::new(1, reindexed);
        assert_eq!(reindexed.shape_at(1), t.shape_at(1));
        assert_ne!(reindexed.shape_at(2), Some(shape));
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
            t.index_ordinal("nope").unwrap_err(),
            StorageError::NoSuchIndex(_)
        ));
        assert!(matches!(
            t.index_get(9, &[]).unwrap_err(),
            StorageError::NoSuchIndex(_)
        ));
    }
}
