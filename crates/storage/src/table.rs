//! Physical table storage: a row heap plus secondary indexes.
//!
//! `Table` is a *passive* container — it performs no locking or logging
//! itself. The [`crate::engine::Engine`] is responsible for acquiring 2PL
//! locks, charging buffer-pool costs, and writing WAL records before calling
//! into a table. Methods that must be atomic (e.g. unique-check-then-insert)
//! take the internal structure lock for their whole duration.

use std::borrow::Borrow;
use std::cmp::Ordering as Cmp;
use std::collections::btree_map;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, ControlFlow};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::sync::{RwLock, TABLE_DATA};

use crate::error::{Result, StorageError};
use crate::schema::TableSchema;
use crate::value::Value;

/// Which way an index is walked, in entry order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    Forward,
    Backward,
}

/// One index entry: the values of the index's key columns, then — unless
/// the index is unique — of the primary-key columns (the row id where the
/// table has no primary key). Entries are therefore unique, an equality
/// lookup is the range of entries that start with the key, and the rows
/// under one key come back in primary-key order: a function of the data,
/// identical on every replica, which row-id order is not.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Entry(Box<[Value]>);

/// An index: one flat ordered map from entry to row id.
type IndexMap = BTreeMap<Entry, u64>;

/// A position in entry order: an entry (`Equal`), or the edge just below
/// (`Less`) / above (`Greater`) every entry that starts with the values.
/// `dyn Pos` is what an [`IndexMap`] is ranged by, so that a key prefix can
/// bound a walk without a successor value having to exist.
trait Pos {
    fn pos(&self) -> (&[Value], Cmp);
}

impl Pos for Entry {
    fn pos(&self) -> (&[Value], Cmp) {
        (&self.0, Cmp::Equal)
    }
}

struct At<'a>(&'a [Value], Cmp);

impl Pos for At<'_> {
    fn pos(&self) -> (&[Value], Cmp) {
        (self.0, self.1)
    }
}

impl<'a> Borrow<dyn Pos + 'a> for Entry {
    fn borrow(&self) -> &(dyn Pos + 'a) {
        self
    }
}

impl Ord for dyn Pos + '_ {
    /// Lexicographic, like the derived order of [`Entry`] (which it must
    /// agree with), except that an edge sorts below or above everything it
    /// is a prefix of.
    fn cmp(&self, other: &Self) -> Cmp {
        let ((a, a_edge), (b, b_edge)) = (self.pos(), other.pos());
        if let Some(ord) = a.iter().zip(b).map(|(x, y)| x.cmp(y)).find(|o| o.is_ne()) {
            return ord;
        }
        match a.len().cmp(&b.len()) {
            Cmp::Less if a_edge.is_eq() => Cmp::Less,
            Cmp::Less => a_edge,
            Cmp::Greater if b_edge.is_eq() => Cmp::Greater,
            Cmp::Greater => b_edge.reverse(),
            Cmp::Equal => a_edge.cmp(&b_edge),
        }
    }
}

impl PartialOrd for dyn Pos + '_ {
    fn partial_cmp(&self, other: &Self) -> Option<Cmp> {
        Some(self.cmp(other))
    }
}

impl PartialEq for dyn Pos + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for dyn Pos + '_ {}

struct TableData {
    rows: BTreeMap<u64, Vec<Value>>,
    /// One map per index, in schema order (an index is addressed by its
    /// ordinal in `schema.indexes`).
    indexes: Vec<IndexMap>,
}

/// A cursor over the row heap for one index walk. An index's entries come
/// in key order, and a walk's row ids mostly run the same way (rows
/// inserted in key order, as order lines are under `by_order`), so the
/// cursor steps to the next row where a lookup would descend the heap's
/// tree from its root for every entry; it seeks afresh when the ids turn
/// back or jump further than [`Heap::STEPS`] rows ahead. Each step
/// prefetches the row it lands on, which the walk most likely fetches next.
struct Heap<'a> {
    rows: &'a BTreeMap<u64, Vec<Value>>,
    dir: Direction,
    /// The nearest row not yet passed, in walk order.
    next: Option<(u64, &'a [Value])>,
    /// The rows beyond `next`, at the end `dir` walks from.
    rest: btree_map::Range<'a, u64, Vec<Value>>,
    /// The last id fetched: the cursor lies just beyond it.
    last: Option<u64>,
}

impl<'a> Heap<'a> {
    /// Rows stepped over before a seek is the cheaper way on.
    const STEPS: usize = 8;

    fn new(rows: &'a BTreeMap<u64, Vec<Value>>, dir: Direction) -> Self {
        Heap {
            rows,
            dir,
            next: None,
            rest: rows.range(..0),
            last: None,
        }
    }

    /// Does `a` come before `b` in walk order?
    fn before(&self, a: u64, b: u64) -> bool {
        match self.dir {
            Direction::Forward => a < b,
            Direction::Backward => a > b,
        }
    }

    fn step(&mut self) {
        let row = match self.dir {
            Direction::Forward => self.rest.next(),
            Direction::Backward => self.rest.next_back(),
        };
        self.next = row.map(|(&id, row)| (id, row.as_slice()));
        if let Some((_, row)) = self.next {
            prefetch(row);
        }
    }

    fn seek(&mut self, id: u64) {
        self.rest = match self.dir {
            Direction::Forward => self.rows.range(id..),
            Direction::Backward => self.rows.range(..=id),
        };
        self.step();
    }

    /// The row `id`, if the heap holds it.
    fn fetch(&mut self, id: u64) -> Option<&'a [Value]> {
        match self.last {
            Some(last) if self.before(last, id) => {
                let mut steps = 0;
                while let Some((at, _)) = self.next {
                    if !self.before(at, id) {
                        break;
                    }
                    if steps == Self::STEPS {
                        self.seek(id);
                        break;
                    }
                    self.step();
                    steps += 1;
                }
            }
            _ => self.seek(id),
        }
        self.last = Some(id);
        match self.next {
            Some((at, row)) if at == id => {
                self.step();
                Some(row)
            }
            _ => None,
        }
    }
}

/// Start loading `row`'s first cache lines: the cursor's next row, asked
/// for ahead of its fetch so that its memory is on the way while the walk
/// works on the row in hand. A hint, and a no-op off x86-64 (and under
/// Miri, which has no cache to warm).
fn prefetch(row: &[Value]) {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        let start = row.as_ptr().cast::<i8>();
        for offset in (0..std::mem::size_of_val(row)).step_by(64).take(4) {
            // SAFETY: `_mm_prefetch` needs SSE, which every x86-64 CPU has,
            // and a prefetch reads nothing the program sees: it never faults,
            // whatever the address (here one inside `row`).
            unsafe { _mm_prefetch(start.wrapping_add(offset), _MM_HINT_T0) };
        }
    }
    #[cfg(not(all(target_arch = "x86_64", not(miri))))]
    let _ = row;
}

/// What the entries of one index are made of (see [`Entry`]).
struct EntryShape {
    /// Row columns, in entry order: the key columns, then the suffix.
    columns: Vec<usize>,
    /// The row id closes the entry (a non-unique index on a table without a
    /// primary key).
    row_id: bool,
}

/// A stored table.
pub struct Table {
    /// Global table id (assigned by the engine); used for lock resources and
    /// buffer-pool page keys.
    pub id: u64,
    pub schema: TableSchema,
    /// `schema.name`, shared with the undo and redo records of every write.
    pub name: Arc<str>,
    /// `shape[n]` fingerprints the columns plus the first `n` indexes (see
    /// [`Table::shape_at`]).
    shape: Vec<u64>,
    /// Per index, in schema order.
    entries: Vec<EntryShape>,
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
        let pk = schema.primary_key().map(|(_, pk)| pk);
        let entries: Vec<EntryShape> = schema
            .indexes
            .iter()
            .map(|idx| {
                let mut columns = idx.columns.clone();
                if !idx.unique {
                    columns.extend(pk.into_iter().flat_map(|pk| &pk.columns));
                }
                EntryShape {
                    columns,
                    row_id: !idx.unique && pk.is_none(),
                }
            })
            .collect();
        let indexes = schema.indexes.iter().map(|_| IndexMap::new()).collect();
        Table {
            id,
            shape: shape_of(&schema),
            name: schema.name.as_str().into(),
            schema,
            entries,
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

    /// The row columns the entries of the index at ordinal `index` are
    /// ordered by: its key columns, then — for a non-unique index — the
    /// primary-key columns. (A trailing row id is not a column.)
    pub fn entry_columns(&self, index: usize) -> &[usize] {
        &self.entries[index].columns
    }

    fn entry(&self, index: usize, row_id: u64, row: &[Value]) -> Entry {
        let shape = &self.entries[index];
        let values = shape.columns.iter().map(|&c| row[c].clone());
        let row_id = shape.row_id.then_some(Value::Int(row_id as i64));
        Entry(values.chain(row_id).collect())
    }

    fn unique_violation(&self, index: usize) -> StorageError {
        StorageError::UniqueViolation {
            table: self.schema.name.clone(),
            index: self.schema.indexes[index].name.clone(),
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
        let entries: Vec<Entry> = (0..self.entries.len())
            .map(|index| self.entry(index, row_id, &row))
            .collect();
        // An entry of a unique index is its key alone.
        if let Some(index) = (0..entries.len())
            .find(|&i| self.schema.indexes[i].unique && d.indexes[i].contains_key(&entries[i]))
        {
            return Err(self.unique_violation(index));
        }
        for (map, entry) in d.indexes.iter_mut().zip(entries) {
            map.insert(entry, row_id);
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
        let old = d.rows.get(&row_id).ok_or(StorageError::NoSuchRow(row_id))?;
        // The entries that move: `(index, old entry, new entry)`.
        let moved: Vec<(usize, Entry, Entry)> = (0..self.entries.len())
            .map(|i| {
                (
                    i,
                    self.entry(i, row_id, old),
                    self.entry(i, row_id, &new_row),
                )
            })
            .filter(|(_, old, new)| old != new)
            .collect();
        if let Some(&(index, ..)) = moved
            .iter()
            .find(|(i, _, new)| self.schema.indexes[*i].unique && d.indexes[*i].contains_key(new))
        {
            return Err(self.unique_violation(index));
        }
        for (index, old, new) in moved {
            d.indexes[index].remove(&old);
            d.indexes[index].insert(new, row_id);
        }
        Ok(d.rows
            .insert(row_id, new_row)
            .expect("the row was found above, under this lock"))
    }

    /// Remove a row. Returns the old image.
    pub fn delete(&self, row_id: u64) -> Result<Vec<Value>> {
        let mut d = self.data.write();
        let old = d
            .rows
            .remove(&row_id)
            .ok_or(StorageError::NoSuchRow(row_id))?;
        for (index, map) in d.indexes.iter_mut().enumerate() {
            map.remove(&self.entry(index, row_id, &old));
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

    /// Visit `(entry, row id)` of the index at ordinal `index`, in `dir`
    /// order, over the entries that start with a key in `[lo, hi]` (key
    /// prefixes, inclusive; `None` is unbounded on that side) and — when
    /// resuming a walk — lie beyond the entry `after`.
    fn walk<B>(
        &self,
        index: usize,
        (lo, hi): (Option<&[Value]>, Option<&[Value]>),
        dir: Direction,
        after: Option<&[Value]>,
        mut f: impl FnMut(&mut Heap<'_>, &Entry, u64) -> ControlFlow<B>,
    ) -> Result<ControlFlow<B>> {
        let d = self.data.read();
        let map = d
            .indexes
            .get(index)
            .ok_or_else(|| StorageError::NoSuchIndex(format!("#{index}")))?;
        let mut from = lo.map(|k| At(k, Cmp::Less));
        let mut to = hi.map(|k| At(k, Cmp::Greater));
        if let Some(entry) = after {
            let resume = match dir {
                Direction::Forward => &mut from,
                Direction::Backward => &mut to,
            };
            *resume = Some(At(entry, Cmp::Equal));
        }
        fn bound<'a>(at: &'a Option<At<'a>>) -> Bound<&'a (dyn Pos + 'a)> {
            match at {
                Some(at) => Bound::Excluded(at),
                None => Bound::Unbounded,
            }
        }
        // An inverted range is empty (`BTreeMap::range` would panic on it).
        if let (Some(from), Some(to)) = (&from, &to) {
            if (from as &dyn Pos) >= (to as &dyn Pos) {
                return Ok(ControlFlow::Continue(()));
            }
        }
        let mut entries = map.range::<dyn Pos, _>((bound(&from), bound(&to)));
        let mut heap = Heap::new(&d.rows, dir);
        let mut visit = |(entry, &row_id): (&Entry, &u64)| f(&mut heap, entry, row_id);
        Ok(match dir {
            Direction::Forward => entries.try_for_each(&mut visit),
            Direction::Backward => entries.rev().try_for_each(&mut visit),
        })
    }

    /// Visit, in place and in index order, the rows whose key in the index
    /// at ordinal `index` lies in `[lo, hi]` (as [`Table::index_page`]),
    /// reached through one heap cursor. `f` runs under the table's
    /// structure lock: it must not call back into this table.
    pub fn index_rows<B>(
        &self,
        index: usize,
        span: (Option<&[Value]>, Option<&[Value]>),
        dir: Direction,
        mut f: impl FnMut(u64, &[Value]) -> ControlFlow<B>,
    ) -> Result<ControlFlow<B>> {
        self.walk(index, span, dir, None, |heap, _, row_id| {
            match heap.fetch(row_id) {
                Some(row) => f(row_id, row),
                None => ControlFlow::Continue(()),
            }
        })
    }

    /// One page of an index walk: fills `page` with the next row ids, in
    /// `dir` order, of the entries that start with a key in `[lo, hi]` (key
    /// prefixes, inclusive; `None` is unbounded on that side — an equality
    /// lookup has `lo == hi`), beyond the entry `after` if one is given.
    /// Returns how many ids it wrote and, if the page filled up, the entry
    /// to resume after. The caller works on a page (locks rows, reads them)
    /// without holding the table's structure lock; whatever freezes the
    /// range's membership meanwhile is the caller's lock, not this table's.
    pub fn index_page(
        &self,
        index: usize,
        span: (Option<&[Value]>, Option<&[Value]>),
        dir: Direction,
        after: Option<&[Value]>,
        page: &mut [u64],
    ) -> Result<(usize, Option<Box<[Value]>>)> {
        let mut n = 0;
        let flow = self.walk(index, span, dir, after, |_, entry, row_id| {
            page[n] = row_id;
            n += 1;
            if n == page.len() {
                ControlFlow::Break(entry.0.clone())
            } else {
                ControlFlow::Continue(())
            }
        })?;
        Ok((n, flow.break_value()))
    }

    /// Snapshot of all `(row_id, row)` pairs in row-id order.
    pub fn scan(&self) -> Vec<(u64, Vec<Value>)> {
        let d = self.data.read();
        d.rows.iter().map(|(&id, row)| (id, row.clone())).collect()
    }

    /// Visit every row in row-id order, in place (under the table's
    /// structure lock, so `f` must not call back into this table), until
    /// `f` breaks.
    pub fn try_for_each<B>(
        &self,
        mut f: impl FnMut(u64, &[Value]) -> ControlFlow<B>,
    ) -> ControlFlow<B> {
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

    /// The row ids an index walk over `[lo, hi]` visits, in order.
    fn walk(
        t: &Table,
        index: usize,
        lo: Option<&[Value]>,
        hi: Option<&[Value]>,
        dir: Direction,
    ) -> Vec<u64> {
        let mut ids = Vec::new();
        let flow = t.index_rows(index, (lo, hi), dir, |id, _| {
            ids.push(id);
            ControlFlow::<()>::Continue(())
        });
        assert!(flow.unwrap().is_continue());
        ids
    }

    /// The row ids under one key, in entry order.
    fn under(t: &Table, index: usize, key: &[Value]) -> Vec<u64> {
        walk(t, index, Some(key), Some(key), Direction::Forward)
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
        let ids = under(&t, BY_TITLE, &[Value::Text("same".into())]);
        assert_eq!(ids.len(), 2);
    }

    #[test]
    fn update_maintains_indexes() {
        let t = items();
        let rid = t.reserve_row_id();
        t.insert_with_id(rid, row(1, "old", 1)).unwrap();
        let old = t.update(rid, row(1, "new", 1)).unwrap();
        assert_eq!(old[1], Value::Text("old".into()));
        assert!(under(&t, BY_TITLE, &[Value::Text("old".into())]).is_empty());
        assert_eq!(under(&t, BY_TITLE, &[Value::Text("new".into())]), vec![rid]);
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
        assert_eq!(under(&t, PK, &[Value::Int(2)]), vec![r2]);
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
        assert!(under(&t, PK, &[Value::Int(1)]).is_empty());
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
        let (three, six, eight) = ([Value::Int(3)], [Value::Int(6)], [Value::Int(8)]);
        let fwd = Direction::Forward;
        assert_eq!(walk(&t, PK, Some(&three), Some(&six), fwd), [3, 4, 5, 6]);
        assert_eq!(walk(&t, PK, Some(&eight), None, fwd), [8, 9]);
        assert_eq!(
            walk(&t, PK, None, Some(&three), Direction::Backward),
            [3, 2, 1, 0]
        );
        assert!(walk(&t, PK, Some(&six), Some(&three), fwd).is_empty());
    }

    /// Rows under one key of a non-unique index come back in primary-key
    /// order whatever their row ids, both ways, and page by page.
    #[test]
    fn entries_under_a_key_are_in_primary_key_order() {
        let t = items();
        // Row ids ascend while primary keys descend.
        for (rid, id) in [(0, 40), (1, 30), (2, 20), (3, 10)] {
            t.insert_with_id(rid, row(id, "same", 0)).unwrap();
        }
        t.insert_with_id(4, row(25, "other", 0)).unwrap();
        t.insert_with_id(5, row(26, "sam", 0)).unwrap();
        let key = [Value::Text("same".into())];
        assert_eq!(under(&t, BY_TITLE, &key), [3, 2, 1, 0]);
        assert_eq!(
            walk(&t, BY_TITLE, Some(&key), Some(&key), Direction::Backward),
            [0, 1, 2, 3]
        );
        // Pages of three, resumed after the entry the page ended on.
        for (dir, expected) in [
            (Direction::Forward, [3, 2, 1, 0]),
            (Direction::Backward, [0, 1, 2, 3]),
        ] {
            let span = (Some(&key[..]), Some(&key[..]));
            let mut page = [0; 3];
            let (n, more) = t.index_page(BY_TITLE, span, dir, None, &mut page).unwrap();
            assert_eq!((n, &page[..]), (3, &expected[..3]));
            let more = more.expect("a full page names its resume point");
            let (n, end) = t
                .index_page(BY_TITLE, span, dir, Some(&more), &mut page)
                .unwrap();
            assert_eq!((n, page[0], end), (1, expected[3], None));
        }
        // A primary-key update moves the entry under its (unchanged) key.
        t.update(3, row(50, "same", 0)).unwrap();
        assert_eq!(under(&t, BY_TITLE, &key), [2, 1, 0, 3]);
    }

    /// Without a primary key the row id closes the entry.
    #[test]
    fn entries_of_a_table_without_primary_key_end_on_the_row_id() {
        let schema = TableSchema::new("log", vec![ColumnDef::new("k", DataType::Int)]).with_index(
            "by_k",
            &["k"],
            false,
        );
        let t = Table::new(1, schema);
        for rid in [7, 3, 5] {
            t.insert_with_id(rid, vec![Value::Int(1)]).unwrap();
        }
        t.insert_with_id(4, vec![Value::Null]).unwrap();
        assert_eq!(under(&t, 0, &[Value::Int(1)]), [3, 5, 7]);
        assert_eq!(under(&t, 0, &[Value::Null]), [4]);
        t.delete(5).unwrap();
        assert_eq!(walk(&t, 0, None, None, Direction::Forward), [4, 3, 7]);
    }

    /// The heap cursor finds what a lookup per entry finds, whatever order
    /// the walk meets the row ids in: ascending with gaps both short and
    /// longer than the cursor steps, descending, scattered (as `by_subject`
    /// meets items), both ways, and past entries whose row is gone.
    #[test]
    fn the_heap_cursor_finds_what_a_lookup_finds() {
        let schema = TableSchema::new(
            "item",
            vec![
                ColumnDef::new("id", DataType::Int).not_null(),
                ColumnDef::new("subject", DataType::Int),
            ],
        )
        .with_primary_key(&["id"])
        .with_index("by_subject", &["subject"], false);
        let t = Table::new(1, schema);
        // Row ids ascend with the primary key, in runs with gaps of 1 to
        // 30; subjects scatter the ids.
        let mut rid = 0;
        for id in 0..300 {
            rid += [1, 1, 2, 1, 30, 1, 9][id % 7];
            let subject = (id * 7919 % 13) as i64;
            t.insert_with_id(rid, vec![Value::Int(id as i64), Value::Int(subject)])
                .unwrap();
        }
        // Entries whose row is gone (the engine never leaves one; the walk
        // must still step over them).
        let gone: Vec<u64> = t.data.read().rows.keys().copied().step_by(11).collect();
        for id in &gone {
            t.data.write().rows.remove(id);
        }
        let expected = |index: usize, lo: Option<&[Value]>, hi: Option<&[Value]>, dir| {
            let d = t.data.read();
            let mut ids: Vec<u64> = d.indexes[index]
                .iter()
                .filter(|(e, _)| lo.is_none_or(|k| e.0[..k.len()] >= *k))
                .filter(|(e, _)| hi.is_none_or(|k| e.0[..k.len()] <= *k))
                .map(|(_, &id)| id)
                .filter(|id| d.rows.contains_key(id))
                .collect();
            if dir == Direction::Backward {
                ids.reverse();
            }
            ids
        };
        let (two, nine) = (&[Value::Int(2)][..], &[Value::Int(9)][..]);
        let spans = [
            (None, None),
            (Some(two), Some(two)),
            (Some(two), Some(nine)),
            (Some(nine), None),
        ];
        let mut seen = 0;
        for index in [PK, 1] {
            for (lo, hi) in spans {
                for dir in [Direction::Forward, Direction::Backward] {
                    let want = expected(index, lo, hi, dir);
                    assert!(!want.is_empty());
                    assert_eq!(
                        walk(&t, index, lo, hi, dir),
                        want,
                        "{index} {lo:?} {hi:?} {dir:?}"
                    );
                    // Each row as the walk hands it over is the row stored.
                    let mut handed = Vec::new();
                    let flow = t.index_rows(index, (lo, hi), dir, |id, row| {
                        handed.push((id, row.to_vec()));
                        ControlFlow::<()>::Continue(())
                    });
                    assert!(flow.unwrap().is_continue());
                    for (id, row) in handed {
                        assert_eq!(t.get(id), Some(row));
                        seen += 1;
                    }
                }
            }
        }
        assert!(seen > 1000, "{seen}");
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
            t.index_page(9, (None, None), Direction::Forward, None, &mut [0])
                .unwrap_err(),
            StorageError::NoSuchIndex(_)
        ));
    }
}
