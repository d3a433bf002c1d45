//! The single-node database engine — the paper's "off-the-shelf single-node
//! DBMS" (MySQL in the original prototype), rebuilt from scratch.
//!
//! One [`Engine`] instance models one machine in a cluster: it hosts many
//! small databases, runs strict 2PL with deadlock detection, exposes the 2PC
//! participant API (`prepare` / `commit` / `abort`) that the cluster
//! controller coordinates, and charges buffer-pool costs so that cache
//! locality shows up in measured throughput.
//!
//! Fault injection: [`Engine::crash`] makes every subsequent call return
//! [`StorageError::Unavailable`] (what the controller observes when a machine
//! loses power); [`Engine::restart`] rebuilds committed state from the WAL
//! with a cold cache.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::sync::{Mutex, RwLock, RwLockReadGuard, ENGINE_CATALOG, ENGINE_IN_DOUBT, ENGINE_TABLES};

use crate::buffer::{page_of_row, BufferPool, CostModel, PageKey};
use crate::error::{Result, StorageError};
use crate::lock::{LockManager, LockMode, ResourceId};
use crate::schema::TableSchema;
use crate::table::{Direction, Table};
use crate::txn::{Finished, RowOp, TxnId, TxnManager, Undo};
use crate::value::Value;
use crate::wal::{LogRecord, Logs, Lsn, RedoOp, RowWrite, Wal, WalEntry};

/// Page-number offset separating index pages from data pages within a
/// table's page namespace.
const INDEX_PAGE_OFFSET: u64 = 1 << 40;
/// Minimum simulated index pages per index; the actual count grows with the
/// table (like a real B-tree's leaf level).
const MIN_INDEX_PAGES: u64 = 2;
/// Row ids an equality lookup takes from the index per visit to it: rows
/// are locked one page at a time, outside the table's structure lock, so a
/// walk that stops early has touched at most this many entries too many.
const LOOKUP_PAGE: usize = 32;

/// Engine construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Buffer pool capacity in pages.
    pub buffer_pages: usize,
    /// Cost charged per page hit/miss.
    pub cost: CostModel,
    /// Lock-wait budget before a transaction errors with `LockTimeout`.
    pub lock_timeout: Duration,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            buffer_pages: 4096,
            cost: CostModel::default_model(),
            lock_timeout: Duration::from_secs(5),
        }
    }
}

impl EngineConfig {
    /// A configuration for unit tests: free page costs, short lock timeout.
    pub fn for_tests() -> Self {
        EngineConfig {
            buffer_pages: 4096,
            cost: CostModel::free(),
            lock_timeout: Duration::from_secs(2),
        }
    }
}

/// A hosted database: a named collection of tables and its log.
#[derive(Debug)]
pub struct Database {
    pub name: Arc<str>,
    tables: RwLock<HashMap<String, Arc<Table>>>,
    pub(crate) log: Arc<Wal>,
    /// Set by the drop under `tables`' write lock: a change that resolved
    /// the database before is refused, so it never follows the drop in the
    /// log, where restart would replay it into a later incarnation.
    dropped: AtomicBool,
}

impl Database {
    fn new(name: &str, log: Arc<Wal>) -> Self {
        Database {
            name: name.into(),
            tables: RwLock::new(&ENGINE_TABLES, HashMap::new()),
            log,
            dropped: AtomicBool::new(false),
        }
    }

    /// Refuse a change once the database is dropped; called under `tables`.
    fn live(&self) -> Result<()> {
        // ordering: Relaxed — written and read under `tables`, which orders them.
        if self.dropped.load(Ordering::Relaxed) {
            return Err(StorageError::NoSuchDatabase(self.name.to_string()));
        }
        Ok(())
    }

    /// Append `op` to the log if `log`; called under `tables`, once the
    /// op's checks passed, so what is refused never reaches the log.
    fn log_redo(&self, op: &RedoOp, log: bool) {
        if log {
            self.log.append_redo(Wal::DDL_TXN, op);
        }
    }

    /// `tables` shared, for a live row write: held across the table op
    /// and its log append, so no write follows the drop in the log.
    /// Refused once the database is dropped.
    fn lock_for_row_write(&self) -> Result<RwLockReadGuard<'_, HashMap<String, Arc<Table>>>> {
        let tables = self.tables.read();
        self.live()?;
        Ok(tables)
    }

    pub fn table_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.tables.read().keys().cloned().collect();
        v.sort();
        v
    }

    /// Resolve one of this database's tables (see [`Engine::open_table`]).
    pub fn open_table(self: &Arc<Self>, table: &str) -> Result<TableHandle> {
        let table = self
            .tables
            .read()
            .get(table)
            .cloned()
            .ok_or_else(|| StorageError::NoSuchTable(table.to_string()))?;
        Ok(TableHandle {
            db: Arc::clone(self),
            table,
        })
    }
}

/// A table resolved by name once — the database (for its log and the table
/// lock a write is checked under) and the table object, which an undo
/// entry keeps — so that the engine calls of one statement pay no further
/// lookups.
#[derive(Debug, Clone)]
pub struct TableHandle {
    db: Arc<Database>,
    table: Arc<Table>,
}

impl TableHandle {
    /// The resolved table (schema, shape).
    pub fn table(&self) -> &Table {
        &self.table
    }
}

/// The single-node DBMS engine.
pub struct Engine {
    cfg: EngineConfig,
    databases: RwLock<HashMap<String, Arc<Database>>>,
    locks: LockManager,
    txns: TxnManager,
    buffer: BufferPool,
    logs: Logs,
    /// The log of each transaction the last [`Engine::in_doubt`] listed,
    /// so resolving one appends there without another pass over the logs.
    in_doubt: Mutex<HashMap<TxnId, Arc<Wal>>>,
    next_table_id: AtomicU64,
    failed: AtomicBool,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new(EngineConfig::default())
    }
}

impl Engine {
    pub fn new(cfg: EngineConfig) -> Self {
        Engine {
            cfg,
            databases: RwLock::new(&ENGINE_CATALOG, HashMap::new()),
            locks: LockManager::new(cfg.lock_timeout),
            txns: TxnManager::default(),
            buffer: BufferPool::new(cfg.buffer_pages, cfg.cost),
            logs: Logs::default(),
            in_doubt: Mutex::new(&ENGINE_IN_DOUBT, HashMap::new()),
            next_table_id: AtomicU64::new(1),
            failed: AtomicBool::new(false),
        }
    }

    fn check_up(&self) -> Result<()> {
        // ordering: Acquire — pairs with the Release stores in crash()/restart()
        // so a caller that sees `failed` also sees the wiped state behind it.
        if self.failed.load(Ordering::Acquire) {
            Err(StorageError::Unavailable)
        } else {
            Ok(())
        }
    }

    // ---------------------------------------------------------------- DDL
    //
    // Each DDL call runs an arm of `apply_redo`, the applier replication,
    // copy restore and restart run too: the arm checks, then logs under
    // the lock it applies under, so what it refuses never reaches the log.

    /// Create a database (auto-committed DDL).
    pub fn create_database(&self, name: &str) -> Result<()> {
        self.check_up()?;
        self.apply_redo(name, &RedoOp::CreateDatabase, true)
    }

    pub fn drop_database(&self, name: &str) -> Result<()> {
        self.check_up()?;
        self.apply_redo(name, &RedoOp::DropDatabase, true)
    }

    pub fn database_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.databases.read().keys().cloned().collect();
        v.sort();
        v
    }

    pub fn has_database(&self, name: &str) -> bool {
        self.databases.read().contains_key(name)
    }

    /// Create a table in a database (auto-committed DDL): the `CreateTable`
    /// arm of `Engine::apply_redo`.
    pub fn create_table(&self, db: &str, schema: TableSchema) -> Result<()> {
        self.check_up()?;
        let schema = Box::new(schema);
        self.apply_redo(db, &RedoOp::CreateTable { schema }, true)
    }

    /// Create a secondary index on a populated table (auto-committed DDL).
    ///
    /// Takes the table's exclusive lock, so no transaction's write to it is
    /// in flight (what a blocking `CREATE INDEX` does on the paper's MySQL 5
    /// substrate), then runs the `CreateIndex` arm of `Engine::apply_redo`,
    /// which rebuilds the table under its database's table lock.
    pub fn create_index(
        &self,
        db: &str,
        table: &str,
        index: &str,
        columns: &[String],
        unique: bool,
    ) -> Result<()> {
        self.check_up()?;
        let database = self.db(db)?;
        let id = database.open_table(table)?.table.id;
        let op = RedoOp::CreateIndex {
            table: table.into(),
            index: index.into(),
            columns: columns.into(),
            unique,
        };
        self.with_txn(|txn| {
            self.locks
                .acquire(txn, ResourceId::Table { table: id }, LockMode::X)?;
            self.apply_to(&database, &op, true)
        })
    }

    pub fn db(&self, name: &str) -> Result<Arc<Database>> {
        self.databases
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| StorageError::NoSuchDatabase(name.to_string()))
    }

    pub fn table(&self, db: &str, table: &str) -> Result<Arc<Table>> {
        Ok(self.open_table(db, table)?.table)
    }

    // ------------------------------------------------------- transactions

    pub fn begin(&self) -> Result<TxnId> {
        self.check_up()?;
        Ok(self.txns.begin())
    }

    /// 2PC vote: flush the prepare record to the log of the database the
    /// transaction touched (none if it touched nothing) and release read
    /// locks (the early-release optimization of §3.1).
    pub fn prepare(&self, txn: TxnId) -> Result<()> {
        self.check_up()?;
        if let Some(log) = self.txns.set_prepared(txn)? {
            log.append(txn, WalEntry::Prepare);
        }
        self.locks.release_read_locks(txn);
        Ok(())
    }

    /// Commit (legal from Active for one-phase, or Prepared for 2PC).
    pub fn commit(&self, txn: TxnId) -> Result<()> {
        self.check_up()?;
        // Nothing of a transaction that wrote nothing and never prepared is
        // in the log, so its outcome is not logged either; a logged
        // `Prepare` always gets its outcome record (restart must not find a
        // phantom in-doubt).
        if let Some(log) = self.txns.finish(txn)?.log {
            log.append(txn, WalEntry::Commit);
        }
        self.locks.release_all(txn);
        Ok(())
    }

    /// Abort: apply the undo log in reverse, then release all locks. Each
    /// entry goes to the table its write went to, through the row applier
    /// redo runs too (`Engine::apply_row`); no catalog lock is taken.
    /// Deliberately works even on a failed engine — the participant side of
    /// coordinator-driven cleanup.
    pub fn abort(&self, txn: TxnId) -> Result<()> {
        let Finished { undo, log } = self.txns.finish(txn)?;
        for Undo { table, row_id, op } in undo.into_iter().rev() {
            // We still hold X locks on everything the undo touches, and the
            // images restore previously valid states, so this cannot fail;
            // a failure here would indicate engine corruption.
            let _ = Self::apply_row(&table, row_id, op);
        }
        if let Some(log) = log {
            log.append(txn, WalEntry::Abort);
        }
        self.locks.release_all(txn);
        Ok(())
    }

    /// Run `f` inside a fresh transaction, committing on success and
    /// aborting on error.
    pub fn with_txn<T>(&self, f: impl FnOnce(TxnId) -> Result<T>) -> Result<T> {
        let txn = self.begin()?;
        match f(txn) {
            Ok(v) => {
                self.commit(txn)?;
                Ok(v)
            }
            Err(e) => {
                let _ = self.abort(txn);
                Err(e)
            }
        }
    }

    // -------------------------------------------------------------- DML
    //
    // Every operation has two spellings. The `*_in` / `*_with` methods take
    // a [`TableHandle`] (names resolved once, by the caller) and are what
    // the SQL executor runs on; the `&str` methods resolve the handle and
    // delegate, for callers that make one call per name.
    //
    // A write takes its lock-manager locks first, then its database's
    // table lock shared (`Database::lock_for_row_write`) across the table
    // op, the undo entry and the log append: it is refused once the
    // database is dropped, and no lock-manager wait happens under that
    // lock, so a drop queued for it stalls the database's other writers
    // only briefly.

    /// Resolve `db.table` to a handle the `*_in` / `*_with` operations take.
    /// Resolve per statement, not per session: `CREATE INDEX` swaps the
    /// table object under its exclusive table lock, and a handle taken
    /// before the swap must not outlive the first lock the statement takes
    /// on the table.
    pub fn open_table(&self, db: &str, table: &str) -> Result<TableHandle> {
        self.db(db)?.open_table(table)
    }

    /// Hash of one index key — the one hash behind both the key's lock
    /// resource and its simulated index page.
    fn key_hash(index: &str, key: &[Value]) -> u64 {
        let mut h = DefaultHasher::new();
        index.hash(&mut h);
        for v in key {
            v.hash(&mut h);
        }
        h.finish()
    }

    fn data_page(table_id: u64, row_id: u64) -> PageKey {
        PageKey {
            table: table_id,
            page_no: page_of_row(row_id),
        }
    }

    fn index_page(t: &Table, key_hash: u64) -> PageKey {
        // Index leaf level ~ a quarter of the data pages.
        let pages = (t.page_count() / 4).max(MIN_INDEX_PAGES);
        PageKey {
            table: t.id,
            page_no: INDEX_PAGE_OFFSET + key_hash % pages,
        }
    }

    /// The visitor behind the by-name reads: clone every row out.
    fn cloning_into(
        out: &mut Vec<(u64, Vec<Value>)>,
    ) -> impl FnMut(u64, &[Value]) -> Result<ControlFlow<()>> + '_ {
        |id, row| {
            out.push((id, row.to_vec()));
            Ok(ControlFlow::Continue(()))
        }
    }

    /// An engine-level visitor as a table-level one: an error ends the walk
    /// too, and is what the walk then breaks with.
    fn stepping<E>(
        mut visit: impl FnMut(u64, &[Value]) -> std::result::Result<ControlFlow<()>, E>,
    ) -> impl FnMut(u64, &[Value]) -> ControlFlow<std::result::Result<(), E>> {
        move |id, row| match visit(id, row) {
            Ok(ControlFlow::Continue(())) => ControlFlow::Continue(()),
            Ok(ControlFlow::Break(())) => ControlFlow::Break(Ok(())),
            Err(e) => ControlFlow::Break(Err(e)),
        }
    }

    /// How a walk over [`Engine::stepping`] ended.
    fn walked<E>(flow: ControlFlow<std::result::Result<(), E>>) -> std::result::Result<(), E> {
        match flow {
            ControlFlow::Break(Err(e)) => Err(e),
            ControlFlow::Break(Ok(())) | ControlFlow::Continue(()) => Ok(()),
        }
    }

    fn lock_table(&self, txn: TxnId, t: &Table, mode: LockMode) -> Result<()> {
        self.locks
            .acquire(txn, ResourceId::Table { table: t.id }, mode)
    }

    fn lock_row(&self, txn: TxnId, t: &Table, row: u64, mode: LockMode) -> Result<()> {
        self.locks
            .acquire(txn, ResourceId::Row { table: t.id, row }, mode)
    }

    fn lock_key(&self, txn: TxnId, t: &Table, hash: u64, mode: LockMode) -> Result<()> {
        self.locks
            .acquire(txn, ResourceId::Key { table: t.id, hash }, mode)
    }

    /// Swap the page cost model on a live engine (see `BufferPool::set_cost`).
    pub fn set_page_costs(&self, cost: CostModel) {
        self.buffer.set_cost(cost);
    }

    /// Insert a row; returns its row id.
    pub fn insert(&self, txn: TxnId, db: &str, table: &str, row: Vec<Value>) -> Result<u64> {
        self.check_up()?;
        self.insert_in(txn, &self.open_table(db, table)?, row)
    }

    /// [`Engine::insert`] through a resolved handle.
    pub fn insert_in(&self, txn: TxnId, h: &TableHandle, row: Vec<Value>) -> Result<u64> {
        self.check_up()?;
        self.txns.require_active(txn, &h.db.log)?;
        let t = &*h.table;
        t.schema.check_row(&row)?;
        self.lock_table(txn, t, LockMode::IX)?;
        let row_id = t.reserve_row_id();
        self.lock_row(txn, t, row_id, LockMode::X)?;
        // Lock every index key the row joins (phantom protection for
        // equality lookups on those keys).
        for idx in &t.schema.indexes {
            let hash = Self::key_hash(&idx.name, &t.schema.index_key(idx, &row));
            self.lock_key(txn, t, hash, LockMode::X)?;
            self.buffer.access(Self::index_page(t, hash));
        }
        self.buffer.access(Self::data_page(t.id, row_id));
        let _tables = h.db.lock_for_row_write()?;
        t.insert_with_id(row_id, row)?;
        self.push_undo(txn, h, row_id, RowOp::Delete)?;
        self.log_image(txn, h, row_id, |row| RowWrite::Insert(row));
        Ok(row_id)
    }

    /// Record that `txn`'s write of `row_id` through `h` is reversed by `op`.
    fn push_undo(&self, txn: TxnId, h: &TableHandle, row_id: u64, op: RowOp) -> Result<()> {
        let table = Arc::clone(&h.table);
        self.txns.push_undo(txn, Undo { table, row_id, op })
    }

    /// Log the image the table now holds for `row_id`, which `txn` just
    /// wrote and still holds the X lock of. The table takes a row before
    /// the log sees it, so a row the table refused (a unique violation)
    /// never reaches the log, and the log encodes from the table's copy.
    fn log_image(
        &self,
        txn: TxnId,
        h: &TableHandle,
        row_id: u64,
        write: fn(&[Value]) -> RowWrite<'_>,
    ) {
        h.table
            .with_row(row_id, |row| {
                h.db.log.append_row(txn, &h.table.name, row_id, write(row))
            })
            .expect("the row was written above and its X lock is still held");
    }

    /// Point read by row id. Returns `None` if the row does not exist (e.g.
    /// a concurrent insert that aborted after we found its id).
    pub fn read(
        &self,
        txn: TxnId,
        db: &str,
        table: &str,
        row_id: u64,
    ) -> Result<Option<Vec<Value>>> {
        self.check_up()?;
        let h = self.open_table(db, table)?;
        self.txns.require_active(txn, &h.db.log)?;
        let t = &*h.table;
        self.lock_table(txn, t, LockMode::IS)?;
        self.lock_row(txn, t, row_id, LockMode::S)?;
        self.buffer.access(Self::data_page(t.id, row_id));
        Ok(t.get(row_id))
    }

    /// Equality index lookup, rows in primary-key order. With `for_update`,
    /// matching rows are locked `X` up front (SELECT ... FOR UPDATE), which
    /// avoids upgrade deadlocks in read-modify-write transactions; otherwise
    /// rows are locked `S`.
    pub fn index_lookup(
        &self,
        txn: TxnId,
        db: &str,
        table: &str,
        index: &str,
        key: &[Value],
        for_update: bool,
    ) -> Result<Vec<(u64, Vec<Value>)>> {
        self.check_up()?;
        let h = self.open_table(db, table)?;
        let index = h.table.index_ordinal(index)?;
        let mut out = Vec::new();
        self.lookup_with(
            txn,
            &h,
            index,
            key,
            for_update,
            Direction::Forward,
            Self::cloning_into(&mut out),
        )?;
        Ok(out)
    }

    /// [`Engine::index_lookup`] through a resolved handle and an index
    /// ordinal, walking the rows under `key` in `dir` order of their index
    /// entries (primary-key order) and handing each to `visit` in place
    /// instead of cloning it out, until `visit` breaks. `visit` runs under
    /// the table's structure lock: it may evaluate and copy, not call back
    /// into the engine.
    ///
    /// The key `S` lock freezes which rows are under the key and in what
    /// order — inserts, deletes and key-changing updates under it take the
    /// key `X`, as does an update of the primary key of a row under it — so
    /// only the rows actually visited are row-locked, and a walk that
    /// stopped early finds the same rows when it is repeated.
    #[allow(clippy::too_many_arguments)]
    pub fn lookup_with<E: From<StorageError>>(
        &self,
        txn: TxnId,
        h: &TableHandle,
        index: usize,
        key: &[Value],
        for_update: bool,
        dir: Direction,
        mut visit: impl FnMut(u64, &[Value]) -> std::result::Result<ControlFlow<()>, E>,
    ) -> std::result::Result<(), E> {
        self.check_up()?;
        self.txns.require_active(txn, &h.db.log)?;
        let t = &*h.table;
        let def = t
            .schema
            .indexes
            .get(index)
            .ok_or_else(|| StorageError::NoSuchIndex(format!("#{index}")))?;
        let (table_mode, row_mode) = if for_update {
            (LockMode::IX, LockMode::X)
        } else {
            (LockMode::IS, LockMode::S)
        };
        self.lock_table(txn, t, table_mode)?;
        let hash = Self::key_hash(&def.name, key);
        self.lock_key(txn, t, hash, LockMode::S)?;
        self.buffer.access(Self::index_page(t, hash));
        let span = (Some(key), Some(key));
        let mut page = [0; LOOKUP_PAGE];
        let mut after: Option<Box<[Value]>> = None;
        'walk: loop {
            let (n, more) = t.index_page(index, span, dir, after.as_deref(), &mut page)?;
            for &id in &page[..n] {
                self.lock_row(txn, t, id, row_mode)?;
                self.buffer.access(Self::data_page(t.id, id));
                let flow = t.with_row(id, |row| visit(id, row)).transpose()?;
                if flow.is_some_and(|f| f.is_break()) {
                    break 'walk;
                }
            }
            if more.is_none() {
                break;
            }
            after = more;
        }
        Ok(())
    }

    /// Range scan over an index, in key order. Takes a full-table `S` lock
    /// (conservative phantom protection for range predicates).
    pub fn index_range(
        &self,
        txn: TxnId,
        db: &str,
        table: &str,
        index: &str,
        lo: Option<&[Value]>,
        hi: Option<&[Value]>,
    ) -> Result<Vec<(u64, Vec<Value>)>> {
        self.check_up()?;
        let h = self.open_table(db, table)?;
        let index = h.table.index_ordinal(index)?;
        let mut out = Vec::new();
        self.range_with(
            txn,
            &h,
            index,
            (lo, hi),
            Direction::Forward,
            Self::cloning_into(&mut out),
        )?;
        Ok(out)
    }

    /// [`Engine::index_range`] through a resolved handle and an index
    /// ordinal: the rows whose key lies in `[lo, hi]` (key prefixes,
    /// inclusive; `None` is unbounded — both `None` walks the whole index),
    /// in `dir` order of their index entries, until `visit` breaks; `visit`
    /// as in [`Engine::lookup_with`].
    pub fn range_with<E: From<StorageError>>(
        &self,
        txn: TxnId,
        h: &TableHandle,
        index: usize,
        span: (Option<&[Value]>, Option<&[Value]>),
        dir: Direction,
        visit: impl FnMut(u64, &[Value]) -> std::result::Result<ControlFlow<()>, E>,
    ) -> std::result::Result<(), E> {
        self.check_up()?;
        self.txns.require_active(txn, &h.db.log)?;
        let t = &*h.table;
        self.lock_table(txn, t, LockMode::S)?;
        let mut visit = Self::stepping(visit);
        let mut last_page = None;
        let flow = t.index_rows(index, span, dir, |id, row| {
            let page = Self::data_page(t.id, id);
            if last_page != Some(page) {
                self.buffer.access(page);
                last_page = Some(page);
            }
            visit(id, row)
        })?;
        Self::walked(flow)?;
        Ok(())
    }

    /// Full table scan under a table `S` lock.
    pub fn scan(&self, txn: TxnId, db: &str, table: &str) -> Result<Vec<(u64, Vec<Value>)>> {
        self.check_up()?;
        let h = self.open_table(db, table)?;
        // Sized up front: copy and check paths scan whole large tables, and
        // a vector doubled into place holds up to twice what it needs.
        let mut out = Vec::with_capacity(h.table.row_count());
        self.scan_with(txn, &h, Self::cloning_into(&mut out))?;
        Ok(out)
    }

    /// [`Engine::scan`] through a resolved handle, in row-id order until
    /// `visit` breaks; `visit` as in [`Engine::lookup_with`].
    pub fn scan_with<E: From<StorageError>>(
        &self,
        txn: TxnId,
        h: &TableHandle,
        visit: impl FnMut(u64, &[Value]) -> std::result::Result<ControlFlow<()>, E>,
    ) -> std::result::Result<(), E> {
        self.check_up()?;
        self.txns.require_active(txn, &h.db.log)?;
        let t = &*h.table;
        self.lock_table(txn, t, LockMode::S)?;
        let mut visit = Self::stepping(visit);
        let mut last_page = None;
        let flow = t.try_for_each(|id, row| {
            let page = Self::data_page(t.id, id);
            if last_page != Some(page) {
                self.buffer.access(page);
                last_page = Some(page);
            }
            visit(id, row)
        });
        Self::walked(flow)?;
        Ok(())
    }

    /// Update a row in place.
    pub fn update(
        &self,
        txn: TxnId,
        db: &str,
        table: &str,
        row_id: u64,
        new_row: Vec<Value>,
    ) -> Result<()> {
        self.check_up()?;
        self.update_in(txn, &self.open_table(db, table)?, row_id, new_row)
    }

    /// [`Engine::update`] through a resolved handle.
    pub fn update_in(
        &self,
        txn: TxnId,
        h: &TableHandle,
        row_id: u64,
        new_row: Vec<Value>,
    ) -> Result<()> {
        self.check_up()?;
        self.txns.require_active(txn, &h.db.log)?;
        let t = &*h.table;
        t.schema.check_row(&new_row)?;
        self.lock_table(txn, t, LockMode::IX)?;
        self.lock_row(txn, t, row_id, LockMode::X)?;
        let old = t.get(row_id).ok_or(StorageError::NoSuchRow(row_id))?;
        // Lock the key resources whose membership this update changes — and,
        // if the primary key changes, every key the row stays under: its
        // entry moves within that key, which an ordered walk that stopped
        // short of it must be able to count on not happening.
        let key_of = |idx, row: &[Value]| t.schema.index_key(idx, row);
        let pk_moves = t
            .schema
            .primary_key()
            .is_some_and(|(_, pk)| key_of(pk, &old) != key_of(pk, &new_row));
        for idx in &t.schema.indexes {
            let old_key = key_of(idx, &old);
            let new_key = key_of(idx, &new_row);
            let key_changes = old_key != new_key;
            if !key_changes && (idx.unique || !pk_moves) {
                continue;
            }
            if key_changes {
                self.lock_key(txn, t, Self::key_hash(&idx.name, &old_key), LockMode::X)?;
            }
            let new_hash = Self::key_hash(&idx.name, &new_key);
            self.lock_key(txn, t, new_hash, LockMode::X)?;
            self.buffer.access(Self::index_page(t, new_hash));
        }
        self.buffer.access(Self::data_page(t.id, row_id));
        let _tables = h.db.lock_for_row_write()?;
        t.update(row_id, new_row)?;
        self.push_undo(txn, h, row_id, RowOp::Update(old))?;
        self.log_image(txn, h, row_id, |row| RowWrite::Update(row));
        Ok(())
    }

    /// Delete a row.
    pub fn delete(&self, txn: TxnId, db: &str, table: &str, row_id: u64) -> Result<()> {
        self.check_up()?;
        self.delete_in(txn, &self.open_table(db, table)?, row_id)
    }

    /// [`Engine::delete`] through a resolved handle.
    pub fn delete_in(&self, txn: TxnId, h: &TableHandle, row_id: u64) -> Result<()> {
        self.check_up()?;
        self.txns.require_active(txn, &h.db.log)?;
        let t = &*h.table;
        self.lock_table(txn, t, LockMode::IX)?;
        self.lock_row(txn, t, row_id, LockMode::X)?;
        let old = t.get(row_id).ok_or(StorageError::NoSuchRow(row_id))?;
        for idx in &t.schema.indexes {
            let hash = Self::key_hash(&idx.name, &t.schema.index_key(idx, &old));
            self.lock_key(txn, t, hash, LockMode::X)?;
        }
        self.buffer.access(Self::data_page(t.id, row_id));
        let _tables = h.db.lock_for_row_write()?;
        t.delete(row_id)?;
        self.push_undo(txn, h, row_id, RowOp::Insert(old))?;
        h.db.log
            .append_row(txn, &h.table.name, row_id, RowWrite::Delete);
        Ok(())
    }

    // ------------------------------------------------------ fault injection

    /// Simulate a machine failure: every subsequent operation fails with
    /// `Unavailable`, all live transactions are aborted and their locks
    /// released (their effects will be discarded by `restart`).
    pub fn crash(&self) {
        // ordering: Release — pairs with the Acquire loads in check_up()/is_failed();
        // observers that see `failed` must not race the teardown below.
        self.failed.store(true, Ordering::Release);
        for txn in self.txns.live_txns() {
            // Volatile state is lost; skip undo (restart rebuilds from WAL),
            // but release locks so blocked threads fail fast.
            let _ = self.txns.finish(txn);
            self.locks.release_all(txn);
        }
    }

    /// Rebuild committed state from the logs, each on its own into the
    /// database its key names, and come back up with a cold cache. Returns
    /// the number of redo records replayed.
    pub fn restart(&self) -> usize {
        self.databases.write().clear();
        let mut replayed = 0;
        for (name, log) in self.logs.all() {
            let redo = log.committed_redo();
            // The incarnation the records apply to, resolved at each marker.
            let mut d = None;
            for op in &redo {
                // What live apply refused never reached the log, and what
                // it ignored (a repeated create, a missing row) is ignored.
                if let RedoOp::CreateDatabase | RedoOp::DropDatabase = op {
                    let _ = self.apply_redo(&name, op, false);
                    d = self.db(&name).ok();
                } else if let Some(d) = &d {
                    let _ = self.apply_to(d, op, false);
                }
            }
            replayed += redo.len();
        }
        self.in_doubt.lock().clear();
        self.buffer.clear();
        // ordering: Release — pairs with the Acquire loads in check_up()/is_failed();
        // publishes the catalog rebuilt above.
        self.failed.store(false, Ordering::Release);
        replayed
    }

    pub fn is_failed(&self) -> bool {
        // ordering: Acquire — pairs with the Release stores in crash()/restart().
        self.failed.load(Ordering::Acquire)
    }

    // ------------------------------------------------------------- stats

    pub fn buffer(&self) -> &BufferPool {
        &self.buffer
    }

    pub fn locks(&self) -> &LockManager {
        &self.locks
    }

    /// Every database's log.
    pub fn wal(&self) -> &Logs {
        &self.logs
    }

    // The wrappers below are the *stable* log surface for callers
    // outside this crate (the cluster controller's restart path and the
    // cross-colo shipper). `xtask lint` gates direct `.wal()` access from
    // other crates onto these, so the logs' internal layout can change
    // without touching their consumers.

    /// The LSN the next append to `db`'s log will receive (see
    /// [`Wal::head_lsn`]); [`Lsn::ZERO`] if `db` never had a log here.
    pub fn wal_head_lsn(&self, db: &str) -> Lsn {
        self.logs.get(db).map_or(Lsn::ZERO, |log| log.head_lsn())
    }

    /// Up to `max` retained records of `db`'s log with `lsn >= from` — the
    /// tailing cursor for log shipping (see [`Wal::tail_from_capped`]).
    pub fn wal_tail_from_capped(&self, db: &str, from: Lsn, max: usize) -> Vec<LogRecord> {
        self.logs
            .get(db)
            .map_or_else(Vec::new, |log| log.tail_from_capped(from, max))
    }

    /// Local transactions that prepared but never learned a 2PC outcome,
    /// over every database's log (see [`Wal::in_doubt`]), each read once.
    /// The coordinator resolves these after a restart against the
    /// replicated decision log.
    pub fn in_doubt(&self) -> Vec<TxnId> {
        let found: HashMap<TxnId, Arc<Wal>> = (self.logs.all().into_iter())
            .flat_map(|(_, log)| {
                log.in_doubt()
                    .into_iter()
                    .map(move |t| (t, Arc::clone(&log)))
            })
            .collect();
        let mut txns: Vec<TxnId> = found.keys().copied().collect();
        txns.sort();
        *self.in_doubt.lock() = found;
        txns
    }

    /// Log the 2PC outcome of a transaction the last [`Engine::in_doubt`]
    /// listed to the log that holds its `Prepare`, so the next
    /// [`Engine::restart`] replay applies it (`commit`) or leaves it out
    /// for good. Used while the engine is *down*: the outcome was reached
    /// by the replicated 2PC log, not by a live commit or abort here.
    pub fn resolve_in_doubt(&self, txn: TxnId, commit: bool) {
        use WalEntry::{Abort, Commit};
        let log = self.in_doubt.lock().remove(&txn);
        if let Some(log) = log {
            log.append(txn, if commit { Commit } else { Abort });
        }
    }

    /// Apply one replicated redo operation of database `db` — the write
    /// path of a standby's log stream and of a copy's restored rows.
    ///
    /// The caller feeds *decided* redo only, in the source's LSN order. The
    /// op is logged under [`Wal::DDL_TXN`], so a crash-restart replays it,
    /// and applied in place, bypassing locks, undo and 2PC: the source
    /// already serialized and decided the work. A repeated `CreateDatabase`,
    /// `CreateTable` or `CreateIndex` is ignored and logs nothing; any other
    /// op for a database not hosted here is refused with
    /// [`StorageError::NoSuchDatabase`] and logs nothing.
    pub fn apply_replicated_redo(&self, db: &str, op: &RedoOp) -> Result<()> {
        self.check_up()?;
        match self.apply_redo(db, op, true) {
            Err(StorageError::AlreadyExists(_)) => Ok(()),
            applied => applied,
        }
    }

    /// Apply one decided redo op of `db` — the one applier of a change to
    /// a database or a table: live DDL ([`Engine::create_database`],
    /// [`Engine::create_table`], [`Engine::create_index`]), replication
    /// ([`Engine::apply_replicated_redo`]) and crash replay
    /// ([`Engine::restart`]). With `log`, the op is appended under the lock
    /// it is applied under, once its checks passed: a repeated create is
    /// refused with [`StorageError::AlreadyExists`], and a bad index
    /// definition or a unique violation in the rebuild with its own error,
    /// before anything is logged. Only the markers take the catalog's write
    /// lock, so a `CreateDatabase` comes after the previous incarnation's
    /// records in the log. Replaying an op a second time right after the
    /// first changes nothing. That is all it promises: a re-seeded georep
    /// stream that replays another engine's log from LSN zero over state
    /// that is not a prefix of that log does not converge.
    fn apply_redo(&self, db: &str, op: &RedoOp, log: bool) -> Result<()> {
        match op {
            RedoOp::CreateDatabase => {
                let wal = self.logs.open(db);
                let mut dbs = self.databases.write();
                if dbs.contains_key(db) {
                    return Err(StorageError::AlreadyExists(db.to_string()));
                }
                dbs.insert(db.into(), Arc::new(Database::new(db, Arc::clone(&wal))));
                if log {
                    wal.append_redo(Wal::DDL_TXN, op);
                }
            }
            RedoOp::DropDatabase => {
                let mut dbs = self.databases.write();
                let d = dbs.remove(db);
                let d = d.ok_or_else(|| StorageError::NoSuchDatabase(db.to_string()))?;
                // Wait out changes in flight on its tables; refuse what is later.
                let _tables = d.tables.write();
                d.live()?;
                d.log_redo(op, log);
                // ordering: Relaxed — read under `tables`, whose write lock is held.
                d.dropped.store(true, Ordering::Relaxed);
            }
            op => return self.apply_to(&*self.db(db)?, op, log),
        }
        Ok(())
    }

    /// [`Engine::apply_redo`] of a table or row op to `d`, resolved by the
    /// caller. A row holds `d`'s table lock shared and table DDL holds it
    /// exclusively, so an index rebuild and a row write never interleave.
    /// A row op for a table `d` does not have, or one its table refuses
    /// (a missing row), is logged and ignored.
    fn apply_to(&self, d: &Database, op: &RedoOp, log: bool) -> Result<()> {
        let (table, row_id, write) = match op {
            RedoOp::CreateDatabase | RedoOp::DropDatabase => return Ok(()),
            RedoOp::CreateTable { schema } => {
                let mut tables = d.tables.write();
                d.live()?;
                if tables.contains_key(&schema.name) {
                    return Err(StorageError::AlreadyExists(schema.name.clone()));
                }
                d.log_redo(op, log);
                // ordering: Relaxed — id minting; uniqueness needs only atomicity.
                let id = self.next_table_id.fetch_add(1, Ordering::Relaxed);
                let table = Table::new(id, (**schema).clone());
                tables.insert(schema.name.clone(), Arc::new(table));
                return Ok(());
            }
            RedoOp::CreateIndex {
                table,
                index,
                columns,
                unique,
            } => {
                let mut tables = d.tables.write();
                d.live()?;
                let old = (tables.get(&**table))
                    .ok_or_else(|| StorageError::NoSuchTable(table.to_string()))?;
                let mut schema = old.schema.clone();
                schema.try_add_index(index, columns, *unique)?;
                let rebuilt = Table::new(old.id, schema);
                for (rid, row) in old.scan() {
                    rebuilt.insert_with_id(rid, row)?;
                }
                d.log_redo(op, log);
                tables.insert(table.to_string(), Arc::new(rebuilt));
                return Ok(());
            }
            RedoOp::Insert { table, row_id, row } => (table, row_id, RowOp::Insert(row.clone())),
            RedoOp::Update { table, row_id, row } => (table, row_id, RowOp::Update(row.clone())),
            RedoOp::Delete { table, row_id } => (table, row_id, RowOp::Delete),
        };
        let tables = d.tables.read();
        d.live()?;
        d.log_redo(op, log);
        if let Some(t) = tables.get(&**table) {
            let _ = Self::apply_row(t, *row_id, write);
        }
        Ok(())
    }

    /// Apply one row write to `t` — the one row applier: row redo runs it
    /// once [`Engine::apply_to`] resolved the record's table by name, and
    /// [`Engine::abort`] runs it with each undo entry, on the table that
    /// entry's write went to.
    fn apply_row(t: &Table, row_id: u64, op: RowOp) -> Result<()> {
        match op {
            RowOp::Insert(row) => t.insert_with_id(row_id, row),
            RowOp::Update(row) => t.update(row_id, row).map(drop),
            RowOp::Delete => t.delete(row_id).map(drop),
        }
    }

    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnDef;
    use crate::value::DataType;
    use std::thread;

    /// The `kv` table every test database has.
    fn kv_schema() -> TableSchema {
        TableSchema::new(
            "kv",
            vec![
                ColumnDef::new("k", DataType::Int).not_null(),
                ColumnDef::new("v", DataType::Text),
            ],
        )
        .with_primary_key(&["k"])
    }

    fn setup() -> Engine {
        setup_dbs(&["app"])
    }

    fn kv(k: i64, v: &str) -> Vec<Value> {
        vec![Value::Int(k), Value::Text(v.into())]
    }

    #[test]
    fn insert_read_commit() {
        let e = setup();
        let t = e.begin().unwrap();
        let rid = e.insert(t, "app", "kv", kv(1, "one")).unwrap();
        assert_eq!(
            e.read(t, "app", "kv", rid).unwrap().unwrap()[1],
            Value::Text("one".into())
        );
        e.commit(t).unwrap();
    }

    #[test]
    fn abort_undoes_everything() {
        let e = setup();
        // Committed baseline.
        let rid = e
            .with_txn(|t| e.insert(t, "app", "kv", kv(1, "one")))
            .unwrap();
        // Aborted txn: update + insert + delete all rolled back.
        let t = e.begin().unwrap();
        e.update(t, "app", "kv", rid, kv(1, "changed")).unwrap();
        e.insert(t, "app", "kv", kv(2, "two")).unwrap();
        e.delete(t, "app", "kv", rid).unwrap();
        e.abort(t).unwrap();
        let t2 = e.begin().unwrap();
        let rows = e.scan(t2, "app", "kv").unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].1, kv(1, "one"));
        e.commit(t2).unwrap();
    }

    #[test]
    fn index_lookup_finds_by_pk() {
        let e = setup();
        e.with_txn(|t| {
            e.insert(t, "app", "kv", kv(1, "a"))?;
            e.insert(t, "app", "kv", kv(2, "b"))?;
            Ok(())
        })
        .unwrap();
        let t = e.begin().unwrap();
        let hits = e
            .index_lookup(t, "app", "kv", "pk", &[Value::Int(2)], false)
            .unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].1[1], Value::Text("b".into()));
        e.commit(t).unwrap();
    }

    #[test]
    fn apply_replicated_redo_materializes_and_survives_restart() {
        let src = setup();
        let rid2 = src
            .with_txn(|t| {
                src.insert(t, "app", "kv", kv(1, "one"))?;
                src.insert(t, "app", "kv", kv(2, "two"))
            })
            .unwrap();
        src.with_txn(|t| src.delete(t, "app", "kv", rid2)).unwrap();

        // Replay the source's committed redo into a blank standby engine.
        let standby = Engine::new(EngineConfig::for_tests());
        for op in src.wal().get("app").unwrap().committed_redo() {
            standby.apply_replicated_redo("app", &op).unwrap();
        }
        let t = standby.begin().unwrap();
        let rows = standby.scan(t, "app", "kv").unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].1, kv(1, "one"));
        // The pk index came across with the CREATE TABLE.
        let hits = standby
            .index_lookup(t, "app", "kv", "pk", &[Value::Int(1)], false)
            .unwrap();
        assert_eq!(hits.len(), 1);
        standby.commit(t).unwrap();

        // Applied ops were logged, so a standby crash-restart keeps them.
        standby.crash();
        standby.restart();
        let t = standby.begin().unwrap();
        assert_eq!(standby.scan(t, "app", "kv").unwrap().len(), 1);
        standby.commit(t).unwrap();

        // Normal writes continue on the promoted standby (table ids and
        // row ids stay coherent after replicated replay).
        standby
            .with_txn(|t| standby.insert(t, "app", "kv", kv(3, "three")))
            .unwrap();
        let t = standby.begin().unwrap();
        assert_eq!(standby.scan(t, "app", "kv").unwrap().len(), 2);
        standby.commit(t).unwrap();
    }

    #[test]
    fn reshipped_create_table_keeps_rows_across_restart() {
        // A re-seeded georep stream replays from LSN zero, so the standby
        // logs the same CreateTable twice with rows in between.
        let src = setup();
        src.with_txn(|t| src.insert(t, "app", "kv", kv(1, "one")))
            .unwrap();
        let redo = src.wal().get("app").unwrap().committed_redo();
        let create_table = redo
            .iter()
            .find(|op| matches!(op, RedoOp::CreateTable { .. }))
            .expect("setup creates a table");

        let standby = Engine::new(EngineConfig::for_tests());
        for op in redo.iter().chain([create_table]) {
            standby.apply_replicated_redo("app", op).unwrap();
        }
        let scan = |e: &Engine| {
            let t = e.begin().unwrap();
            let rows = e.scan(t, "app", "kv").unwrap();
            e.commit(t).unwrap();
            rows
        };
        let before = scan(&standby);
        assert_eq!(before.len(), 1);

        standby.crash();
        standby.restart();
        assert_eq!(scan(&standby), before);
    }

    #[test]
    fn writes_block_readers_until_commit() {
        let e = Arc::new(setup());
        let rid = e
            .with_txn(|t| e.insert(t, "app", "kv", kv(1, "v1")))
            .unwrap();
        let writer = e.begin().unwrap();
        e.update(writer, "app", "kv", rid, kv(1, "v2")).unwrap();
        let e2 = Arc::clone(&e);
        let reader = thread::spawn(move || {
            let t = e2.begin().unwrap();
            let row = e2.read(t, "app", "kv", rid).unwrap().unwrap();
            e2.commit(t).unwrap();
            row
        });
        thread::sleep(Duration::from_millis(50));
        e.commit(writer).unwrap();
        let row = reader.join().unwrap();
        assert_eq!(
            row[1],
            Value::Text("v2".into()),
            "reader must see committed value"
        );
    }

    #[test]
    fn aborted_insert_invisible_to_index_lookup() {
        let e = Arc::new(setup());
        let t1 = e.begin().unwrap();
        e.insert(t1, "app", "kv", kv(7, "ghost")).unwrap();
        let e2 = Arc::clone(&e);
        let h = thread::spawn(move || {
            let t = e2.begin().unwrap();
            // Blocks on t1's key lock, then sees nothing after the abort.
            let hits = e2
                .index_lookup(t, "app", "kv", "pk", &[Value::Int(7)], false)
                .unwrap();
            e2.commit(t).unwrap();
            hits
        });
        thread::sleep(Duration::from_millis(50));
        e.abort(t1).unwrap();
        assert!(h.join().unwrap().is_empty());
    }

    #[test]
    fn phantom_protected_equality_lookup() {
        // A repeated equality lookup in one txn cannot observe a new row
        // (the S key lock blocks the inserter).
        let e = Arc::new(setup());
        let t1 = e.begin().unwrap();
        let first = e
            .index_lookup(t1, "app", "kv", "pk", &[Value::Int(5)], false)
            .unwrap();
        assert!(first.is_empty());
        let e2 = Arc::clone(&e);
        let inserter = thread::spawn(move || {
            e2.with_txn(|t| e2.insert(t, "app", "kv", kv(5, "new")))
                .unwrap();
        });
        thread::sleep(Duration::from_millis(50));
        let second = e
            .index_lookup(t1, "app", "kv", "pk", &[Value::Int(5)], false)
            .unwrap();
        assert_eq!(first.len(), second.len(), "no phantom within a transaction");
        e.commit(t1).unwrap();
        inserter.join().unwrap();
    }

    #[test]
    fn two_phase_commit_releases_read_locks_at_prepare() {
        let e = Arc::new(setup());
        let r1 = e
            .with_txn(|t| e.insert(t, "app", "kv", kv(1, "a")))
            .unwrap();
        let r2 = e
            .with_txn(|t| e.insert(t, "app", "kv", kv(2, "b")))
            .unwrap();
        let t1 = e.begin().unwrap();
        e.read(t1, "app", "kv", r1).unwrap(); // S lock on r1
        e.update(t1, "app", "kv", r2, kv(2, "b2")).unwrap(); // X lock on r2
        e.prepare(t1).unwrap();
        // Another txn can now write r1 (read lock released) ...
        let t2 = e.begin().unwrap();
        e.update(t2, "app", "kv", r1, kv(1, "a2")).unwrap();
        // ... but not read r2 (write lock held until commit).
        let e2 = Arc::clone(&e);
        let h = thread::spawn(move || {
            let t = e2.begin().unwrap();
            let v = e2.read(t, "app", "kv", r2).unwrap().unwrap();
            e2.commit(t).unwrap();
            v
        });
        thread::sleep(Duration::from_millis(50));
        e.commit(t1).unwrap();
        e.commit(t2).unwrap();
        assert_eq!(h.join().unwrap()[1], Value::Text("b2".into()));
    }

    #[test]
    fn no_writes_after_prepare() {
        let e = setup();
        let t = e.begin().unwrap();
        e.insert(t, "app", "kv", kv(1, "a")).unwrap();
        e.prepare(t).unwrap();
        assert!(matches!(
            e.insert(t, "app", "kv", kv(2, "b")).unwrap_err(),
            StorageError::InvalidTxnState { .. }
        ));
        e.commit(t).unwrap();
    }

    #[test]
    fn crash_makes_engine_unavailable() {
        let e = setup();
        e.crash();
        assert!(e.is_failed());
        assert_eq!(e.begin().unwrap_err(), StorageError::Unavailable);
    }

    #[test]
    fn restart_recovers_committed_state_only() {
        let e = setup();
        e.with_txn(|t| e.insert(t, "app", "kv", kv(1, "committed")))
            .unwrap();
        // In-flight txn at crash time: must disappear.
        let t = e.begin().unwrap();
        e.insert(t, "app", "kv", kv(2, "in-flight")).unwrap();
        e.crash();
        let replayed = e.restart();
        assert!(replayed >= 3); // create db + create table + one insert
        let t2 = e.begin().unwrap();
        let rows = e.scan(t2, "app", "kv").unwrap();
        e.commit(t2).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].1, kv(1, "committed"));
    }

    #[test]
    fn restart_preserves_updates_and_deletes() {
        let e = setup();
        let rid = e
            .with_txn(|t| e.insert(t, "app", "kv", kv(1, "v1")))
            .unwrap();
        e.with_txn(|t| e.update(t, "app", "kv", rid, kv(1, "v2")))
            .unwrap();
        let rid2 = e
            .with_txn(|t| e.insert(t, "app", "kv", kv(2, "gone")))
            .unwrap();
        e.with_txn(|t| e.delete(t, "app", "kv", rid2)).unwrap();
        e.crash();
        e.restart();
        let t = e.begin().unwrap();
        let rows = e.scan(t, "app", "kv").unwrap();
        e.commit(t).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].1, kv(1, "v2"));
    }

    /// The log encodes a row from the table's copy, so a row the table
    /// refused never reaches it.
    #[test]
    fn refused_rows_are_not_logged() {
        let e = setup();
        let rid = e
            .with_txn(|t| {
                e.insert(t, "app", "kv", kv(2, "two"))?;
                e.insert(t, "app", "kv", kv(1, "one"))
            })
            .unwrap();
        let before = e.wal().len();
        let t = e.begin().unwrap();
        let refused = |r: Result<()>| matches!(r, Err(StorageError::UniqueViolation { .. }));
        assert!(refused(e.insert(t, "app", "kv", kv(2, "dup")).map(drop)));
        assert!(refused(e.update(t, "app", "kv", rid, kv(2, "dup"))));
        assert_eq!(e.wal().len(), before);
        e.abort(t).unwrap();
        e.crash();
        e.restart();
        let t = e.begin().unwrap();
        assert_eq!(e.scan(t, "app", "kv").unwrap().len(), 2);
        e.commit(t).unwrap();
    }

    /// A transaction that wrote nothing and never prepared leaves nothing
    /// in the log; one that prepared always gets its outcome record, even
    /// with no writes. Replay over that thinner log rebuilds the same state
    /// and finds no live or in-doubt transaction.
    #[test]
    fn restart_after_read_only_one_phase_and_two_phase_mix() {
        let e = setup();
        let scan = |e: &Engine| {
            let t = e.begin().unwrap();
            let mut rows: Vec<Vec<Value>> = e
                .scan(t, "app", "kv")
                .unwrap()
                .into_iter()
                .map(|r| r.1)
                .collect();
            e.commit(t).unwrap();
            rows.sort_by_key(|r| r[0].clone());
            rows
        };
        // One-phase write.
        e.with_txn(|t| e.insert(t, "app", "kv", kv(1, "one-phase")))
            .unwrap();
        let before = e.wal().len();
        // Read-only, committed and aborted: no records at all.
        assert_eq!(scan(&e).len(), 1);
        let t = e.begin().unwrap();
        e.scan(t, "app", "kv").unwrap();
        e.abort(t).unwrap();
        assert_eq!(e.wal().len(), before, "read-only transactions log nothing");
        // Prepared, then committed.
        let t = e.begin().unwrap();
        e.insert(t, "app", "kv", kv(2, "two-phase")).unwrap();
        e.prepare(t).unwrap();
        e.commit(t).unwrap();
        // Prepared without a write (a participant that only read), then
        // aborted: the Prepare is logged, so its outcome must be too.
        let t = e.begin().unwrap();
        e.scan(t, "app", "kv").unwrap();
        e.prepare(t).unwrap();
        e.abort(t).unwrap();
        assert_eq!(
            e.wal().len(),
            before + 5,
            "redo + prepare + commit, prepare + abort"
        );
        // Written, then aborted: never replayed.
        let t = e.begin().unwrap();
        e.insert(t, "app", "kv", kv(3, "aborted")).unwrap();
        e.abort(t).unwrap();

        let state = scan(&e);
        assert_eq!(state, vec![kv(1, "one-phase"), kv(2, "two-phase")]);
        e.crash();
        e.restart();
        assert_eq!(scan(&e), state, "replay rebuilds the same state");
        assert!(e.in_doubt().is_empty(), "no phantom in-doubt transaction");
        assert!(e.txns.live_txns().is_empty(), "nothing left in the table");
    }

    /// An engine hosting `dbs`, each with the `kv` table of [`setup`].
    fn setup_dbs(dbs: &[&str]) -> Engine {
        let e = Engine::new(EngineConfig::for_tests());
        for db in dbs {
            e.create_database(db).unwrap();
            e.create_table(db, kv_schema()).unwrap();
        }
        e
    }

    /// Drop `db` and create it again, with an empty `kv`.
    fn recreate(e: &Engine, db: &str) {
        e.drop_database(db).unwrap();
        e.create_database(db).unwrap();
        e.create_table(db, kv_schema()).unwrap();
    }

    /// The names of `db.kv`'s indexes.
    fn indexes_of(e: &Engine, db: &str) -> Vec<String> {
        let kv = e.table(db, "kv").unwrap();
        kv.schema.indexes.iter().map(|i| i.name.clone()).collect()
    }

    /// `CREATE INDEX by_v ON kv (v)`, as a redo op.
    fn by_v() -> RedoOp {
        RedoOp::CreateIndex {
            table: "kv".into(),
            index: "by_v".into(),
            columns: ["v".to_string()].into(),
            unique: false,
        }
    }

    /// `db`'s rows, sorted.
    fn rows_of(e: &Engine, db: &str) -> Vec<Vec<Value>> {
        let mut rows: Vec<Vec<Value>> = e
            .with_txn(|t| e.scan(t, db, "kv"))
            .unwrap()
            .into_iter()
            .map(|r| r.1)
            .collect();
        rows.sort_by_key(|r| r[0].clone());
        rows
    }

    /// Records per database log.
    fn log_lens(e: &Engine, dbs: &[&str]) -> Vec<usize> {
        dbs.iter()
            .map(|db| e.wal().get(db).unwrap().len())
            .collect()
    }

    #[test]
    fn interleaved_databases_each_rebuild_from_their_own_log() {
        let dbs = ["a", "b", "c"];
        let e = setup_dbs(&dbs);
        let mut open = Vec::new();
        type Open = Vec<(TxnId, u64, &'static str)>;
        /// The transactions of `open` that touch `db`, taken out of it.
        fn take(open: &mut Open, db: &str) -> Open {
            let (taken, kept) = open.drain(..).partition(|o| o.2 == db);
            *open = kept;
            taken
        }
        for round in 0..12i64 {
            for (i, db) in dbs.iter().enumerate() {
                let t = e.begin().unwrap();
                let k = round * 10 + i as i64;
                // Values differ: an insert takes its `by_v` key's lock.
                let rid = e.insert(t, db, "kv", kv(k, &format!("v{k}"))).unwrap();
                if round % 3 == 1 {
                    let updated = kv(k, &format!("updated {k}"));
                    e.update(t, db, "kv", rid, updated).unwrap();
                }
                open.push((t, rid, *db));
            }
            // Finish in an order that interleaves the databases' records.
            while open.len() > 2 {
                let (t, rid, db) = open.remove(round as usize % open.len());
                match round % 4 {
                    0 => e.commit(t).unwrap(),
                    1 => e.abort(t).unwrap(),
                    2 => {
                        e.delete(t, db, "kv", rid).unwrap();
                        e.prepare(t).unwrap();
                        e.commit(t).unwrap();
                    }
                    _ => {
                        e.prepare(t).unwrap();
                        e.commit(t).unwrap();
                    }
                }
            }
            if round == 4 {
                // CREATE INDEX waits out the transactions open on its table.
                for (t, _, _) in take(&mut open, "c") {
                    e.commit(t).unwrap();
                }
                e.create_index("c", "kv", "by_v", &["v".into()], false)
                    .unwrap();
            }
            if round == 7 {
                // `b`'s open transactions outlive its drop; the new `b`
                // commits rows under the row ids they wrote, and their
                // abort leaves those rows alone.
                let t = e.begin().unwrap();
                e.insert(t, "b", "kv", kv(5_000, "old incarnation"))
                    .unwrap();
                let mut old = take(&mut open, "b");
                old.push((t, 0, "b"));
                recreate(&e, "b");
                e.with_txn(|t| {
                    (0..40).try_for_each(|k| e.insert(t, "b", "kv", kv(k, "new")).map(drop))
                })
                .unwrap();
                for (t, _, _) in old {
                    e.abort(t).unwrap();
                }
            }
        }
        for (t, _, _) in open {
            e.commit(t).unwrap();
        }
        let state = |e: &Engine| -> Vec<_> {
            let of = |db| (rows_of(e, db), indexes_of(e, db));
            dbs.iter().map(|db| of(db)).collect()
        };
        let before = state(&e);
        assert!(before.iter().all(|(rows, _)| !rows.is_empty()));
        assert_eq!(before[2].1, ["pk", "by_v"]);
        // Two transactions are still open at the crash: both vanish.
        for db in ["a", "c"] {
            let t = e.begin().unwrap();
            e.insert(t, db, "kv", kv(1_000, "in flight")).unwrap();
        }
        // A record names no database: each log opens with its database's
        // marker, and restart replays it into the database its key names.
        for db in dbs {
            let first = e.wal().get(db).unwrap().snapshot()[0].entry.clone();
            assert_eq!(first, WalEntry::Redo(RedoOp::CreateDatabase));
        }
        e.crash();
        e.restart();
        assert_eq!(state(&e), before);
        assert!(e.in_doubt().is_empty());
    }

    #[test]
    fn a_resolved_in_doubt_outcome_lands_in_its_database_only() {
        let dbs = ["a", "b"];
        let e = setup_dbs(&dbs);
        e.with_txn(|t| e.insert(t, "a", "kv", kv(1, "a"))).unwrap();
        // Four transactions, two per database, prepared when the engine dies.
        let prepared: Vec<(TxnId, &str)> = [("a", 2), ("b", 1), ("b", 2), ("a", 3)]
            .into_iter()
            .map(|(db, k)| {
                let t = e.begin().unwrap();
                e.insert(t, db, "kv", kv(k, "in doubt")).unwrap();
                e.prepare(t).unwrap();
                (t, db)
            })
            .collect();
        e.crash();
        let mut txns: Vec<TxnId> = prepared.iter().map(|&(t, _)| t).collect();
        txns.sort();
        assert_eq!(e.in_doubt(), txns);
        // Each outcome is one record, in its own database's log; the last
        // transaction aborts.
        for (i, &(t, db)) in prepared.iter().enumerate() {
            let lens = log_lens(&e, &dbs);
            e.resolve_in_doubt(t, i < 3);
            let grown = if db == "a" { [1, 0] } else { [0, 1] };
            assert_eq!(
                log_lens(&e, &dbs),
                vec![lens[0] + grown[0], lens[1] + grown[1]]
            );
        }
        // A transaction already resolved is not resolved twice.
        let lens = log_lens(&e, &dbs);
        e.resolve_in_doubt(prepared[0].0, false);
        assert_eq!(log_lens(&e, &dbs), lens);
        e.restart();
        assert!(e.in_doubt().is_empty());
        assert_eq!(rows_of(&e, "a"), vec![kv(1, "a"), kv(2, "in doubt")]);
        assert_eq!(rows_of(&e, "b"), vec![kv(1, "in doubt"), kv(2, "in doubt")]);
    }

    #[test]
    fn a_transaction_that_touches_a_second_database_is_refused() {
        let dbs = ["a", "b"];
        let e = setup_dbs(&dbs);
        let lens = log_lens(&e, &dbs);
        let refused = |r: Result<()>| {
            matches!(
                r,
                Err(StorageError::InvalidTxnState {
                    state: "bound to another database",
                    ..
                })
            )
        };
        // Read first, then write elsewhere.
        let t = e.begin().unwrap();
        e.scan(t, "a", "kv").unwrap();
        assert!(refused(e.insert(t, "b", "kv", kv(1, "x")).map(drop)));
        e.prepare(t).unwrap();
        e.abort(t).unwrap();
        // Write first, then read elsewhere.
        let t = e.begin().unwrap();
        let rid = e.insert(t, "b", "kv", kv(2, "y")).unwrap();
        let before = log_lens(&e, &dbs);
        assert!(refused(e.read(t, "a", "kv", 0).map(drop)));
        assert!(refused(e.scan(t, "a", "kv").map(drop)));
        assert_eq!(log_lens(&e, &dbs), before, "a refusal logs nothing");
        e.update(t, "b", "kv", rid, kv(2, "z")).unwrap();
        e.commit(t).unwrap();
        assert_eq!(rows_of(&e, "a"), Vec::<Vec<Value>>::new());
        assert_eq!(rows_of(&e, "b"), vec![kv(2, "z")]);
        // `a`: the read-only one's prepare and abort. `b`: insert, update,
        // commit.
        assert_eq!(log_lens(&e, &dbs), vec![lens[0] + 2, lens[1] + 3]);
    }

    #[test]
    fn an_untouched_transaction_logs_nothing_even_when_prepared() {
        let e = setup();
        let before = e.wal().len();
        let t = e.begin().unwrap();
        e.prepare(t).unwrap();
        e.commit(t).unwrap();
        assert_eq!(e.wal().len(), before);
    }

    #[test]
    fn crash_releases_locks_of_live_txns() {
        let e = setup();
        let rid = e
            .with_txn(|t| e.insert(t, "app", "kv", kv(1, "a")))
            .unwrap();
        let t1 = e.begin().unwrap();
        e.update(t1, "app", "kv", rid, kv(1, "dirty")).unwrap();
        e.crash();
        e.restart();
        // New txn can lock the row immediately (no 5s timeout stall).
        let t2 = e.begin().unwrap();
        let row = e.read(t2, "app", "kv", rid).unwrap().unwrap();
        e.commit(t2).unwrap();
        assert_eq!(row[1], Value::Text("a".into()));
    }

    #[test]
    fn a_big_commit_leaves_the_lock_table_empty_and_bounded() {
        let e = setup();
        e.with_txn(|t| {
            for k in 0..10_000 {
                e.insert(t, "app", "kv", kv(k, "v"))?;
            }
            Ok(())
        })
        .unwrap();
        let [resources, held, spare_states, spare_held] = e.locks.footprint();
        assert_eq!((resources, held), (0, 0), "no lock outlives its commit");
        assert!(spare_states <= crate::lock::SPARES);
        assert!(spare_held <= crate::lock::SPARES);
    }

    /// Every op of a stream but a database's `CreateDatabase` needs the
    /// database hosted here: an op for one that is not is refused, and
    /// nothing is logged for it — no log is made for a name never hosted,
    /// and a dropped database's log ends at its drop.
    #[test]
    fn redo_for_a_database_not_hosted_is_refused_and_logs_nothing() {
        let e = setup_dbs(&["gone"]);
        e.drop_database("gone").unwrap();
        let gone_len = e.wal().get("gone").unwrap().len();
        let ops = [
            RedoOp::DropDatabase,
            RedoOp::CreateTable {
                schema: Box::new(TableSchema::new("t", Vec::new())),
            },
            RedoOp::CreateIndex {
                table: "kv".into(),
                index: "by_v".into(),
                columns: ["v".to_string()].into(),
                unique: false,
            },
            RedoOp::Insert {
                table: "kv".into(),
                row_id: 1,
                row: kv(1, "a"),
            },
            RedoOp::Update {
                table: "kv".into(),
                row_id: 1,
                row: kv(1, "b"),
            },
            RedoOp::Delete {
                table: "kv".into(),
                row_id: 1,
            },
        ];
        for db in ["ghost", "gone"] {
            for op in &ops {
                assert_eq!(
                    e.apply_replicated_redo(db, op),
                    Err(StorageError::NoSuchDatabase(db.into())),
                    "{db}: {op:?}"
                );
            }
        }
        assert!(e.wal().get("ghost").is_none(), "a log was made for ghost");
        assert_eq!(e.wal().get("gone").unwrap().len(), gone_len);
        // Its `CreateDatabase` is the one op that makes a database.
        e.apply_replicated_redo("ghost", &RedoOp::CreateDatabase)
            .unwrap();
        assert!(e.has_database("ghost"));
    }

    /// A log of one incarnation, its drop, and a second incarnation under
    /// the same name restarts into the second incarnation's rows only.
    #[test]
    fn a_dropped_incarnation_stays_dropped_across_restart() {
        let e = Engine::new(EngineConfig::for_tests());
        let incarnation = |keys: &[i64]| {
            let schema = TableSchema::new(
                "kv",
                vec![
                    ColumnDef::new("k", DataType::Int).not_null(),
                    ColumnDef::new("v", DataType::Text),
                ],
            )
            .with_primary_key(&["k"]);
            let mut ops = vec![
                RedoOp::CreateDatabase,
                RedoOp::CreateTable {
                    schema: Box::new(schema),
                },
            ];
            ops.extend(keys.iter().map(|&k| RedoOp::Insert {
                table: "kv".into(),
                row_id: k as u64,
                row: kv(k, "v"),
            }));
            ops
        };
        let mut ops = incarnation(&[1, 2, 3]);
        ops.push(RedoOp::DropDatabase);
        ops.extend(incarnation(&[7]));
        for op in &ops {
            e.apply_replicated_redo("app", op).unwrap();
        }
        let second = vec![kv(7, "v")];
        assert_eq!(rows_of(&e, "app"), second);
        assert_eq!(e.wal().get("app").unwrap().len(), ops.len());
        e.crash();
        assert_eq!(e.restart(), ops.len());
        assert_eq!(rows_of(&e, "app"), second);
    }

    /// Row and table redo take the database's own table lock, not the
    /// catalog's: they finish while another thread read-locks the catalog
    /// (a write lock would wait for it).
    #[test]
    fn table_and_row_redo_leave_the_catalog_unlocked() {
        let e = Arc::new(setup_dbs(&["app"]));
        let (held, release) = (std::sync::Barrier::new(2), std::sync::Barrier::new(2));
        thread::scope(|s| {
            s.spawn(|| {
                let _catalog = e.databases.read();
                held.wait();
                release.wait();
            });
            held.wait();
            let ops = [
                RedoOp::Insert {
                    table: "kv".into(),
                    row_id: 1,
                    row: kv(1, "a"),
                },
                RedoOp::CreateIndex {
                    table: "kv".into(),
                    index: "by_v".into(),
                    columns: ["v".to_string()].into(),
                    unique: false,
                },
                RedoOp::Update {
                    table: "kv".into(),
                    row_id: 1,
                    row: kv(1, "b"),
                },
                RedoOp::CreateTable {
                    schema: Box::new(TableSchema::new("t", Vec::new())),
                },
                RedoOp::Delete {
                    table: "kv".into(),
                    row_id: 1,
                },
            ];
            for op in &ops {
                e.apply_replicated_redo("app", op).unwrap();
            }
            release.wait();
        });
        assert!(rows_of(&e, "app").is_empty());
        assert_eq!(e.db("app").unwrap().table_names(), ["kv", "t"]);
    }

    /// Row redo racing the table's index rebuild waits for it or goes
    /// first: every row lands in the rebuilt table and its index, and the
    /// live rows equal the rows the log rebuilds.
    #[test]
    fn row_redo_and_an_index_rebuild_never_interleave() {
        let e = setup_dbs(&["app"]);
        let rows = 4_000;
        let started = std::sync::Barrier::new(2);
        thread::scope(|s| {
            s.spawn(|| {
                for k in 0..rows {
                    let insert = RedoOp::Insert {
                        table: "kv".into(),
                        row_id: k as u64,
                        row: kv(k, "v"),
                    };
                    e.apply_replicated_redo("app", &insert).unwrap();
                    if k == rows / 4 {
                        started.wait();
                    }
                }
            });
            // The rebuild starts with a quarter of the rows in and the
            // writer still going.
            started.wait();
            let by_v = RedoOp::CreateIndex {
                table: "kv".into(),
                index: "by_v".into(),
                columns: ["v".to_string()].into(),
                unique: false,
            };
            e.apply_replicated_redo("app", &by_v).unwrap();
        });
        let live = rows_of(&e, "app");
        assert_eq!(live.len(), rows as usize);
        let t = e.begin().unwrap();
        let v = [Value::Text("v".into())];
        let hits = e.index_lookup(t, "app", "kv", "by_v", &v, false).unwrap();
        assert_eq!(hits.len(), rows as usize);
        e.commit(t).unwrap();
        e.crash();
        e.restart();
        assert_eq!(rows_of(&e, "app"), live);
    }

    /// Redo that resolved a database before it was dropped and re-created,
    /// and takes its table lock after, is refused: it neither lands in the
    /// dropped incarnation's tables nor follows the new `CreateDatabase`
    /// in the log, where restart would replay it into the new one.
    #[test]
    fn redo_of_a_dropped_incarnation_is_refused() {
        let e = setup_dbs(&["app"]);
        let old = e.db("app").unwrap();
        let schema = old.open_table("kv").unwrap().table().schema.clone();
        e.drop_database("app").unwrap();
        e.create_database("app").unwrap();
        e.create_table("app", schema).unwrap();
        let logged = e.wal().get("app").unwrap().len();
        let insert = RedoOp::Insert {
            table: "kv".into(),
            row_id: 1,
            row: kv(1, "old"),
        };
        let refused = Err(StorageError::NoSuchDatabase("app".into()));
        assert_eq!(e.apply_to(&old, &insert, true), refused);
        assert_eq!(e.wal().get("app").unwrap().len(), logged);
        assert!(old.open_table("kv").unwrap().table().scan().is_empty());
        e.crash();
        e.restart();
        assert!(rows_of(&e, "app").is_empty());
    }

    /// A write through a handle resolved before its database was dropped
    /// and re-created is refused: it neither lands in the dropped
    /// incarnation nor reaches the log, where restart would replay it into
    /// the new one.
    #[test]
    fn a_write_through_a_handle_of_a_dropped_database_is_refused() {
        let e = setup();
        let old = e.open_table("app", "kv").unwrap();
        let rid = e
            .with_txn(|t| e.insert_in(t, &old, kv(1, "committed")))
            .unwrap();
        let t = e.begin().unwrap();
        recreate(&e, "app");
        let logged = e.wal().get("app").unwrap().len();
        let refused = StorageError::NoSuchDatabase("app".into());
        let insert = e.insert_in(t, &old, kv(2, "old incarnation"));
        assert_eq!(insert.unwrap_err(), refused);
        let update = e.update_in(t, &old, rid, kv(1, "old incarnation"));
        assert_eq!(update.unwrap_err(), refused);
        assert_eq!(e.delete_in(t, &old, rid).unwrap_err(), refused);
        e.commit(t).unwrap();
        assert_eq!(e.wal().get("app").unwrap().len(), logged);
        assert_eq!(old.table().scan(), [(rid, kv(1, "committed"))]);
        assert!(rows_of(&e, "app").is_empty());
        e.crash();
        e.restart();
        assert!(rows_of(&e, "app").is_empty());
    }

    /// An abort undoes the table its transaction wrote, not the one its
    /// name resolves to now: a transaction of a dropped incarnation that
    /// aborts leaves the row the new incarnation committed under the same
    /// row id, live as after restart.
    #[test]
    fn an_abort_after_a_drop_and_recreate_undoes_the_old_incarnation_only() {
        let e = setup();
        let a = e.begin().unwrap();
        e.insert(a, "app", "kv", kv(1, "old incarnation")).unwrap();
        recreate(&e, "app");
        e.with_txn(|b| e.insert(b, "app", "kv", kv(1, "new incarnation")))
            .unwrap();
        e.abort(a).unwrap();
        let new = vec![kv(1, "new incarnation")];
        assert_eq!(rows_of(&e, "app"), new);
        e.crash();
        e.restart();
        assert_eq!(rows_of(&e, "app"), new);
    }

    /// A replicated create of what the engine already has — a database, a
    /// table, an index — is ignored and logs nothing: applying each op
    /// twice grows the log by one record per op.
    #[test]
    fn a_repeated_replicated_create_is_logged_once() {
        let e = Engine::new(EngineConfig::for_tests());
        let schema = Box::new(kv_schema());
        let ops = [
            RedoOp::CreateDatabase,
            RedoOp::CreateTable { schema },
            by_v(),
        ];
        for (i, op) in ops.iter().enumerate() {
            for _ in 0..2 {
                e.apply_replicated_redo("app", op).unwrap();
            }
            assert_eq!(e.wal().get("app").unwrap().len(), i + 1, "{op:?}");
        }
        assert_eq!(indexes_of(&e, "app"), ["pk", "by_v"]);
    }

    /// Live DDL runs the redo arms, which refuse before they log: a table
    /// or index that exists, an index on a column that does not, and a
    /// unique index the rows violate change nothing and log nothing.
    #[test]
    fn refused_ddl_changes_nothing_and_logs_nothing() {
        let e = setup();
        e.with_txn(|t| {
            e.insert(t, "app", "kv", kv(1, "same"))?;
            e.insert(t, "app", "kv", kv(2, "same"))
        })
        .unwrap();
        e.create_index("app", "kv", "by_v", &["v".into()], false)
            .unwrap();
        let logged = e.wal().len();
        let v = ["v".to_string()];
        let refusals = [
            e.create_table("app", kv_schema()),
            e.create_index("app", "kv", "by_v", &v, false),
            e.create_index("app", "kv", "by_w", &["w".into()], false),
            e.create_index("app", "kv", "v_unique", &v, true),
            e.create_index("app", "nope", "by_v", &v, false),
        ];
        assert!(
            matches!(
                refusals,
                [
                    Err(StorageError::AlreadyExists(_)),
                    Err(StorageError::AlreadyExists(_)),
                    Err(StorageError::SchemaMismatch(_)),
                    Err(StorageError::UniqueViolation { .. }),
                    Err(StorageError::NoSuchTable(_)),
                ]
            ),
            "{refusals:?}"
        );
        assert_eq!(e.wal().len(), logged);
        assert_eq!(indexes_of(&e, "app"), ["pk", "by_v"]);
        assert_eq!(rows_of(&e, "app").len(), 2);
    }

    #[test]
    fn unknown_names_error() {
        let e = setup();
        assert!(matches!(
            e.db("nope").unwrap_err(),
            StorageError::NoSuchDatabase(_)
        ));
        assert!(matches!(
            e.table("app", "nope").unwrap_err(),
            StorageError::NoSuchTable(_)
        ));
        assert!(e.create_database("app").is_err());
    }

    #[test]
    fn concurrent_inserts_different_keys() {
        let e = Arc::new(setup());
        let mut handles = Vec::new();
        for i in 0..8i64 {
            let e2 = Arc::clone(&e);
            handles.push(thread::spawn(move || {
                e2.with_txn(|t| e2.insert(t, "app", "kv", kv(i, "x")))
                    .unwrap();
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let t = e.begin().unwrap();
        assert_eq!(e.scan(t, "app", "kv").unwrap().len(), 8);
        e.commit(t).unwrap();
    }

    #[test]
    fn index_range_requires_table_lock() {
        let e = Arc::new(setup());
        e.with_txn(|t| {
            for i in 0..5 {
                e.insert(t, "app", "kv", kv(i, "x"))?;
            }
            Ok(())
        })
        .unwrap();
        let t = e.begin().unwrap();
        let rows = e
            .index_range(
                t,
                "app",
                "kv",
                "pk",
                Some(&[Value::Int(1)]),
                Some(&[Value::Int(3)]),
            )
            .unwrap();
        assert_eq!(rows.len(), 3);
        // Table S lock is held: concurrent insert blocks until commit.
        let e2 = Arc::clone(&e);
        let h = thread::spawn(move || {
            e2.with_txn(|tx| e2.insert(tx, "app", "kv", kv(100, "y")))
                .unwrap();
        });
        thread::sleep(Duration::from_millis(50));
        assert_eq!(e.locks().waiter_count(), 1);
        e.commit(t).unwrap();
        h.join().unwrap();
    }
}
