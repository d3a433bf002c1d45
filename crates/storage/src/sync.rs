//! Ranked synchronization primitives for the storage crate.
//!
//! Every lock in this crate is an ordered wrapper from
//! [`tenantdb_lockdep`] carrying one of the classes below. Storage sits at
//! the **bottom** of the global lock hierarchy (DESIGN.md §10): its ranks
//! (500+) are above every cluster-layer rank, so cluster code may call into
//! the engine while holding its own locks, but storage code must never call
//! back up into cluster code that takes locks.
//!
//! The only in-crate nesting runs down one database (`ENGINE_TABLES →
//! TABLE_DATA`, and `ENGINE_TABLES → WAL_RECORDS` for a change logged under
//! its table lock: redo and DDL hold it across the op and its append, and a
//! live row write holds it shared across the table op, its undo entry
//! (`ENGINE_TABLES → TXN_MANAGER`) and its append), from the catalog into
//! one database only when a database is created or dropped
//! (`ENGINE_CATALOG → ENGINE_TABLES → WAL_RECORDS`: the marker is logged
//! under the catalog's write lock), from a table to its database's log
//! (`TABLE_DATA → WAL_RECORDS`: a written row is logged from the table's
//! own copy) and from the map of logs to each log (`ENGINE_LOGS →
//! WAL_RECORDS`, summing their lengths); every other storage lock is held
//! only for a short, self-contained critical section.

pub use tenantdb_lockdep::{
    OrderedCondvar as Condvar, OrderedMutex as Mutex, OrderedMutexGuard as MutexGuard,
    OrderedRwLock as RwLock, OrderedRwLockReadGuard as RwLockReadGuard,
    OrderedRwLockWriteGuard as RwLockWriteGuard, WaitTimeoutResult,
};

use tenantdb_lockdep::LockClass;

/// `Engine::databases` — the per-machine database catalog.
pub static ENGINE_CATALOG: LockClass = LockClass::new("storage.engine.catalog", 500);

/// `Logs::by_db` — the per-machine map of database logs.
pub static ENGINE_LOGS: LockClass = LockClass::new("storage.engine.logs", 505);

/// `Engine::in_doubt` — which log holds each in-doubt `Prepare`, as the
/// last `Engine::in_doubt()` found them; never held across another lock.
pub static ENGINE_IN_DOUBT: LockClass = LockClass::new("storage.engine.in_doubt", 507);

/// `Database::tables` — one database's table catalog.
pub static ENGINE_TABLES: LockClass = LockClass::new("storage.engine.tables", 510);

/// `TxnManager::txns` — live-transaction registry.
pub static TXN_MANAGER: LockClass = LockClass::new("storage.txn.manager", 520);

/// `LockManager::table` — the 2PL lock table (held across conflict checks
/// and condvar waits).
pub static LOCK_TABLE: LockClass = LockClass::new("storage.lock.table", 540);

/// `Table::data` — row storage and indexes of one table.
pub static TABLE_DATA: LockClass = LockClass::new("storage.table.data", 550);

/// `BufferPool::state` — LRU bookkeeping.
pub static BUFFER_STATE: LockClass = LockClass::new("storage.buffer.state", 560);

/// `Wal::records` — one database's log. Deepest rank in the system:
/// WAL appends happen under commit paths that may hold anything above.
pub static WAL_RECORDS: LockClass = LockClass::new("storage.wal.records", 570);
