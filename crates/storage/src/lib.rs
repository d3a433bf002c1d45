//! # tenantdb-storage
//!
//! A from-scratch single-node transactional database engine — the substrate
//! that plays the role of MySQL in *"A Scalable Data Platform for a Large
//! Number of Small Applications"* (CIDR 2009).
//!
//! One [`Engine`] models one machine in the paper's cluster. It provides
//! everything the cluster controller needs from an "off-the-shelf single-node
//! DBMS":
//!
//! * many small named databases per instance (multi-tenancy);
//! * strict two-phase locking at table / row / index-key granularity with
//!   wait-for-graph deadlock detection ([`lock`]);
//! * the 2PC participant API — `prepare` / `commit` / `abort` — including the
//!   read-locks-released-at-PREPARE optimization that §3.1 of the paper shows
//!   can break one-copy serializability under an aggressive controller;
//! * a redo WAL and crash/restart fault injection ([`wal`], [`Engine::crash`],
//!   [`Engine::restart`]), in the one byte format ([`codec`]) that the wire
//!   also carries values and shipped log records in;
//! * an LRU buffer-pool **cost model** ([`buffer`]) so that read-routing
//!   policies produce the cache-locality effects of Figures 2–4 in measured
//!   wall-clock throughput;
//! * a `mysqldump`-style copy tool ([`copy`]) that read-locks tables while
//!   copying, at table or database granularity (Figures 8–9).
//!
//! ## Quick example
//!
//! ```
//! use tenantdb_storage::{Engine, EngineConfig, TableSchema, ColumnDef, DataType, Value};
//!
//! let engine = Engine::new(EngineConfig::for_tests());
//! engine.create_database("app").unwrap();
//! engine.create_table("app", TableSchema::new(
//!     "users",
//!     vec![ColumnDef::new("id", DataType::Int).not_null(),
//!          ColumnDef::new("name", DataType::Text)],
//! ).with_primary_key(&["id"])).unwrap();
//!
//! let txn = engine.begin().unwrap();
//! engine.insert(txn, "app", "users", vec![Value::Int(1), Value::from("ada")]).unwrap();
//! engine.commit(txn).unwrap();
//! ```

pub mod buffer;
pub mod codec;
pub mod copy;
pub mod engine;
pub mod error;
mod idmap;
pub mod lock;
pub mod schema;
pub mod sync;
pub mod table;
pub mod txn;
pub mod value;
pub mod wal;

pub use buffer::{BufferPool, BufferStats, CostModel, PageKey, ROWS_PER_PAGE};
pub use copy::{
    dump_database, dump_table, restore_database, restore_table, table_order, DatabaseDump,
    TableDump, Throttle,
};
pub use engine::{Database, Engine, EngineConfig, TableHandle};
pub use error::{Result, StorageError};
pub use idmap::FoldHasher;
pub use lock::{LockManager, LockMode, LockStats, ResourceId};
pub use schema::{ColumnDef, IndexDef, TableSchema};
pub use table::{Direction, Table};
pub use txn::{TxnId, TxnPhase};
pub use value::{DataType, Value};
pub use wal::{LogRecord, Lsn, RedoOp, Wal, WalEntry};
