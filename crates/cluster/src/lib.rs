//! # tenantdb-cluster
//!
//! The paper's core contribution: a **cluster controller** that turns a rack
//! of single-node DBMS instances into one fault-tolerant multi-tenant
//! database service.
//!
//! * **Replication** (§3.1): read-one/write-all over 2–k replicas with 2PC.
//!   Reads route under [`ReadPolicy`] (the paper's Options 1/2/3); writes
//!   acknowledge under [`WritePolicy`] (conservative/aggressive). The
//!   serializability consequences of each combination (Table 1) are
//!   observable through an attached [`tenantdb_history::Recorder`].
//! * **Failure management** (§3.2): machine crashes are masked by the
//!   surviving replicas; lost replicas are re-created online by
//!   [`recovery::recover_machine`] with Algorithm 1 routing writes around
//!   the copy.
//! * **Controller fault tolerance** (§2): the 2PC decision log
//!   ([`meta::Decisions`]) is replicated by the [`ControllerGroup`]. The
//!   coordinator, [`ClusterController::takeover`] (the paper's process
//!   pair) and a participant's restart run one set of drivers, [`twopc`].
//!
//! ```
//! use tenantdb_cluster::{ClusterConfig, ClusterController};
//! use tenantdb_storage::Value;
//!
//! let cluster = ClusterController::with_machines(ClusterConfig::for_tests(), 3);
//! cluster.create_database("myapp", 2).unwrap();
//! cluster.ddl("myapp", "CREATE TABLE notes (id INT NOT NULL, body TEXT, PRIMARY KEY (id))").unwrap();
//!
//! let conn = cluster.connect("myapp").unwrap();
//! conn.begin().unwrap();
//! conn.execute("INSERT INTO notes VALUES (?, ?)", &[Value::Int(1), Value::from("hi")]).unwrap();
//! conn.commit().unwrap();
//!
//! let r = conn.execute("SELECT body FROM notes WHERE id = 1", &[]).unwrap();
//! assert_eq!(r.rows[0][0], Value::from("hi"));
//! ```
//!
//! * **Observability**: every controller carries a
//!   [`metrics::ClusterMetrics`] — outcome counters, 2PC phase latency
//!   histograms and a structured event log, rendered Prometheus-style via
//!   [`tenantdb_obs::MetricsRegistry::render_text`].

#![warn(missing_docs)]

pub mod connection;
pub mod controller;
pub mod error;
pub mod fault;
pub mod machine;
pub mod meta;
pub mod metrics;
mod plans;
pub mod pool;
pub mod recovery;
pub mod sync;
pub mod testkit;
pub mod transport;
pub mod twopc;
pub mod worker;

pub use connection::Connection;
pub use controller::{
    ClusterConfig, ClusterController, CopyProgress, Placement, ReadPolicy, TakeoverReport,
    WritePolicy,
};
pub use error::{Aborted, ClusterError, Outcome, Refusal, Result};
pub use fault::{CrashPoint, FaultAction, FaultInjector, FaultPlan, Trigger};
pub use machine::{Machine, MachineId};
pub use meta::{ControllerGroup, CtrlStatus, MachineTally};
pub use metrics::{ClusterMetrics, DbCounters, PoolMetrics};
pub use pool::{PoolConfig, WorkerPool};
pub use recovery::{
    create_replica, migrate_replica, recover_machine, CopyGranularity, RecoveryConfig,
    RecoveryReport,
};
pub use transport::{BatchMode, BatchStmt, Transport};
