//! # tenantdb-tpcw
//!
//! The TPC-W benchmark substrate used by the paper's evaluation: the
//! bookstore [`schema`], a deterministic scaled-down data [`generator`], the
//! web interactions as ACID transactions with the three standard mixes
//! ([`mix`] — browsing ≈5% writes, shopping ≈20%, ordering ≈50%), and a
//! closed-loop multi-session [`driver`] producing the throughput / deadlock
//! / rejection reports that Figures 2–9 are drawn from.
//!
//! ```
//! use std::time::Duration;
//! use tenantdb_cluster::{ClusterConfig, ClusterController};
//! use tenantdb_tpcw::{driver, generator::Scale, mix};
//!
//! let cluster = ClusterController::with_machines(ClusterConfig::for_tests(), 2);
//! let workloads = driver::setup_tpcw_databases(&cluster, 1, 2, Scale::with_items(50), 7).unwrap();
//! let report = driver::run_workload(&cluster, &workloads, &driver::WorkloadConfig {
//!     mix: &mix::SHOPPING,
//!     sessions_per_db: 2,
//!     duration: Duration::from_millis(200),
//!     seed: 7,
//! });
//! assert!(report.committed > 0);
//! ```

pub mod driver;
pub mod generator;
pub mod mix;
pub mod schema;

pub use driver::{run_workload, setup_tpcw_databases, DbWorkload, WorkloadConfig, WorkloadReport};
pub use generator::{create_schema, populate, setup_database, IdSpace, Scale};
pub use mix::{
    run_txn, IdCounters, Mix, Session, TxnType, ALL_MIXES, BROWSING, ORDERING, SHOPPING,
};
