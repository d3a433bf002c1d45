//! # tenantdb
//!
//! A from-scratch Rust reproduction of *"A Scalable Data Platform for a
//! Large Number of Small Applications"* (Yang, Shanmugasundaram, Yerneni —
//! CIDR 2009): a multi-tenant database platform built from clusters of
//! single-node DBMS instances coordinated by fault-tolerant controllers.
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`storage`] — the single-node transactional engine (the "MySQL" role):
//!   strict 2PL, deadlock detection, 2PC participant, WAL, buffer-pool cost
//!   model, mysqldump-style copy tool.
//! * [`sql`] — SQL lexer/parser/planner/executor over the engine.
//! * [`history`] — per-site history recording and the one-copy
//!   serializability checker (Table 1).
//! * [`cluster`] — the paper's core contribution: the cluster controller
//!   with read-one/write-all replication, read-routing options 1/2/3,
//!   aggressive/conservative write acknowledgement, 2PC coordination,
//!   failure recovery (Algorithm 1) and controller takeover (§2's process
//!   pair).
//! * [`sim`] — deterministic fault-injection simulation: seeded scenario
//!   runner over named crash points, invariant checkers (convergence,
//!   durability, 1SR), replayable seeds and a schedule shrinker.
//! * [`sla`] — SLA model and First-Fit / optimal database placement
//!   (Algorithm 2, Table 2).
//! * [`tpcw`] — TPC-W schema, data generator, the three standard mixes, and
//!   a closed-loop workload driver.
//! * [`platform`] — system and colo controllers on top of clusters: the
//!   `create_database` / `connect` API of §2.
//! * [`net`] — the serving frontend: versioned binary wire protocol,
//!   multi-threaded TCP server over the platform, and a blocking native
//!   client (`cargo run --bin serve`, shell `\connect`).
//! * [`georep`] — cross-colo disaster recovery: per-database WAL shipping
//!   to a standby colo over the versioned log-stream protocol,
//!   epoch-fenced standby promotion, and in-doubt 2PC reconciliation
//!   (shell `\georep status|promote`).
//!
//! See `DESIGN.md` for the full system inventory and `EXPERIMENTS.md` for
//! the paper-vs-measured record of every table and figure.

pub use tenantdb_cluster as cluster;
pub use tenantdb_georep as georep;
pub use tenantdb_history as history;
pub use tenantdb_net as net;
pub use tenantdb_platform as platform;
pub use tenantdb_sim as sim;
pub use tenantdb_sla as sla;
pub use tenantdb_sql as sql;
pub use tenantdb_storage as storage;
pub use tenantdb_tpcw as tpcw;
