//! # tenantdb-platform
//!
//! The top of the §2 hierarchy: a geo-distributed data platform presenting
//! the illusion of one large fault-tolerant DBMS.
//!
//! * [`SystemController`] — owns the database directory and SLAs and
//!   routes clients to a database's primary colo. It moves no data: the DR
//!   standby it reserves is fed by a `tenantdb-georep` WAL stream, and
//!   [`SystemController::failover`] is the routing flip after a promote.
//! * [`Colo`] / colo controller — clusters plus a free machine pool;
//!   databases placed on the cluster hosting the fewest, machines within a
//!   cluster chosen by the cluster's Algorithm-2 `choose`, with a machine
//!   pulled from the pool when none has room.
//!
//! ```
//! use tenantdb_platform::{CreateOptions, PlatformConfig, SystemController};
//! use tenantdb_storage::Value;
//!
//! let platform = SystemController::new(
//!     PlatformConfig::for_tests(),
//!     &[("west", (0.0, 0.0)), ("east", (100.0, 0.0))],
//! );
//! platform.create_database("myapp", (5.0, 0.0), CreateOptions::default()).unwrap();
//!
//! let conn = platform.connect("myapp", (5.0, 0.0)).unwrap();
//! conn.execute("CREATE TABLE t (id INT NOT NULL, PRIMARY KEY (id))", &[]).unwrap();
//! conn.execute("INSERT INTO t VALUES (1)", &[]).unwrap();
//! let r = conn.execute("SELECT COUNT(*) FROM t", &[]).unwrap();
//! assert_eq!(r.rows[0][0], Value::Int(1));
//! ```

pub mod colo;
pub mod system;

pub use colo::{Colo, ColoId};
pub use system::{CreateOptions, PlatformConfig, SystemController};
