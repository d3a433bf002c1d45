//! # tenantdb-sql
//!
//! A small-but-real SQL layer over [`tenantdb_storage`]: hand-written lexer
//! and recursive-descent parser, a rule-based planner (index selection,
//! predicate pushdown, index nested-loop joins) and an executor that runs
//! every statement inside a storage transaction — so SQL statements take
//! genuine strict-2PL locks, deadlock, and participate in 2PC like the
//! paper's MySQL substrate.
//!
//! Planning and execution are two steps with a value in between:
//!
//! * [`plan()`]`(engine, db, &Statement) -> `[`Plan`] binds a statement to a
//!   database's schema once — table names, column references as row
//!   offsets, access paths as templates over the `?` slots, join strategy,
//!   projection, output column names, [`Plan::class`] and
//!   [`Plan::locked_tables`];
//! * [`run`]`(engine, txn, &Plan, params)` is the only executor: it walks the
//!   plan, any number of times, with any parameter values, from any thread
//!   ([`run_recording`] is the same walk, also reporting the rows touched).
//!
//! [`execute`] / [`execute_stmt`] are the uncached `plan` + `run`; the
//! cluster controller keeps `Arc<Plan>`s per database instead.
//!
//! Supported dialect: `CREATE TABLE` (with `PRIMARY KEY`), `CREATE [UNIQUE]
//! INDEX`, multi-row `INSERT`, `SELECT` with inner joins / `WHERE` /
//! `GROUP BY` + aggregates / `ORDER BY` / `LIMIT` / `FOR UPDATE`, searched
//! `UPDATE` / `DELETE`, `?` positional parameters, `IN`, `LIKE`, `BETWEEN`,
//! `IS NULL`, and three-valued logic.
//!
//! ```
//! use tenantdb_storage::{Engine, EngineConfig, Value};
//! use tenantdb_sql::execute;
//!
//! let engine = Engine::new(EngineConfig::for_tests());
//! engine.create_database("app").unwrap();
//! let txn = engine.begin().unwrap();
//! execute(&engine, txn, "app",
//!     "CREATE TABLE notes (id INT NOT NULL, body TEXT, PRIMARY KEY (id))", &[]).unwrap();
//! execute(&engine, txn, "app",
//!     "INSERT INTO notes VALUES (?, ?)", &[Value::Int(1), Value::from("hi")]).unwrap();
//! let r = execute(&engine, txn, "app",
//!     "SELECT body FROM notes WHERE id = ?", &[Value::Int(1)]).unwrap();
//! assert_eq!(r.rows[0][0], Value::from("hi"));
//! engine.commit(txn).unwrap();
//! ```

// `tests/common` is written against the public API and shared with the unit
// tests, which reach this crate under the name its users do.
#[cfg(test)]
extern crate self as tenantdb_sql;

pub mod ast;
pub mod display;
pub mod error;
pub mod eval;
pub mod exec;
pub mod lexer;
pub mod parser;
pub mod plan;

pub use ast::{Statement, StatementClass};
pub use error::{Result, SqlError};
pub use exec::{execute, execute_stmt, run, run_recording, QueryResult};
pub use parser::{param_count, parse};
pub use plan::{plan, Plan};
