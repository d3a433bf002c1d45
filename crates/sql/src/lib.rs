//! # tenantdb-sql
//!
//! A small-but-real SQL layer over [`tenantdb_storage`]: hand-written lexer
//! and recursive-descent parser, a rule-based planner (index selection,
//! predicate pushdown, index nested-loop joins) and an executor that runs
//! every statement inside a storage transaction — so SQL statements take
//! genuine strict-2PL locks, deadlock, and participate in 2PC like the
//! paper's MySQL substrate.
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

pub mod ast;
pub mod display;
pub mod error;
pub mod eval;
pub mod exec;
pub mod lexer;
pub mod parser;

pub use ast::{Statement, StatementClass};
pub use error::{Result, SqlError};
pub use exec::{execute, execute_stmt, QueryResult};
pub use parser::{param_count, parse};
