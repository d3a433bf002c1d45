//! The transport abstraction: one SQL session, independent of how it
//! reaches the cluster.
//!
//! The platform is a *served* system — the paper's clients speak to a colo
//! controller over the network, not by holding a controller `Arc`. This
//! trait is the seam that lets workload drivers (the TPC-W mix, tests, the
//! shell) run unchanged over either transport:
//!
//! * in-process: [`crate::Connection`] (and the platform-level connection
//!   in `tenantdb-platform`) implement it directly;
//! * remote: the `tenantdb-net` client implements it over the wire
//!   protocol, so the same driver code exercises the TCP serving frontend.
//!
//! The error type stays [`ClusterError`] on purpose:
//! remote errors round-trip through the wire protocol's error frame, so a
//! deadlock is still classified as a deadlock (and an SLA rejection as a
//! rejection) no matter which transport reported it. Transport-level
//! failures (a dead socket) surface as [`ClusterError::TxnAborted`], which is
//! exactly what a client must assume about an in-flight transaction it
//! lost contact with.

use tenantdb_sql::QueryResult;
use tenantdb_storage::Value;

use crate::connection::Connection;
use crate::error::{ClusterError, Result};

/// One statement of a batched execution ([`Transport::execute_batch`]).
#[derive(Debug, Clone, PartialEq)]
pub struct BatchStmt {
    /// The SQL text.
    pub sql: String,
    /// Positional `?` parameters.
    pub params: Vec<Value>,
}

impl BatchStmt {
    /// Convenience constructor.
    pub fn new(sql: impl Into<String>, params: Vec<Value>) -> Self {
        BatchStmt {
            sql: sql.into(),
            params,
        }
    }
}

/// How a batch interacts with the session's transaction state.
///
/// The distinction matters for error handling: a mode that *owns* the
/// commit also owns rollback-on-error, whereas `Statements` leaves a
/// failed transaction open for the caller to resolve — exactly what
/// sequential `execute` calls would have done.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchMode {
    /// Run in the session's current context: inside the open transaction
    /// if there is one, auto-committed per statement otherwise. On error
    /// any open transaction is left open (the caller rolls back).
    Statements,
    /// Run inside the already-open transaction, then commit it. A
    /// statement error rolls the transaction back before returning.
    FinishTxn,
    /// `begin`, the statements, `commit` — a whole transaction in one
    /// call. A statement error rolls back before returning.
    WholeTxn,
}

/// One SQL session: explicit transactions plus statement execution.
///
/// Mirrors the in-process [`Connection`] API (the paper's "JDBC
/// connection"). All methods take `&self` — implementations use interior
/// mutability, as connections are driven from one logical client at a time
/// but shared across closure boundaries in drivers.
pub trait Transport {
    /// Start an explicit transaction.
    fn begin(&self) -> Result<()>;
    /// Execute one SQL statement (auto-committed outside a transaction).
    fn execute(&self, sql: &str, params: &[Value]) -> Result<QueryResult>;
    /// Commit the open transaction.
    fn commit(&self) -> Result<()>;
    /// Roll back the open transaction.
    fn rollback(&self) -> Result<()>;
    /// True while an explicit transaction is open (best-effort for remote
    /// transports: the client's view, not a server round-trip).
    fn in_txn(&self) -> bool;

    /// Execute a run of statements as one unit. The default implementation
    /// is sequential and local; remote transports override it to ship the
    /// whole batch in a single wire frame (statement pipelining — the
    /// per-statement round trip is the dominant serving-tier cost).
    ///
    /// Semantics are [`Transport::batch_indexed`]'s, minus the index.
    fn execute_batch(&self, stmts: &[BatchStmt], mode: BatchMode) -> Result<Vec<QueryResult>> {
        self.batch_indexed(stmts.len(), mode, &mut |i| {
            self.execute(&stmts[i].sql, &stmts[i].params)
        })
        .map_err(|(_, e)| e)
    }

    /// The batch rule — the one implementation, so in-process and
    /// over-the-wire runs are observably identical (same error, same
    /// transaction state afterwards). `stmt(i)` executes the `i`-th of `n`
    /// statements on this session, from SQL text or from an AST the caller
    /// parsed earlier.
    ///
    /// Statements run strictly in order. On the first statement error the
    /// batch stops and the error is returned with the failing step's index
    /// (`n` = the implicit commit); whether the transaction is rolled back
    /// is governed by `mode` (see [`BatchMode`]). A commit failure in the
    /// commit-owning modes is returned as-is — commit resolves the
    /// transaction either way.
    fn batch_indexed(
        &self,
        n: usize,
        mode: BatchMode,
        stmt: &mut dyn FnMut(usize) -> Result<QueryResult>,
    ) -> std::result::Result<Vec<QueryResult>, (u32, ClusterError)> {
        if mode == BatchMode::WholeTxn {
            self.begin().map_err(|e| (0, e))?;
        }
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            match stmt(i) {
                Ok(r) => out.push(r),
                Err(e) => {
                    if mode != BatchMode::Statements && self.in_txn() {
                        let _ = self.rollback();
                    }
                    return Err((i as u32, e));
                }
            }
        }
        if mode != BatchMode::Statements {
            self.commit().map_err(|e| (n as u32, e))?;
        }
        Ok(out)
    }
}

impl Transport for Connection {
    fn begin(&self) -> Result<()> {
        Connection::begin(self)
    }

    fn execute(&self, sql: &str, params: &[Value]) -> Result<QueryResult> {
        Connection::execute(self, sql, params)
    }

    fn commit(&self) -> Result<()> {
        Connection::commit(self)
    }

    fn rollback(&self) -> Result<()> {
        Connection::rollback(self)
    }

    fn in_txn(&self) -> bool {
        Connection::in_txn(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{ClusterConfig, ClusterController};

    fn roundtrip<T: Transport>(conn: &T) {
        conn.begin().unwrap();
        assert!(conn.in_txn());
        conn.execute("INSERT INTO t VALUES (1, 'x')", &[]).unwrap();
        conn.commit().unwrap();
        assert!(!conn.in_txn());
        let r = conn.execute("SELECT v FROM t WHERE k = 1", &[]).unwrap();
        assert_eq!(r.rows[0][0], Value::from("x"));
    }

    #[test]
    fn connection_implements_transport() {
        let c = ClusterController::with_machines(ClusterConfig::for_tests(), 2);
        c.create_database("app", 2).unwrap();
        c.ddl(
            "app",
            "CREATE TABLE t (k INT NOT NULL, v TEXT, PRIMARY KEY (k))",
        )
        .unwrap();
        let conn = c.connect("app").unwrap();
        roundtrip(&conn);
    }

    fn batch_fixture() -> (std::sync::Arc<ClusterController>, String) {
        let c = ClusterController::with_machines(ClusterConfig::for_tests(), 2);
        c.create_database("app", 2).unwrap();
        c.ddl(
            "app",
            "CREATE TABLE t (k INT NOT NULL, v TEXT, PRIMARY KEY (k))",
        )
        .unwrap();
        (c, "app".to_string())
    }

    #[test]
    fn whole_txn_batch_commits_atomically() {
        let (c, db) = batch_fixture();
        let conn = c.connect(&db).unwrap();
        let results = conn
            .execute_batch(
                &[
                    BatchStmt::new("INSERT INTO t VALUES (?, ?)", vec![1.into(), "a".into()]),
                    BatchStmt::new("INSERT INTO t VALUES (?, ?)", vec![2.into(), "b".into()]),
                    BatchStmt::new("SELECT COUNT(*) FROM t", vec![]),
                ],
                BatchMode::WholeTxn,
            )
            .unwrap();
        assert_eq!(results.len(), 3);
        assert_eq!(results[2].rows[0][0], Value::from(2i64));
        assert!(!conn.in_txn());
    }

    #[test]
    fn whole_txn_batch_rolls_back_on_statement_error() {
        let (c, db) = batch_fixture();
        let conn = c.connect(&db).unwrap();
        conn.execute("INSERT INTO t VALUES (1, 'a')", &[]).unwrap();
        let err = conn
            .execute_batch(
                &[
                    BatchStmt::new("INSERT INTO t VALUES (?, ?)", vec![2.into(), "b".into()]),
                    // Duplicate key: fails mid-batch.
                    BatchStmt::new("INSERT INTO t VALUES (?, ?)", vec![1.into(), "dup".into()]),
                ],
                BatchMode::WholeTxn,
            )
            .unwrap_err();
        assert!(!conn.in_txn(), "batch error must resolve the txn: {err}");
        let r = conn.execute("SELECT COUNT(*) FROM t", &[]).unwrap();
        assert_eq!(r.rows[0][0], Value::from(1i64), "row 2 rolled back");
    }

    #[test]
    fn batch_indexed_names_the_failing_step() {
        let (c, db) = batch_fixture();
        let conn = c.connect(&db).unwrap();
        let sql = ["INSERT INTO t VALUES (1, 'a')", "SELECT nope FROM missing"];
        let run = |mode| {
            conn.batch_indexed(sql.len(), mode, &mut |i| conn.execute(sql[i], &[]))
                .unwrap_err()
                .0
        };
        assert_eq!(run(BatchMode::WholeTxn), 1, "the second statement");
        assert!(!conn.in_txn());
        conn.begin().unwrap();
        assert_eq!(run(BatchMode::WholeTxn), 0, "the implicit begin");
        assert!(conn.in_txn(), "a refused begin leaves the open txn alone");
        conn.rollback().unwrap();
    }

    #[test]
    fn finish_txn_batch_commits_earlier_work() {
        let (c, db) = batch_fixture();
        let conn = c.connect(&db).unwrap();
        conn.begin().unwrap();
        conn.execute("INSERT INTO t VALUES (1, 'a')", &[]).unwrap();
        conn.execute_batch(
            &[BatchStmt::new(
                "INSERT INTO t VALUES (?, ?)",
                vec![2.into(), "b".into()],
            )],
            BatchMode::FinishTxn,
        )
        .unwrap();
        assert!(!conn.in_txn());
        let r = conn.execute("SELECT COUNT(*) FROM t", &[]).unwrap();
        assert_eq!(r.rows[0][0], Value::from(2i64));
    }

    #[test]
    fn statements_batch_leaves_txn_open_on_error() {
        let (c, db) = batch_fixture();
        let conn = c.connect(&db).unwrap();
        conn.begin().unwrap();
        let _ = conn
            .execute_batch(
                &[BatchStmt::new("SELECT nope FROM missing", vec![])],
                BatchMode::Statements,
            )
            .unwrap_err();
        assert!(
            conn.in_txn(),
            "Statements mode leaves the txn to the caller"
        );
        conn.rollback().unwrap();
    }
}
