//! Plans can change neither results nor locks, shown on the statements
//! TPC-W actually issues: every interaction of the mix is driven through a
//! [`Transport`] that sits on one bare engine and
//!
//! * runs each statement's chosen plan against its forced-scan reference
//!   (`common::execute_checked`, shared with `crates/sql/tests`) — reads on
//!   the spot, writes replayed afterwards, each in a transaction of its own
//!   that is rolled back — and
//! * counts the lock acquisitions and buffer-pool page accesses of each
//!   statement text's first execution, which must equal what the
//!   interpretive executor took before the plan/run split — Table 1, the
//!   phantom-protection tests and the deadlock shapes of Figures 5–7 rest
//!   on the executor taking exactly these locks.
//!
//! The data set, the parameter stream and the order of interactions are
//! fixed by seeds, so the counts repeat exactly.

#[path = "../../sql/tests/common/mod.rs"]
mod common;

use std::cell::{Cell, RefCell};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use tenantdb_cluster::{ClusterConfig, ClusterController, ClusterError, Transport};
use tenantdb_sql::QueryResult;
use tenantdb_storage::{Engine, TxnId, Value};
use tenantdb_tpcw::{run_txn, setup_database, IdCounters, Scale, Session, TxnType};

const DB: &str = "shop";

/// `(lock acquisitions, page accesses)` of the first execution of each
/// statement text, in order of first appearance — recorded by running this
/// very harness on the commit before the plan/run split (PR 16, 70dce51),
/// where `execute` was the interpretive `execute_stmt`.
const FOOTPRINT_BEFORE_THE_SPLIT: &[(&str, u64, u64)] = &[
    ("SELECT c_fname, c_lname, c_discount FROM customer WHERE c_id = ?", 3, 2),
    ("SELECT i_title, i_cost FROM item WHERE i_id = ?", 3, 2),
    ("SELECT i_id, i_title, i_pub_date FROM item WHERE i_subject = ? ORDER BY i_pub_date DESC LIMIT 10", 10, 9),
    ("SELECT ol_i_id, SUM(ol_qty) AS sold FROM order_line WHERE ol_o_id >= ? GROUP BY ol_i_id ORDER BY sold DESC LIMIT 5", 1, 1),
    ("SELECT i.i_title, i.i_cost, i.i_stock, a.a_fname, a.a_lname FROM item i JOIN author a ON a.a_id = i.i_a_id WHERE i.i_id = ?", 6, 4),
    ("SELECT i_id, i_cost FROM item WHERE i_title = ?", 3, 2),
    ("SELECT o_id, o_total, o_status FROM orders WHERE o_c_id = ? ORDER BY o_id DESC LIMIT 1", 2, 1),
    ("INSERT INTO shopping_cart VALUES (?, ?, 0)", 3, 2),
    ("SELECT i_cost FROM item WHERE i_id = ?", 3, 2),
    ("INSERT INTO shopping_cart_line VALUES (?, ?, ?, ?)", 4, 3),
    ("SELECT scl_i_id, scl_qty FROM shopping_cart_line WHERE scl_sc_id = ?", 3, 2),
    ("SELECT i_cost, i_stock FROM item WHERE i_id = ? FOR UPDATE", 3, 2),
    ("UPDATE item SET i_stock = ? WHERE i_id = ?", 5, 3),
    ("INSERT INTO orders VALUES (?, ?, 0, ?, 'pending')", 4, 3),
    ("INSERT INTO order_line VALUES (?, ?, ?, ?, 0.0)", 4, 3),
    ("INSERT INTO cc_xacts VALUES (?, 'VISA', ?, 0)", 3, 2),
    ("DELETE FROM shopping_cart_line WHERE scl_sc_id = ?", 7, 3),
    ("SELECT i_cost, i_pub_date FROM item WHERE i_id = ?", 3, 2),
    ("UPDATE item SET i_cost = ?, i_pub_date = ? WHERE i_id = ?", 5, 3),
    ("INSERT INTO address VALUES (?, ?, 'newcity', 0)", 3, 2),
    ("INSERT INTO customer VALUES (?, ?, ?, ?, ?, 0.0, 0.0)", 4, 3),
    ("SELECT ol_i_id, ol_qty FROM order_line WHERE ol_o_id = ?", 3, 2),
];

/// One SQL session straight onto an engine (the cluster is only used to
/// load the data set).
struct OnEngine {
    engine: Arc<Engine>,
    txn: Cell<Option<TxnId>>,
    /// `(sql, locks, pages)` per statement text, first execution only.
    footprint: RefCell<Vec<(String, u64, u64)>>,
    /// Every UPDATE and DELETE, to be replayed against its reference (an
    /// INSERT has no access path to choose).
    writes: RefCell<Vec<(String, Vec<Value>)>>,
}

impl OnEngine {
    fn counters(&self) -> (u64, u64) {
        let e = &self.engine;
        (
            e.locks().stats().acquisitions,
            e.buffer().stats().accesses(),
        )
    }
}

impl Transport for OnEngine {
    fn begin(&self) -> Result<(), ClusterError> {
        self.txn.set(Some(self.engine.begin()?));
        Ok(())
    }

    fn execute(&self, sql: &str, params: &[Value]) -> Result<QueryResult, ClusterError> {
        let txn = self.txn.get().ok_or(ClusterError::NoActiveTxn)?;
        // Measured on the chosen plan alone, then checked against the
        // scans: a read right here, a write once the run is over (its
        // reference must run, and be undone, outside this transaction).
        let (locks, pages) = self.counters();
        let result = tenantdb_sql::execute(&self.engine, txn, DB, sql, params)?;
        let (locks, pages) = (self.counters().0 - locks, self.counters().1 - pages);
        let mut seen = self.footprint.borrow_mut();
        if !seen.iter().any(|(s, ..)| s == sql) {
            seen.push((sql.to_string(), locks, pages));
        }
        if sql.starts_with("SELECT") {
            let checked = common::execute_checked(&self.engine, txn, DB, sql, params)?;
            assert_eq!(checked.rows.len(), result.rows.len(), "{sql}");
        } else if !sql.starts_with("INSERT") {
            self.writes
                .borrow_mut()
                .push((sql.to_string(), params.to_vec()));
        }
        Ok(result)
    }

    fn commit(&self) -> Result<(), ClusterError> {
        let txn = self.txn.take().ok_or(ClusterError::NoActiveTxn)?;
        Ok(self.engine.commit(txn)?)
    }

    fn rollback(&self) -> Result<(), ClusterError> {
        let txn = self.txn.take().ok_or(ClusterError::NoActiveTxn)?;
        Ok(self.engine.abort(txn)?)
    }

    fn in_txn(&self) -> bool {
        self.txn.get().is_some()
    }
}

/// Three rounds of every interaction over a 60-item store on one machine.
fn drive() -> OnEngine {
    let cluster = ClusterController::with_machines(ClusterConfig::for_tests(), 1);
    cluster.create_database(DB, 1).unwrap();
    let scale = Scale::with_items(60);
    let ids = IdCounters::from_space(setup_database(&cluster, DB, scale, 99).unwrap());
    let machine = cluster.machines().into_iter().next().unwrap();
    let conn = OnEngine {
        engine: Arc::clone(&machine.engine),
        txn: Cell::new(None),
        footprint: RefCell::new(Vec::new()),
        writes: RefCell::new(Vec::new()),
    };
    let mut rng = StdRng::seed_from_u64(1234);
    let mut session = Session {
        customer: 3,
        cart: None,
    };
    for _ in 0..3 {
        for kind in TxnType::ALL {
            run_txn(kind, &conn, &ids, scale, &mut session, &mut rng)
                .unwrap_or_else(|e| panic!("{kind:?} failed: {e}"));
        }
    }
    conn
}

#[test]
fn tpcw_statements_take_the_locks_and_pages_they_always_took() {
    let conn = drive();
    // The reads were checked as they ran; now the writes.
    let writes = conn.writes.into_inner();
    assert!(writes.iter().any(|(sql, _)| sql.starts_with("UPDATE")));
    assert!(writes.iter().any(|(sql, _)| sql.starts_with("DELETE")));
    for (sql, params) in &writes {
        let txn = conn.engine.begin().unwrap();
        common::execute_checked(&conn.engine, txn, DB, sql, params)
            .unwrap_or_else(|e| panic!("{sql}: {e}"));
        conn.engine.abort(txn).unwrap();
    }
    let footprint = conn.footprint.into_inner();
    if std::env::var_os("PRINT_FOOTPRINT").is_some() {
        for (sql, locks, pages) in &footprint {
            println!("    ({sql:?}, {locks}, {pages}),");
        }
    }
    let expected: Vec<(String, u64, u64)> = FOOTPRINT_BEFORE_THE_SPLIT
        .iter()
        .map(|&(sql, locks, pages)| (sql.to_string(), locks, pages))
        .collect();
    assert_eq!(footprint, expected);
}
