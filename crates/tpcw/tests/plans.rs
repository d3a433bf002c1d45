//! Plans can change neither results nor locks, shown on the statements
//! TPC-W actually issues: every interaction of the mix is driven through a
//! [`Transport`] that sits on one bare engine and
//!
//! * runs each statement's chosen plan against its forced-scan reference
//!   (`common::execute_checked`, shared with `crates/sql/tests`) — reads on
//!   the spot, writes replayed afterwards, each in a transaction of its own
//!   that is rolled back —,
//! * counts the lock acquisitions and buffer-pool page accesses of each
//!   statement text's first execution, which must equal what the
//!   interpretive executor took before the plan/run split — Table 1, the
//!   phantom-protection tests and the deadlock shapes of Figures 5–7 rest
//!   on the executor taking exactly these locks — and
//! * keeps what BestSellers and NewProducts answered, which must equal what
//!   they answered before ranking kept only the top LIMIT, row for row.
//!
//! The data set, the parameter stream and the order of interactions are
//! fixed by seeds, so the counts and the answers repeat exactly.
//!
//! One count is pinned beyond the fresh store: OrderInquiry's "latest
//! order" statement, whose footprint must not grow with the customer's
//! order history (the index walk stops at LIMIT).

#[path = "../../sql/tests/common/mod.rs"]
mod common;

use std::cell::{Cell, RefCell};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use tenantdb_cluster::{ClusterConfig, ClusterController, ClusterError, Transport};
use tenantdb_sql::{parse, plan, QueryResult};
use tenantdb_storage::{Engine, TxnId, Value};
use tenantdb_tpcw::{run_txn, setup_database, IdCounters, Scale, Session, TxnType};

const DB: &str = "shop";

const LATEST_ORDER: &str =
    "SELECT o_id, o_total, o_status FROM orders WHERE o_c_id = ? ORDER BY o_id DESC LIMIT 1";
const NEW_PRODUCTS: &str = "SELECT i_id, i_title, i_pub_date FROM item WHERE i_subject = ? \
                            ORDER BY i_pub_date DESC LIMIT 10";
const BEST_SELLERS: &str = "SELECT ol_i_id, SUM(ol_qty) AS sold FROM order_line \
                            WHERE ol_o_id >= ? GROUP BY ol_i_id ORDER BY sold DESC LIMIT 5";

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

/// `OnEngine::ranked` after [`drive`] — recorded by
/// running this harness on the commit before top-K ranking (`PRINT_ANSWERS`
/// prints them).
const ANSWERS_BEFORE_TOP_K: &[(&str, &[&str])] = &[
    (
        "new",
        &[
            "29 'title-29' 3198",
            "53 'title-53' 2988",
            "27 'title-27' 2803",
            "35 'title-35' 2241",
            "12 'title-12' 2204",
            "13 'title-13' 1342",
            "58 'title-58' 312",
            "1 'title-1' 129",
        ],
    ),
    ("best", &["33 6", "20 5", "25 5", "39 5", "43 4"]),
    ("new", &["14 'title-14' 3228", "34 'title-34' 1403"]),
    ("best", &["33 6", "20 5", "25 5", "39 5", "43 4"]),
    ("new", &["7 'title-7' 3505"]),
    ("best", &["34 7", "33 6", "6 5", "25 5", "39 5"]),
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
    /// What BestSellers ("best") and NewProducts ("new") answered, in
    /// order, each row printed as its values separated by spaces.
    ranked: RefCell<Vec<(&'static str, Vec<String>)>>,
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
            let kind = [(BEST_SELLERS, "best"), (NEW_PRODUCTS, "new")]
                .into_iter()
                .find_map(|(s, kind)| (s == sql).then_some(kind));
            if let Some(kind) = kind {
                let shown = |r: &Vec<Value>| {
                    let values: Vec<String> = r.iter().map(Value::to_string).collect();
                    values.join(" ")
                };
                let rows = result.rows.iter().map(shown).collect();
                self.ranked.borrow_mut().push((kind, rows));
            }
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

/// A fresh 60-item store on one machine: its engine, its id counters and
/// its scale.
fn store() -> (Arc<Engine>, Arc<IdCounters>, Scale) {
    let cluster = ClusterController::with_machines(ClusterConfig::for_tests(), 1);
    cluster.create_database(DB, 1).unwrap();
    let scale = Scale::with_items(60);
    let ids = IdCounters::from_space(setup_database(&cluster, DB, scale, 99).unwrap());
    let machine = cluster.machines().into_iter().next().unwrap();
    (Arc::clone(&machine.engine), ids, scale)
}

/// Three rounds of every interaction over the store.
fn drive() -> OnEngine {
    let (engine, ids, scale) = store();
    let conn = OnEngine {
        engine,
        txn: Cell::new(None),
        footprint: RefCell::new(Vec::new()),
        writes: RefCell::new(Vec::new()),
        ranked: RefCell::new(Vec::new()),
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

/// OrderInquiry's first statement is answered by walking the customer's
/// postings backwards and stopping at the first: table IS, key S, one row
/// S, whether the customer placed one order or a thousand. NewProducts
/// orders by a column its index does not, so it fetches the subject's
/// items and sorts, as it always did (its pinned `(10, 9)` above).
#[test]
fn latest_order_costs_the_same_after_a_thousand_orders() {
    let (engine, ids, _) = store();
    let explain = |sql: &str| {
        let bound = plan(&engine, DB, &parse(sql).unwrap()).unwrap();
        bound.explain(&engine).unwrap()
    };
    assert_eq!(
        explain(LATEST_ORDER),
        "orders: index by_customer = (?1), ordered desc by o_id, stops at LIMIT 1\n"
    );
    assert_eq!(
        explain(NEW_PRODUCTS),
        "item: index by_subject = (?1), top 10 by i_pub_date desc\n"
    );

    // A customer the generator gave no orders.
    let customer = Value::Int(1_000_000);
    let (mut placed, mut latest) = (0, 0);
    for orders in [1, 50, 1_000] {
        let txn = engine.begin().unwrap();
        while placed < orders {
            // ordering: Relaxed — a single-threaded id source.
            latest = ids.order.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let params = [Value::Int(latest), customer.clone(), Value::Float(9.5)];
            let sql = "INSERT INTO orders VALUES (?, ?, 0, ?, 'pending')";
            tenantdb_sql::execute(&engine, txn, DB, sql, &params).unwrap();
            placed += 1;
        }
        engine.commit(txn).unwrap();

        let counters = || {
            (
                engine.locks().stats().acquisitions,
                engine.buffer().stats().accesses(),
            )
        };
        let txn = engine.begin().unwrap();
        let before = counters();
        let params = std::slice::from_ref(&customer);
        let r = tenantdb_sql::execute(&engine, txn, DB, LATEST_ORDER, params).unwrap();
        let (locks, pages) = (counters().0 - before.0, counters().1 - before.1);
        engine.commit(txn).unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0][0], Value::Int(latest), "after {orders} orders");
        assert_eq!(locks, 3, "after {orders} orders");
        assert!(pages <= 3, "{pages} page accesses after {orders} orders");
    }
}

/// BestSellers and NewProducts, the two statements that rank, answer on the
/// seeded store exactly what they answered when they sorted every group and
/// every row (recorded at the commit before top-K ranking): the same rows
/// in the same order, ties included.
#[test]
fn tpcw_rankings_answer_what_they_always_answered() {
    let answers = drive().ranked.into_inner();
    if std::env::var_os("PRINT_ANSWERS").is_some() {
        for (kind, rows) in &answers {
            println!("    ({kind:?}, &{rows:?}),");
        }
    }
    let expected: Vec<(&str, Vec<String>)> = ANSWERS_BEFORE_TOP_K
        .iter()
        .map(|(kind, rows)| (*kind, rows.iter().map(|r| r.to_string()).collect()))
        .collect();
    assert_eq!(answers, expected);
}
