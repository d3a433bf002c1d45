//! The per-database plan cache as a client can observe it: what a
//! statement returns, which locks its execution takes (an index lookup and
//! a table scan differ), and the cluster's `tenantdb_plan_cache_*` counters.

use std::sync::Arc;

use tenantdb_cluster::metrics::{PLAN_CACHE_HITS, PLAN_CACHE_MISSES};
use tenantdb_cluster::{ClusterConfig, ClusterController, Connection};
use tenantdb_sql::StatementClass;
use tenantdb_storage::Value;

const BY_V: &str = "SELECT w FROM t WHERE v = ?";

fn cluster() -> Arc<ClusterController> {
    let c = ClusterController::with_machines(ClusterConfig::for_tests(), 2);
    c.create_database("app", 2).unwrap();
    c
}

/// `t` with the given column order; row `i` has `k = i`, `v = i % 5`,
/// `w = 'w<i>'`.
fn load(c: &Arc<ClusterController>, columns: &str, insert: &str) {
    c.ddl(
        "app",
        &format!("CREATE TABLE t ({columns}, PRIMARY KEY (k))"),
    )
    .unwrap();
    let conn = c.connect("app").unwrap();
    for i in 0..20 {
        let (k, v, w) = (
            Value::Int(i),
            Value::Int(i % 5),
            Value::from(format!("w{i}")),
        );
        conn.execute(insert, &[k, v, w]).unwrap();
    }
}

/// `[hits, misses]` so far.
fn counters(c: &ClusterController) -> [u64; 2] {
    [PLAN_CACHE_HITS, PLAN_CACHE_MISSES].map(|name| c.metrics().registry().counter_sum(name, &[]))
}

/// Lock acquisitions so far, over every machine (a read runs on one).
fn lock_acquisitions(c: &ClusterController) -> u64 {
    c.machines()
        .iter()
        .map(|m| m.engine.locks().stats().acquisitions)
        .sum()
}

/// Run [`BY_V`] for `v = 3`: its rows, sorted, and the locks it acquired.
fn by_v(c: &ClusterController, conn: &Connection) -> (Vec<Value>, u64) {
    let before = lock_acquisitions(c);
    let r = conn.execute(BY_V, &[Value::Int(3)]).unwrap();
    let mut ws: Vec<Value> = r.rows.into_iter().map(|mut row| row.remove(0)).collect();
    ws.sort();
    (ws, lock_acquisitions(c) - before)
}

fn expected_ws() -> Vec<Value> {
    let mut ws: Vec<Value> = [3, 8, 13, 18]
        .map(|i| Value::from(format!("w{i}")))
        .to_vec();
    ws.sort();
    ws
}

#[test]
fn a_statement_is_bound_once_per_database_and_ddl_starts_over() {
    let c = cluster();
    load(
        &c,
        "k INT NOT NULL, v INT, w TEXT",
        "INSERT INTO t VALUES (?, ?, ?)",
    );
    let conn = c.connect("app").unwrap();

    // Warm: bound on first sight, served from the cache afterwards — to
    // this connection, to another one, and to the classification query.
    let [hits, misses] = counters(&c);
    let (ws, scan_locks) = by_v(&c, &conn);
    assert_eq!(ws, expected_ws());
    assert_eq!(scan_locks, 1, "no index on v yet: one table S lock");
    assert_eq!(counters(&c), [hits, misses + 1]);
    let other = c.connect("app").unwrap();
    assert_eq!(by_v(&c, &other).0, expected_ws());
    assert_eq!(other.statement_class(BY_V).unwrap(), StatementClass::Read);
    assert_eq!(counters(&c), [hits + 2, misses + 1]);

    // CREATE INDEX through a connection: every cached plan of the database
    // is dropped, the statement is bound again — and now uses the index
    // (table IS + key S + one S per matching row, no table S lock).
    conn.execute("CREATE INDEX by_v ON t (v)", &[]).unwrap();
    let [hits, misses] = counters(&c);
    let (ws, index_locks) = by_v(&c, &conn);
    assert_eq!(ws, expected_ws());
    assert_eq!(index_locks, 2 + 4, "the new index is used");
    assert_eq!(counters(&c), [hits, misses + 1]);
    assert_eq!(by_v(&c, &other), (expected_ws(), index_locks));
    assert_eq!(counters(&c), [hits + 1, misses + 1]);
}

#[test]
fn a_recreated_database_never_sees_its_predecessors_plans() {
    let c = cluster();
    load(
        &c,
        "k INT NOT NULL, v INT, w TEXT",
        "INSERT INTO t VALUES (?, ?, ?)",
    );
    let survivor = c.connect("app").unwrap();
    assert_eq!(by_v(&c, &survivor).0, expected_ws());
    survivor.execute("CREATE INDEX by_v ON t (v)", &[]).unwrap();
    assert_eq!(by_v(&c, &survivor).0, expected_ws());

    // Same name, same table name, another column order and no index: a
    // plan of the old database would read `k` where `w` now is.
    c.drop_database("app").unwrap();
    c.create_database("app", 2).unwrap();
    load(
        &c,
        "w TEXT, v INT, k INT NOT NULL",
        "INSERT INTO t (k, v, w) VALUES (?, ?, ?)",
    );
    let fresh = c.connect("app").unwrap();
    for conn in [&fresh, &survivor] {
        let (ws, locks) = by_v(&c, conn);
        assert_eq!(ws, expected_ws());
        assert_eq!(locks, 1, "the new table has no index on v");
    }
    // ... and it gets its own index like any other database.
    fresh.execute("CREATE INDEX by_v ON t (v)", &[]).unwrap();
    for conn in [&survivor, &fresh] {
        assert_eq!(by_v(&c, conn), (expected_ws(), 2 + 4));
    }
}

#[test]
fn errors_bind_nothing_and_poison_nothing() {
    let c = cluster();
    load(
        &c,
        "k INT NOT NULL, v INT, w TEXT",
        "INSERT INTO t VALUES (?, ?, ?)",
    );
    let conn = c.connect("app").unwrap();
    // Unparseable and unbindable statements fail the same way every time,
    // inside or outside a transaction, and leave the transaction usable.
    conn.begin().unwrap();
    for _ in 0..2 {
        assert!(conn.execute("SELEKT 1", &[]).is_err());
        assert!(conn.execute("SELECT nope FROM t", &[]).is_err());
        assert!(conn.statement_class("SELECT 1 FROM missing").is_err());
    }
    conn.execute("INSERT INTO t VALUES (100, 3, 'w100')", &[])
        .unwrap();
    conn.commit().unwrap();
    assert_eq!(by_v(&c, &conn).0.len(), 5);
}
