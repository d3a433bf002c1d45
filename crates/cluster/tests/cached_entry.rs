//! A connection resolves its database's controller entry once and caches
//! its route; these tests hold that cache to what looking everything up
//! by name on every statement did: a copy-state change reaches the next
//! write even while a quiesce is still draining, a DDL through the
//! controller reaches a connection opened before it, a dropped and
//! re-created name is served like the new database it is, and an SLA
//! installed after `connect` gates that connection's next transaction.

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use tenantdb_cluster::{
    ClusterConfig, ClusterController, ClusterError, Connection, MachineId, PoolConfig,
};
use tenantdb_sla::Sla;
use tenantdb_storage::Value;

const DB: &str = "app";

/// Rows of `table` on machine `m`, sorted.
fn rows(c: &ClusterController, m: MachineId, table: &str) -> Vec<Vec<Value>> {
    let e = &c.machine(m).unwrap().engine;
    let scanned = e.with_txn(|t| e.scan(t, DB, table)).unwrap();
    let mut rows: Vec<Vec<Value>> = scanned.into_iter().map(|(_, row)| row).collect();
    rows.sort();
    rows
}

/// Lock acquisitions so far, over every machine (a read runs on one).
fn lock_acquisitions(c: &ClusterController) -> u64 {
    c.machines()
        .iter()
        .map(|m| m.engine.locks().stats().acquisitions)
        .sum()
}

/// `app` on machines 0 and 1 with tables `t` and `u`, and machine 2 ready
/// to receive a copy (the database and both tables, no rows).
fn copy_fixture() -> Arc<ClusterController> {
    let c = ClusterController::with_machines(ClusterConfig::for_tests(), 3);
    c.create_database_on(DB, &[MachineId(0), MachineId(1)])
        .unwrap();
    let tables = [
        "CREATE TABLE t (k INT NOT NULL, v INT, PRIMARY KEY (k))",
        "CREATE TABLE u (k INT NOT NULL, v INT, PRIMARY KEY (k))",
    ];
    for ddl in tables {
        c.ddl(DB, ddl).unwrap();
    }
    let target = &c.machine(MachineId(2)).unwrap().engine;
    target.create_database(DB).unwrap();
    for ddl in tables {
        target
            .with_txn(|t| {
                tenantdb_sql::execute(target, t, DB, ddl, &[])
                    .map(|_| ())
                    .map_err(|_| tenantdb_storage::StorageError::Unavailable)
            })
            .unwrap();
    }
    c
}

/// (a) The connection routed its writes before the copy began. While a
/// quiesce after `set_copy_current(t)` is still waiting out a write that
/// entered the routing barrier before it, the connection's next write to
/// `t` is rejected and its next write to the already-copied `u` also lands
/// on the copy target: the copy-state change bumped the routing epoch
/// before the barrier flipped.
#[test]
fn a_cached_route_sees_a_copy_state_change_before_the_quiesce_ends() {
    let c = copy_fixture();
    let conn = c.connect(DB).unwrap();
    conn.execute("INSERT INTO t VALUES (1, 1)", &[]).unwrap();
    conn.execute("INSERT INTO u VALUES (1, 1)", &[]).unwrap();

    c.begin_copy(DB, Some(MachineId(2)), false).unwrap();
    c.mark_copied(DB, "u");

    // A write parked in the barrier: blocked on a row lock `holder` keeps.
    let holder = c.connect(DB).unwrap();
    holder.begin().unwrap();
    holder
        .execute("UPDATE u SET v = 2 WHERE k = 1", &[])
        .unwrap();
    thread::scope(|s| {
        let parked = s.spawn(|| {
            let conn = c.connect(DB).unwrap();
            conn.execute("UPDATE u SET v = 3 WHERE k = 1", &[])
        });
        thread::sleep(Duration::from_millis(100));
        let quiesce = s.spawn(|| {
            c.set_copy_current(DB, Some("t"));
            c.quiesce_routing();
        });
        let deadline = Instant::now() + Duration::from_secs(1);
        while c.copy_progress(DB).unwrap().current.is_none() {
            assert!(Instant::now() < deadline, "set_copy_current never applied");
            thread::yield_now();
        }
        // Let the quiesce flip the barrier; it then waits for `parked`.
        thread::sleep(Duration::from_millis(50));
        assert!(!quiesce.is_finished(), "the quiesce must still be draining");

        let err = conn
            .execute("INSERT INTO t VALUES (2, 2)", &[])
            .unwrap_err();
        assert!(
            matches!(&err, ClusterError::WriteRejected { table, .. } if table == "t"),
            "{err}"
        );
        conn.execute("INSERT INTO u VALUES (2, 2)", &[]).unwrap();

        holder.rollback().unwrap();
        parked.join().unwrap().unwrap();
        quiesce.join().unwrap();
    });
    // The parked update found no row 1 on the target; the insert landed.
    assert_eq!(
        rows(&c, MachineId(2), "u"),
        vec![vec![Value::Int(2), Value::Int(2)]]
    );
}

/// `app` with `t (k, v, w)` holding 20 rows, `v = k % 5`.
fn indexed_fixture(c: &Arc<ClusterController>, columns: &str, insert: &str) {
    c.ddl(DB, &format!("CREATE TABLE t ({columns}, PRIMARY KEY (k))"))
        .unwrap();
    let conn = c.connect(DB).unwrap();
    for i in 0..20 {
        let row = [
            Value::Int(i),
            Value::Int(i % 5),
            Value::from(format!("w{i}")),
        ];
        conn.execute(insert, &row).unwrap();
    }
}

/// `SELECT w FROM t WHERE v = 3` on `conn`: its values sorted, and the
/// locks it took.
fn by_v(c: &ClusterController, conn: &Connection) -> (Vec<Value>, u64) {
    let before = lock_acquisitions(c);
    let r = conn
        .execute("SELECT w FROM t WHERE v = ?", &[Value::Int(3)])
        .unwrap();
    let mut ws: Vec<Value> = r.rows.into_iter().map(|mut row| row.remove(0)).collect();
    ws.sort();
    (ws, lock_acquisitions(c) - before)
}

fn expected_ws() -> Vec<Value> {
    let mut ws: Vec<Value> = [13, 18, 3, 8]
        .map(|i| Value::from(format!("w{i}")))
        .to_vec();
    ws.sort();
    ws
}

/// (b) A connection that cached its plan before `CREATE INDEX` ran through
/// the controller (not through it) runs the re-bound plan: the index
/// lookup's locks, not the table scan's one table lock.
#[test]
fn a_connection_opened_before_create_index_runs_the_rebound_plan() {
    let c = ClusterController::with_machines(ClusterConfig::for_tests(), 2);
    c.create_database(DB, 2).unwrap();
    indexed_fixture(
        &c,
        "k INT NOT NULL, v INT, w TEXT",
        "INSERT INTO t VALUES (?, ?, ?)",
    );
    let conn = c.connect(DB).unwrap();
    assert_eq!(by_v(&c, &conn), (expected_ws(), 1), "no index yet: a scan");
    c.ddl(DB, "CREATE INDEX by_v ON t (v)").unwrap();
    assert_eq!(by_v(&c, &conn), (expected_ws(), 2 + 4), "the index is used");
}

/// (c) Dropping the database under an open connection and re-creating the
/// name: in between, a transaction still begins and a statement fails as
/// for an unknown database; afterwards the connection is served by the
/// new database — its schema, its DDL, no gate of the old one's SLA — and
/// its outcomes keep counting under the name.
#[test]
fn a_dropped_and_recreated_name_is_served_as_the_new_database() {
    let c = ClusterController::with_machines(ClusterConfig::for_tests(), 2);
    c.create_database(DB, 2).unwrap();
    indexed_fixture(
        &c,
        "k INT NOT NULL, v INT, w TEXT",
        "INSERT INTO t VALUES (?, ?, ?)",
    );
    c.set_sla(DB, Sla::new(1_000.0, 0.1, Duration::from_secs(60)))
        .unwrap();
    let conn = c.connect(DB).unwrap();
    assert_eq!(by_v(&c, &conn).0, expected_ws());
    let committed = c.counters(DB).committed;

    c.drop_database(DB).unwrap();
    let err = conn.begin().unwrap_err();
    assert!(matches!(err, ClusterError::NoSuchDatabase(_)), "{err}");
    let err = conn.execute("SELECT w FROM t", &[]).unwrap_err();
    assert!(matches!(err, ClusterError::NoSuchDatabase(_)), "{err}");

    // Same name and table, another column order.
    c.create_database(DB, 2).unwrap();
    indexed_fixture(
        &c,
        "w TEXT, v INT, k INT NOT NULL",
        "INSERT INTO t (k, v, w) VALUES (?, ?, ?)",
    );
    let gated = c.metrics().sla_admission_counters(DB).total();
    assert_eq!(by_v(&c, &conn), (expected_ws(), 1));
    assert_eq!(c.metrics().sla_admission_counters(DB).total(), gated);
    assert_eq!(c.counters(DB).committed, committed + 20 + 1);
    // The new database's DDL reaches the connection's plans.
    c.ddl(DB, "CREATE INDEX by_v ON t (v)").unwrap();
    assert_eq!(by_v(&c, &conn), (expected_ws(), 2 + 4));
}

/// (c) continued: with no statement of the connection between the drop
/// and the re-create, and the name re-created on a larger replica set, the
/// connection's next write reaches every new replica.
#[test]
fn a_recreated_name_on_other_machines_gets_every_write() {
    let c = ClusterController::with_machines(ClusterConfig::for_tests(), 3);
    let table = "CREATE TABLE t (k INT NOT NULL, v INT, PRIMARY KEY (k))";
    c.create_database_on(DB, &[MachineId(0)]).unwrap();
    c.ddl(DB, table).unwrap();
    let conn = c.connect(DB).unwrap();
    conn.execute("INSERT INTO t VALUES (1, 1)", &[]).unwrap();

    c.drop_database(DB).unwrap();
    let replicas = [MachineId(0), MachineId(1), MachineId(2)];
    c.create_database_on(DB, &replicas).unwrap();
    c.ddl(DB, table).unwrap();
    conn.execute("INSERT INTO t VALUES (2, 2)", &[]).unwrap();
    for m in replicas {
        assert_eq!(
            rows(&c, m, "t"),
            vec![vec![Value::Int(2), Value::Int(2)]],
            "replica {m:?}"
        );
    }
}

/// A route is not bounded by a machine word: a write on a 65-replica
/// database lands on every replica.
#[test]
fn a_write_reaches_every_replica_of_a_wide_placement() {
    let cfg = ClusterConfig::for_tests().with_pool(PoolConfig::fixed(1));
    let c = ClusterController::with_machines(cfg, 65);
    c.create_database(DB, 65).unwrap();
    let table = "CREATE TABLE t (k INT NOT NULL, v INT, PRIMARY KEY (k))";
    c.ddl(DB, table).unwrap();
    let conn = c.connect(DB).unwrap();
    conn.execute("INSERT INTO t VALUES (1, 1)", &[]).unwrap();
    for m in c.placement(DB).unwrap().replicas {
        assert_eq!(rows(&c, m, "t").len(), 1, "replica {m:?}");
    }
}

/// (d) An SLA installed after `connect` gates that connection's next
/// `begin`.
#[test]
fn an_sla_installed_after_connect_gates_the_next_begin() {
    let c = ClusterController::with_machines(ClusterConfig::for_tests(), 2);
    c.create_database(DB, 2).unwrap();
    let conn = c.connect(DB).unwrap();
    conn.begin().unwrap();
    conn.commit().unwrap();
    assert_eq!(c.metrics().sla_admission_counters(DB).total(), 0);

    c.set_sla(DB, Sla::new(1_000.0, 0.1, Duration::from_secs(60)))
        .unwrap();
    conn.begin().unwrap();
    conn.commit().unwrap();
    assert_eq!(c.metrics().sla_admission_counters(DB).total(), 1);
}
