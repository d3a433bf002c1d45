//! Loopback two-colo end-to-end: the ISSUE's acceptance scenario.
//!
//! Two platform [`Colo`]s stand in for the two physical locations. The
//! primary colo hosts the database and ships its WAL over real loopback
//! TCP to the standby colo's [`GeoStandbyServer`]. The tests then exercise
//! the full disaster-recovery story:
//!
//! * **unplanned colo loss** — every commit the standby acked is readable
//!   on the promoted standby, and the data loss is bounded by the measured
//!   stream lag;
//! * **planned failover** — the fenced old primary rejects every write
//!   shape (DML, DDL, database create) while reads stay up, and the stale
//!   stream is fenced at its next handshake;
//! * **crash-point resilience** — `GeoShipBatch` and `GeoApplyBatch`
//!   crashes sever the stream without losing or duplicating records: the
//!   next sync resumes from the cumulative ack.

use std::sync::Arc;

use tenantdb_cluster::fault::{CrashPoint, FaultAction, FaultPlan, Trigger, GEO};
use tenantdb_cluster::{ClusterConfig, ClusterController};
use tenantdb_georep::{promote, GeoError, GeoMetrics, GeoStandbyServer, GeoTcpLink, Shipper};
use tenantdb_obs::MetricsRegistry;
use tenantdb_platform::{Colo, ColoId};
use tenantdb_storage::Value;

fn colo(id: u32, name: &str) -> Colo {
    Colo::new(
        ColoId(id),
        name,
        (id as f64, 0.0),
        ClusterConfig::for_tests(),
        1,
        3,
    )
}

fn metrics() -> GeoMetrics {
    GeoMetrics::new(Arc::new(MetricsRegistry::new()))
}

fn count(c: &Arc<ClusterController>, db: &str, table: &str) -> i64 {
    let conn = c.connect(db).unwrap();
    let out = conn
        .execute(&format!("SELECT COUNT(*) FROM {table}"), &[])
        .unwrap();
    match out.rows[0][0] {
        Value::Int(n) => n,
        ref v => panic!("unexpected COUNT result {v:?}"),
    }
}

/// The headline invariant: after losing the primary colo, every commit the
/// standby acknowledged is readable on the promoted standby, and the rows
/// lost are bounded by the lag measured just before the disaster.
#[test]
fn acked_commits_survive_colo_loss_within_the_lag_bound() {
    let east = colo(0, "east");
    let west = colo(1, "west");
    east.create_database("app", 2, None).unwrap();
    let primary = east.cluster_for("app").unwrap();
    let standby = west.clusters().remove(0);

    let m = metrics();
    let server = GeoStandbyServer::serve(Arc::clone(&standby), 2, m.clone()).unwrap();
    let shipper = Shipper::new(Arc::clone(&primary), "app", m.clone()).unwrap();
    let mut link = GeoTcpLink::new(shipper, server.addr(), m.clone());

    primary
        .ddl(
            "app",
            "CREATE TABLE orders (id INT NOT NULL, item TEXT, PRIMARY KEY (id))",
        )
        .unwrap();
    let conn = primary.connect("app").unwrap();
    // A TPC-W-ish write mix: the order book fills, some orders are amended,
    // a few are cancelled.
    for i in 0..40 {
        conn.execute(&format!("INSERT INTO orders VALUES ({i}, 'book')"), &[])
            .unwrap();
    }
    for i in 0..10 {
        conn.execute(
            &format!("UPDATE orders SET item = 'amended' WHERE id = {i}"),
            &[],
        )
        .unwrap();
    }
    for i in 35..40 {
        conn.execute(&format!("DELETE FROM orders WHERE id = {i}"), &[])
            .unwrap();
    }
    link.sync().unwrap();
    assert_eq!(link.lag(), 0, "drained stream must show zero lag");
    assert_eq!(count(&standby, "app", "orders"), 35);

    // More commits land on the primary but never ship: the standby lags.
    for i in 100..115 {
        conn.execute(&format!("INSERT INTO orders VALUES ({i}, 'late')"), &[])
            .unwrap();
    }
    let lag = link.lag();
    assert!(
        lag >= 15,
        "15 unshipped rows must show up in the lag, got {lag}"
    );

    // Disaster: the primary colo goes dark. The stream has no source left.
    east.fail();
    assert!(link.sync().is_err());

    // Promote the standby; the old primary is unreachable.
    let out = promote(&standby, None, &server.appliers(), &m).unwrap();
    assert_eq!(out.epoch, 1);
    assert!(!out.fenced_old_primary);

    // Every acked commit survived — amendments and cancellations included —
    // and the loss is exactly the unacked tail, within the measured lag.
    assert_eq!(count(&standby, "app", "orders"), 35);
    let sconn = standby.connect("app").unwrap();
    let amended = sconn
        .execute("SELECT COUNT(*) FROM orders WHERE item = 'amended'", &[])
        .unwrap();
    assert_eq!(amended.rows[0][0], Value::Int(10));
    let lost = 15u64; // the unshipped inserts
    assert!(
        lost <= lag,
        "loss {lost} must be within the lag bound {lag}"
    );

    // The promoted standby is the write authority now.
    sconn
        .execute("INSERT INTO orders VALUES (200, 'post-failover')", &[])
        .unwrap();
    assert_eq!(count(&standby, "app", "orders"), 36);
}

/// Planned failover: the fence lands on the old primary, which then rejects
/// every write shape while reads stay up, and the stale stream is killed
/// with `GeoFenced` at its next handshake.
#[test]
fn planned_failover_fences_the_old_primary_but_reads_stay_up() {
    let east = colo(0, "east");
    let west = colo(1, "west");
    east.create_database("app", 2, None).unwrap();
    let primary = east.cluster_for("app").unwrap();
    let standby = west.clusters().remove(0);

    let m = metrics();
    let server = GeoStandbyServer::serve(Arc::clone(&standby), 2, m.clone()).unwrap();
    let shipper = Shipper::new(Arc::clone(&primary), "app", m.clone()).unwrap();
    let mut link = GeoTcpLink::new(shipper, server.addr(), m.clone());

    primary
        .ddl(
            "app",
            "CREATE TABLE orders (id INT NOT NULL, item TEXT, PRIMARY KEY (id))",
        )
        .unwrap();
    let conn = primary.connect("app").unwrap();
    for i in 0..20 {
        conn.execute(&format!("INSERT INTO orders VALUES ({i}, 'x')"), &[])
            .unwrap();
    }
    link.sync().unwrap();

    let out = promote(&standby, Some(&primary), &server.appliers(), &m).unwrap();
    assert!(out.fenced_old_primary);
    assert!(primary.is_geo_fenced());

    // Every write shape on the old primary is rejected with Fenced...
    let err = conn
        .execute("INSERT INTO orders VALUES (99, 'rejected')", &[])
        .unwrap_err();
    assert!(err.is_fenced(), "DML must be fenced, got {err}");
    let err = primary
        .ddl("app", "CREATE TABLE t2 (id INT NOT NULL, PRIMARY KEY (id))")
        .unwrap_err();
    assert!(err.is_fenced(), "DDL must be fenced, got {err}");
    let err = primary.create_database("newdb", 1).unwrap_err();
    assert!(err.is_fenced(), "database create must be fenced, got {err}");

    // ...but the read-only fallback stays up.
    assert_eq!(count(&primary, "app", "orders"), 20);

    // The stale stream handshakes with the old epoch and is fenced.
    link.sever();
    match link.sync() {
        Err(GeoError::Fenced { epoch }) => assert_eq!(epoch, out.epoch),
        other => panic!("stale stream must be fenced, got {other:?}"),
    }

    // The promoted standby carries the database forward.
    assert_eq!(count(&standby, "app", "orders"), 20);
    standby
        .connect("app")
        .unwrap()
        .execute("INSERT INTO orders VALUES (100, 'forward')", &[])
        .unwrap();
    assert_eq!(count(&standby, "app", "orders"), 21);
}

/// Stream crash points on both ends sever the stream mid-batch; the resume
/// protocol re-ships from the cumulative ack and the idempotent apply path
/// keeps the standby exact — no loss, no duplicates.
#[test]
fn severed_and_crashed_batches_resume_from_the_cumulative_ack() {
    let p = ClusterController::with_machines(ClusterConfig::for_tests(), 2);
    let s = ClusterController::with_machines(ClusterConfig::for_tests(), 2);
    p.create_database("app", 2).unwrap();
    p.ddl(
        "app",
        "CREATE TABLE t (id INT NOT NULL, v TEXT, PRIMARY KEY (id))",
    )
    .unwrap();

    let m = metrics();
    let server = GeoStandbyServer::serve(Arc::clone(&s), 2, m.clone()).unwrap();
    let shipper = Shipper::new(Arc::clone(&p), "app", m.clone()).unwrap();
    let mut link = GeoTcpLink::new(shipper, server.addr(), m.clone());

    let conn = p.connect("app").unwrap();
    for i in 0..5 {
        conn.execute(&format!("INSERT INTO t VALUES ({i}, 'a')"), &[])
            .unwrap();
    }

    // The shipper crashes before the batch leaves the primary.
    p.faults().arm(FaultPlan::new(vec![Trigger {
        point: CrashPoint::GeoShipBatch,
        machine: Some(GEO),
        after_hits: 0,
        action: FaultAction::Crash,
    }]));
    let err = link.sync().unwrap_err();
    assert!(matches!(err, GeoError::Severed(_)), "{err}");
    link.sync().unwrap();
    assert_eq!(count(&s, "app", "t"), 5);

    for i in 5..10 {
        conn.execute(&format!("INSERT INTO t VALUES ({i}, 'b')"), &[])
            .unwrap();
    }

    // The applier crashes before the batch applies: the connection drops
    // with no ack, and the re-shipped overlap is deduplicated.
    s.faults().arm(FaultPlan::new(vec![Trigger {
        point: CrashPoint::GeoApplyBatch,
        machine: Some(GEO),
        after_hits: 0,
        action: FaultAction::Crash,
    }]));
    let err = link.sync().unwrap_err();
    assert!(matches!(err, GeoError::Severed(_)), "{err}");
    link.sync().unwrap();
    assert_eq!(
        count(&s, "app", "t"),
        10,
        "resume must neither lose nor duplicate"
    );

    // The reconnects were counted.
    assert!(
        m.registry()
            .counter_value("tenantdb_georep_reconnects_total", &[("db", "app")])
            >= 2
    );
}
