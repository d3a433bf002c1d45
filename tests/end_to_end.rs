//! Cross-crate integration: the whole stack from the platform API down to
//! the storage engines, exercised together.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use tenantdb::cluster::{ClusterConfig, ClusterController, Outcome};
use tenantdb::georep::{
    promote, Applier, GeoLink, GeoMetrics, GeoStandbyServer, GeoTcpLink, Shipper,
};
use tenantdb::platform::{CreateOptions, PlatformConfig, SystemController};
use tenantdb::storage::Value;
use tenantdb::tpcw;

const WEST: (f64, f64) = (0.0, 0.0);

fn two_colo_platform() -> Arc<SystemController> {
    SystemController::new(
        PlatformConfig::for_tests(),
        &[("west", WEST), ("east", (100.0, 0.0))],
    )
}

/// The clusters hosting `db` in its primary and secondary colos.
fn dr_clusters(
    platform: &SystemController,
    db: &str,
) -> (Arc<ClusterController>, Arc<ClusterController>) {
    let hosting = |colo| platform.colo(colo).unwrap().cluster_for(db).unwrap();
    (
        hosting(platform.primary_colo(db).unwrap()),
        hosting(platform.secondary_colo(db).unwrap()),
    )
}

/// `db`'s DR stream: the WAL of its primary cluster shipped to the standby
/// the platform reserved in the secondary colo.
fn geo_link(platform: &SystemController, db: &str, metrics: &GeoMetrics) -> GeoLink {
    let (primary, standby) = dr_clusters(platform, db);
    let shipper = Shipper::new(primary, db, metrics.clone()).unwrap();
    let applier = Applier::new(standby, db, 1, metrics.clone());
    GeoLink::new(shipper, Arc::new(Mutex::new(applier)), metrics.clone())
}

fn geo_metrics() -> GeoMetrics {
    GeoMetrics::new(Arc::new(tenantdb_obs::MetricsRegistry::new()))
}

fn count(cluster: &Arc<ClusterController>, db: &str) -> Value {
    let conn = cluster.connect(db).unwrap();
    let r = conn.execute("SELECT COUNT(*) FROM t", &[]).unwrap();
    r.rows[0][0].clone()
}

#[test]
fn platform_hosts_many_small_applications() {
    // The paper's headline: many small apps, each with SQL + ACID, sharing
    // the platform.
    let platform = two_colo_platform();
    let n_apps = 12;
    for i in 0..n_apps {
        platform
            .create_database(&format!("app{i}"), WEST, CreateOptions::default())
            .unwrap();
        let conn = platform.connect(&format!("app{i}"), WEST).unwrap();
        conn.execute(
            "CREATE TABLE t (id INT NOT NULL, owner TEXT, PRIMARY KEY (id))",
            &[],
        )
        .unwrap();
        conn.begin().unwrap();
        for r in 0..20 {
            conn.execute(
                "INSERT INTO t VALUES (?, ?)",
                &[Value::Int(r), Value::Text(format!("app{i}"))],
            )
            .unwrap();
        }
        conn.commit().unwrap();
    }
    // Each app sees exactly its own data (tenant isolation by database).
    for i in 0..n_apps {
        let conn = platform.connect(&format!("app{i}"), WEST).unwrap();
        let r = conn
            .execute("SELECT COUNT(*), MIN(owner) FROM t", &[])
            .unwrap();
        assert_eq!(r.rows[0][0], Value::Int(20));
        assert_eq!(r.rows[0][1], Value::Text(format!("app{i}")));
    }
    // DR shipping moves everything to the secondary colo, one stream per
    // database.
    let metrics = geo_metrics();
    for i in 0..n_apps {
        let db = format!("app{i}");
        geo_link(&platform, &db, &metrics).sync().unwrap();
        let (_, standby) = dr_clusters(&platform, &db);
        assert_eq!(count(&standby, &db), Value::Int(20), "{db}");
    }
}

#[test]
fn tpcw_workload_preserves_replica_consistency_and_invariants() {
    let cluster = ClusterController::with_machines(ClusterConfig::for_tests(), 3);
    let workloads =
        tpcw::setup_tpcw_databases(&cluster, 2, 2, tpcw::Scale::with_items(80), 11).unwrap();
    let report = tpcw::run_workload(
        &cluster,
        &workloads,
        &tpcw::WorkloadConfig {
            mix: &tpcw::ORDERING,
            sessions_per_db: 3,
            duration: Duration::from_millis(800),
            seed: 5,
        },
    );
    assert!(report.committed > 20, "{report:?}");

    for w in &workloads {
        // 1. Replicas logically identical. (Physical row ids may differ for
        //    concurrent non-conflicting inserts — the same artifact MySQL
        //    auto-increment shows under statement-based replication — so the
        //    comparison is over sorted row *values*.)
        let replicas = cluster.alive_replicas(&w.db).unwrap();
        assert_eq!(replicas.len(), 2);
        let mut snapshots = Vec::new();
        for id in &replicas {
            let m = cluster.machine(*id).unwrap();
            let t = m.engine.begin().unwrap();
            let snap: Vec<Vec<Vec<Value>>> = tpcw::schema::TABLES
                .iter()
                .map(|tbl| {
                    let mut rows: Vec<Vec<Value>> = m
                        .engine
                        .scan(t, &w.db, tbl)
                        .unwrap()
                        .into_iter()
                        .map(|(_, r)| r)
                        .collect();
                    rows.sort();
                    rows
                })
                .collect();
            m.engine.commit(t).unwrap();
            snapshots.push(snap);
        }
        assert_eq!(snapshots[0], snapshots[1], "replicas of {} diverged", w.db);

        // 2. Relational invariants: every order has lines and a cc entry;
        //    order totals are non-negative.
        let conn = cluster.connect(&w.db).unwrap();
        let orders = conn
            .execute("SELECT COUNT(*) FROM orders", &[])
            .unwrap()
            .rows[0][0]
            .clone();
        let with_lines = conn
            .execute(
                "SELECT COUNT(*) FROM orders o JOIN order_line ol ON ol.ol_o_id = o.o_id",
                &[],
            )
            .unwrap();
        assert!(with_lines.rows[0][0].as_i64().unwrap() >= orders.as_i64().unwrap());
        let bad_totals = conn
            .execute("SELECT COUNT(*) FROM orders WHERE o_total < 0", &[])
            .unwrap();
        assert_eq!(bad_totals.rows[0][0], Value::Int(0));
    }
}

#[test]
fn machine_failure_is_masked_and_recovered_under_load() {
    use tenantdb::cluster::{recover_machine, CopyGranularity, RecoveryConfig};
    use tenantdb::storage::Throttle;

    let cluster = ClusterController::with_machines(ClusterConfig::for_tests(), 4);
    let workloads =
        tpcw::setup_tpcw_databases(&cluster, 3, 2, tpcw::Scale::with_items(60), 3).unwrap();

    // Run workload in the background.
    let cluster2 = Arc::clone(&cluster);
    let wl: Vec<tpcw::DbWorkload> = workloads
        .iter()
        .map(|w| tpcw::DbWorkload {
            db: w.db.clone(),
            ids: Arc::clone(&w.ids),
            scale: w.scale,
        })
        .collect();
    let bg = std::thread::spawn(move || {
        tpcw::run_workload(
            &cluster2,
            &wl,
            &tpcw::WorkloadConfig {
                mix: &tpcw::SHOPPING,
                sessions_per_db: 2,
                duration: Duration::from_millis(1500),
                seed: 77,
            },
        )
    });
    std::thread::sleep(Duration::from_millis(300));

    let victim = cluster
        .machine_ids()
        .into_iter()
        .max_by_key(|&m| cluster.databases_on(m).len())
        .unwrap();
    let lost = cluster.databases_on(victim);
    assert!(!lost.is_empty());
    cluster.fail_machine(victim).unwrap();

    let report = recover_machine(
        &cluster,
        victim,
        RecoveryConfig {
            granularity: CopyGranularity::TableLevel,
            threads: 2,
            throttle: Throttle::new(20_000),
        },
    );
    assert_eq!(
        report.recovered.len(),
        lost.len(),
        "failed: {:?}",
        report.failed
    );

    let bg_report = bg.join().unwrap();
    assert!(bg_report.committed > 0);

    // Every database is back to 2 replicas and they are identical.
    for w in &workloads {
        let replicas = cluster.alive_replicas(&w.db).unwrap();
        assert_eq!(replicas.len(), 2, "{}", w.db);
        let keys: Vec<TableKeys> = replicas
            .iter()
            .map(|&id| primary_keys(&cluster.machine(id).unwrap().engine, &w.db))
            .collect();
        let sums: Vec<usize> = keys
            .iter()
            .map(|tables| tables.iter().map(|(_, k)| k.len()).sum())
            .collect();
        assert_eq!(
            sums[0],
            sums[1],
            "{}",
            divergence(&w.db, &replicas, &keys, &report)
        );
    }
}

/// Each TPC-W table's primary keys on one replica.
type TableKeys = Vec<(&'static str, BTreeSet<Vec<Value>>)>;

fn primary_keys(engine: &tenantdb::storage::Engine, db: &str) -> TableKeys {
    let t = engine.begin().unwrap();
    let keys = tpcw::schema::TABLES
        .iter()
        .map(|&tbl| {
            let schema = engine.table(db, tbl).unwrap().schema.clone();
            let (_, pk) = schema.primary_key().expect("every TPC-W table has one");
            let rows = engine.scan(t, db, tbl).unwrap();
            let keys = rows.iter().map(|(_, row)| schema.index_key(pk, row));
            (tbl, keys.collect())
        })
        .collect();
    engine.commit(t).unwrap();
    keys
}

/// Which replica is which, where the recovery copied `db` to, and, for
/// every table that differs, the primary keys only one side holds.
fn divergence(
    db: &str,
    replicas: &[tenantdb::cluster::MachineId],
    keys: &[TableKeys],
    report: &tenantdb::cluster::RecoveryReport,
) -> String {
    let (a, b) = (replicas[0], replicas[1]);
    let copied_to = match report.recovered.iter().find(|(d, ..)| d == db) {
        Some((_, target, _)) => format!("copied to {target}"),
        None => "not copied".to_string(),
    };
    let mut out = format!("replica row counts diverged for {db} on {a} and {b} ({copied_to}):");
    for ((table, ka), (_, kb)) in keys[0].iter().zip(&keys[1]) {
        if ka != kb {
            let only = |x: &BTreeSet<Vec<Value>>, y| x.difference(y).cloned().collect::<Vec<_>>();
            out += &format!(
                "\n  {table}: {} vs {} rows; only on {a}: {:?}; only on {b}: {:?}",
                ka.len(),
                kb.len(),
                only(ka, kb),
                only(kb, ka)
            );
        }
    }
    out
}

/// 2PC atomicity at every crash point of a commit, its coordinator's
/// decision and the takeover: every scripted scenario that fires one of
/// them runs, and its checks hold — replicas converged, acked commits
/// durable, no decision, marker or tombstone left after quiesce.
#[test]
fn every_2pc_crash_point_keeps_commits_atomic() {
    use tenantdb::cluster::CrashPoint::*;
    let points = [
        PrepareApply,
        PrepareAck,
        CommitDecision,
        CommitApply,
        CommitAck,
        TakeoverCommit,
    ];
    let scenarios = tenantdb::sim::all_scenarios();
    let twopc: Vec<_> = (scenarios.iter())
        .filter(|s| s.fires.iter().any(|p| points.contains(p)))
        .collect();
    for p in points {
        assert!(
            twopc.iter().any(|s| s.fires.contains(&p)),
            "no scenario fires {p:?}"
        );
    }
    let failed: Vec<String> = (twopc.iter())
        .filter_map(|s| s.run().err().map(|e| format!("{}: {e}", s.name)))
        .collect();
    assert!(failed.is_empty(), "{failed:#?}");
}

/// A tenant's onboarding — database, table, SLA — costs the 2 000th tenant
/// what it cost the first: nothing on that path may count every tenant
/// already hosted. Medians, so one stall of the host cannot fail it.
#[test]
fn onboarding_cost_does_not_grow_with_tenants() {
    use std::time::Instant;
    use tenantdb::sla::Sla;

    const TENANTS: usize = 2000;
    const SAMPLE: usize = 200;
    let cluster = ClusterController::with_machines(ClusterConfig::for_tests(), 4);
    let sla = Sla::new(10_000.0, 0.9, Duration::from_secs(60));
    let costs: Vec<Duration> = (0..TENANTS)
        .map(|i| {
            let name = format!("tenant{i}");
            let start = Instant::now();
            cluster.create_database(&name, 2).unwrap();
            cluster
                .ddl(
                    &name,
                    "CREATE TABLE t (k INT NOT NULL, v TEXT, PRIMARY KEY (k))",
                )
                .unwrap();
            cluster.set_sla(&name, sla).unwrap();
            start.elapsed()
        })
        .collect();
    let median = |sample: &[Duration]| {
        let mut sorted = sample.to_vec();
        sorted.sort();
        sorted[sorted.len() / 2]
    };
    let first = median(&costs[..SAMPLE]);
    let last = median(&costs[TENANTS - SAMPLE..]);
    assert!(
        last <= first * 2,
        "onboarding grew with the tenant count: median {first:?} for the first \
         {SAMPLE} tenants, {last:?} for the last {SAMPLE}"
    );
}

#[test]
fn colo_disaster_recovery_end_to_end() {
    let platform = two_colo_platform();
    platform
        .create_database("crit", WEST, CreateOptions::default())
        .unwrap();
    let metrics = geo_metrics();
    let mut link = geo_link(&platform, "crit", &metrics);
    let (old_primary, standby) = dr_clusters(&platform, "crit");

    let conn = platform.connect("crit", WEST).unwrap();
    conn.execute("CREATE TABLE t (id INT NOT NULL, PRIMARY KEY (id))", &[])
        .unwrap();
    for i in 0..10 {
        conn.execute("INSERT INTO t VALUES (?)", &[Value::Int(i)])
            .unwrap();
    }
    // A rolled-back transaction never reaches the standby.
    conn.begin().unwrap();
    conn.execute("INSERT INTO t VALUES (50)", &[]).unwrap();
    conn.rollback().unwrap();
    link.sync().unwrap();
    assert_eq!(link.lag(), 0);
    assert_eq!(count(&standby, "crit"), Value::Int(10));
    // Five more rows never ship.
    for i in 10..15 {
        conn.execute("INSERT INTO t VALUES (?)", &[Value::Int(i)])
            .unwrap();
    }
    assert!(link.lag() > 0, "the unshipped tail shows up as lag");

    // Disaster: the west colo's machines go dark. Its controllers still
    // answer, so the promotion fences it.
    let west = platform.primary_colo("crit").unwrap();
    platform.colo(west).unwrap().fail();
    assert!(link.sync().is_err(), "no source left to ship from");
    let out = promote(
        &standby,
        Some(&old_primary),
        &[Arc::clone(link.applier())],
        &metrics,
    )
    .unwrap();
    assert!(out.fenced_old_primary);
    assert_eq!(platform.failover("crit").unwrap(), platform.colos()[1].id);

    let conn = platform.connect("crit", WEST).unwrap();
    let r = conn.execute("SELECT COUNT(*) FROM t", &[]).unwrap();
    assert_eq!(
        r.rows[0][0],
        Value::Int(10),
        "the acked prefix survives the disaster"
    );
    // The promoted colo serves writes again; the old primary takes none.
    conn.execute("INSERT INTO t VALUES (100)", &[]).unwrap();
    let err = old_primary
        .connect("crit")
        .and_then(|c| c.execute("INSERT INTO t VALUES (101)", &[]))
        .unwrap_err();
    assert!(err.is_fenced(), "{err}");
}

/// `db`'s logical state on the first alive replica of `cluster`.
fn state(cluster: &ClusterController, db: &str) -> String {
    let id = cluster.alive_replicas(db).unwrap()[0];
    tenantdb::cluster::testkit::logical_state(&cluster.machine(id).unwrap().engine, db).unwrap()
}

/// Writes that never touch a platform connection — bulk loads through the
/// cluster API, as TPC-W set-up and every bench driver do — are in the WAL
/// like any other, so the standby receives them: in process, and over a
/// socket as `GeoRecords` frames. The rows hold every kind of value, and an
/// UPDATE and a DELETE ship too.
#[test]
fn writes_through_the_cluster_api_reach_the_standby() {
    for over_tcp in [false, true] {
        let platform = two_colo_platform();
        platform
            .create_database("bulk", WEST, CreateOptions::default())
            .unwrap();
        let (primary, standby) = dr_clusters(&platform, "bulk");
        primary
            .ddl(
                "bulk",
                "CREATE TABLE t (id INT NOT NULL, ok BOOL, x FLOAT, s TEXT, PRIMARY KEY (id))",
            )
            .unwrap();
        let conn = primary.connect("bulk").unwrap();
        conn.begin().unwrap();
        for i in -12..13 {
            let ok = [Value::Null, Value::Bool(true), Value::Bool(false)];
            let row = [
                Value::Int(i),
                ok[i.rem_euclid(3) as usize].clone(),
                Value::Float(if i % 2 == 0 { -0.0 } else { i as f64 / 4.0 }),
                Value::Text(format!("größe €{i} 🦀")),
            ];
            conn.execute("INSERT INTO t VALUES (?, ?, ?, ?)", &row)
                .unwrap();
        }
        conn.commit().unwrap();
        conn.execute("UPDATE t SET s = 'é', x = -0.0 WHERE id = -7", &[])
            .unwrap();
        conn.execute("DELETE FROM t WHERE id = 4", &[]).unwrap();

        let metrics = geo_metrics();
        let transport = if over_tcp { "tcp" } else { "in process" };
        if over_tcp {
            let server = GeoStandbyServer::serve(Arc::clone(&standby), 1, metrics.clone()).unwrap();
            let shipper = Shipper::new(Arc::clone(&primary), "bulk", metrics.clone()).unwrap();
            GeoTcpLink::new(shipper, server.addr(), metrics)
                .sync()
                .unwrap();
        } else {
            geo_link(&platform, "bulk", &metrics).sync().unwrap();
        }
        assert_eq!(count(&standby, "bulk"), Value::Int(24), "{transport}");
        assert_eq!(
            state(&standby, "bulk"),
            state(&primary, "bulk"),
            "{transport}"
        );
    }
}

/// A client's whole repertoire through `SystemController::connect` on the
/// default (growable) pools, where the connection runs idle replica lanes
/// on its own thread: read, write, rollback, and a connection dropped in
/// the middle of a transaction — whose locks must not outlive it.
#[test]
fn read_write_rollback_and_drop_mid_txn_through_the_platform() {
    let platform = two_colo_platform();
    platform
        .create_database("shop", WEST, CreateOptions::default())
        .unwrap();
    let conn = platform.connect("shop", WEST).unwrap();
    conn.execute(
        "CREATE TABLE t (id INT NOT NULL, v TEXT, PRIMARY KEY (id))",
        &[],
    )
    .unwrap();
    conn.execute("INSERT INTO t VALUES (1, 'a')", &[]).unwrap();
    let value = |conn: &tenantdb::cluster::Connection| {
        let r = conn.execute("SELECT v FROM t WHERE id = 1", &[]).unwrap();
        r.rows[0][0].clone()
    };
    assert_eq!(value(&conn), Value::Text("a".into()));

    // Read-your-writes inside a transaction, on every replica after commit.
    conn.begin().unwrap();
    conn.execute("UPDATE t SET v = 'b' WHERE id = 1", &[])
        .unwrap();
    assert_eq!(value(&conn), Value::Text("b".into()));
    conn.commit().unwrap();

    // Rollback undoes the write everywhere.
    conn.begin().unwrap();
    conn.execute("UPDATE t SET v = 'rolled back' WHERE id = 1", &[])
        .unwrap();
    conn.rollback().unwrap();
    assert_eq!(value(&conn), Value::Text("b".into()));

    // Dropped mid-transaction: the write is aborted and its row locks are
    // released, so the next writer does not wait out a lock timeout.
    let doomed = platform.connect("shop", WEST).unwrap();
    doomed.begin().unwrap();
    doomed
        .execute("UPDATE t SET v = 'dropped' WHERE id = 1", &[])
        .unwrap();
    drop(doomed);
    conn.execute("UPDATE t SET v = 'c' WHERE id = 1", &[])
        .unwrap();
    assert_eq!(value(&conn), Value::Text("c".into()));

    let (primary, _) = dr_clusters(&platform, "shop");
    tenantdb::cluster::testkit::assert_replicas_converged(&primary, "shop");
    // The statements above ran on the caller's thread, not on pool jobs.
    let turns = primary.metrics().registry().counter_sum(
        tenantdb::cluster::metrics::POOL_CALLER_TURNS,
        &[("pool", "machine")],
    );
    assert!(turns > 0, "no lane turn was taken by the caller");
}

/// One seed across every layer for the ordered index walk: a customer with
/// 200 orders, two write-all replicas. "The latest order" is the same row
/// on each replica's engine, through a `Connection` and through a
/// `NetClient`, and costs the locks it costs a customer with one order.
#[test]
fn latest_order_is_one_row_read_on_every_replica_and_transport() {
    use tenantdb::cluster::Transport;
    use tenantdb::net::{ConnectOptions, NetClient, Server, ServerConfig};

    const LATEST: &str =
        "SELECT o_id, o_total FROM orders WHERE o_c_id = ? ORDER BY o_id DESC LIMIT 1";
    let platform = two_colo_platform();
    platform
        .create_database("shop", WEST, CreateOptions::default())
        .unwrap();
    let conn = platform.connect("shop", WEST).unwrap();
    for ddl in [
        "CREATE TABLE orders (o_id INT NOT NULL, o_c_id INT NOT NULL, o_total FLOAT, \
         PRIMARY KEY (o_id))",
        "CREATE INDEX by_customer ON orders (o_c_id)",
    ] {
        conn.execute(ddl, &[]).unwrap();
    }
    // Customer 1 orders 200 times, customer 2 once, interleaved.
    conn.begin().unwrap();
    for o_id in 0..201 {
        let customer = if o_id == 77 { 2 } else { 1 };
        let row = [
            Value::Int(o_id),
            Value::Int(customer),
            Value::Float(o_id as f64),
        ];
        conn.execute("INSERT INTO orders VALUES (?, ?, ?)", &row)
            .unwrap();
    }
    conn.commit().unwrap();
    let latest = vec![vec![Value::Int(200), Value::Float(200.0)]];

    let (cluster, _) = dr_clusters(&platform, "shop");
    tenantdb::cluster::testkit::assert_replicas_converged(&cluster, "shop");
    let engines: Vec<_> = cluster
        .alive_replicas("shop")
        .unwrap()
        .into_iter()
        .map(|m| Arc::clone(&cluster.machine(m).unwrap().engine))
        .collect();
    assert_eq!(engines.len(), 2);
    let locks_taken = || -> u64 {
        let taken = |e: &Arc<tenantdb::storage::Engine>| e.locks().stats().acquisitions;
        engines.iter().map(taken).sum()
    };

    // Each replica's engine, asked directly.
    let only = vec![vec![Value::Int(77), Value::Float(77.0)]];
    for engine in &engines {
        for (customer, expected) in [(1, &latest), (2, &only)] {
            let txn = engine.begin().unwrap();
            let before = engine.locks().stats().acquisitions;
            let r = tenantdb::sql::execute(engine, txn, "shop", LATEST, &[Value::Int(customer)]);
            let locks = engine.locks().stats().acquisitions - before;
            engine.commit(txn).unwrap();
            assert_eq!(&r.unwrap().rows, expected);
            assert_eq!(locks, 3, "customer {customer}: table IS, key S, one row S");
        }
    }

    // Through the cluster connection, and over TCP.
    let server = Server::start(
        "127.0.0.1:0",
        Arc::clone(&platform),
        ServerConfig::default(),
    )
    .expect("bind server");
    let client = NetClient::connect(server.local_addr(), "shop", ConnectOptions::default())
        .expect("tcp connect");
    let transports: [(&str, &dyn Transport); 2] = [("connection", &conn), ("tcp", &client)];
    for (name, transport) in transports {
        let cost_of = |customer: i64| {
            let before = locks_taken();
            let r = transport.execute(LATEST, &[Value::Int(customer)]).unwrap();
            (r.rows, locks_taken() - before)
        };
        let (rows, locks_for_200) = cost_of(1);
        assert_eq!(rows, latest, "{name}");
        let (_, locks_for_1) = cost_of(2);
        assert_eq!(locks_for_200, locks_for_1, "{name}");
    }
    drop(client);
    server.shutdown();
}

/// One seed across every layer for grouped top-K ranking: BestSellers over
/// order lines whose per-item sums tie across the LIMIT, on two write-all
/// replicas. Each replica's engine, a `Connection` and a `NetClient` return
/// what the test computes itself from the raw `(ol_i_id, ol_qty)` rows:
/// the five largest sums, ties by ascending item.
#[test]
fn best_sellers_answers_alike_on_every_replica_and_transport() {
    use std::collections::BTreeMap;
    use tenantdb::cluster::Transport;
    use tenantdb::net::{ConnectOptions, NetClient, Server, ServerConfig};

    const BEST: &str = "SELECT ol_i_id, SUM(ol_qty) AS sold FROM order_line WHERE ol_o_id >= ? \
                        GROUP BY ol_i_id ORDER BY sold DESC LIMIT 5";
    let platform = two_colo_platform();
    platform
        .create_database("shop", WEST, CreateOptions::default())
        .unwrap();
    let conn = platform.connect("shop", WEST).unwrap();
    for ddl in [
        "CREATE TABLE order_line (ol_id INT NOT NULL, ol_o_id INT NOT NULL, ol_i_id INT, \
         ol_qty INT, PRIMARY KEY (ol_id))",
        "CREATE INDEX by_order ON order_line (ol_o_id)",
    ] {
        conn.execute(ddl, &[]).unwrap();
    }
    // 400 lines of 100 orders over 40 items, 1-3 copies each.
    conn.begin().unwrap();
    for ol_id in 0..400i64 {
        let row = [ol_id, ol_id / 4, ol_id * 7 % 40, ol_id % 3 + 1].map(Value::Int);
        conn.execute("INSERT INTO order_line VALUES (?, ?, ?, ?)", &row)
            .unwrap();
    }
    conn.commit().unwrap();
    let horizon = [Value::Int(30)];

    let lines = conn
        .execute(
            "SELECT ol_i_id, ol_qty FROM order_line WHERE ol_o_id >= ?",
            &horizon,
        )
        .unwrap();
    let mut sold: BTreeMap<i64, i64> = BTreeMap::new();
    for line in &lines.rows {
        *sold.entry(line[0].as_i64().unwrap()).or_default() += line[1].as_i64().unwrap();
    }
    let mut ranked: Vec<(i64, i64)> = sold.into_iter().collect();
    ranked.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
    assert_eq!(ranked[4].1, ranked[5].1, "a tie must straddle the LIMIT");
    let expected: Vec<Vec<Value>> = ranked[..5]
        .iter()
        .map(|&(item, n)| vec![Value::Int(item), Value::Int(n)])
        .collect();

    let (cluster, _) = dr_clusters(&platform, "shop");
    tenantdb::cluster::testkit::assert_replicas_converged(&cluster, "shop");
    let replicas = cluster.alive_replicas("shop").unwrap();
    assert_eq!(replicas.len(), 2);
    for m in replicas {
        let engine = Arc::clone(&cluster.machine(m).unwrap().engine);
        let txn = engine.begin().unwrap();
        let r = tenantdb::sql::execute(&engine, txn, "shop", BEST, &horizon);
        engine.commit(txn).unwrap();
        assert_eq!(r.unwrap().rows, expected, "replica on {m:?}");
    }

    let server = Server::start(
        "127.0.0.1:0",
        Arc::clone(&platform),
        ServerConfig::default(),
    )
    .expect("bind server");
    let client = NetClient::connect(server.local_addr(), "shop", ConnectOptions::default())
        .expect("tcp connect");
    let transports: [(&str, &dyn Transport); 2] = [("connection", &conn), ("tcp", &client)];
    for (name, transport) in transports {
        let r = transport.execute(BEST, &horizon).unwrap();
        assert_eq!(r.rows, expected, "{name}");
    }
    drop(client);
    server.shutdown();
}

/// One refusal of each kind a client can meet, each on its own database,
/// in an order that keeps the destructive ones (fencing the cluster,
/// failing a machine) last. Returns, per refusal, what `refusal()` said
/// and how the tenant's `deadlock` / `rejected` / `aborted` counters moved.
fn refusals_over(tcp: bool) -> Vec<(Option<tenantdb::cluster::Refusal>, [u64; 3])> {
    use tenantdb::cluster::{ClusterError, Transport};
    use tenantdb::net::{ConnectOptions, NetClient, Server, ServerConfig};
    use tenantdb::storage::{Engine, EngineConfig};

    type Provoke = fn(&dyn Transport, &ClusterController, &Engine, &str) -> ClusterError;
    const UPDATE_1: &str = "UPDATE t SET v = 1 WHERE k = 1";
    const READ_1: &str = "SELECT v FROM t WHERE k = 1";
    let scenarios: [(&str, Provoke); 6] = [
        ("deadlock", |client, _, engine, db| {
            let blocker = engine.begin().unwrap();
            engine
                .index_lookup(blocker, db, "t", "pk", &[Value::Int(1)], true)
                .unwrap();
            client.begin().unwrap();
            client
                .execute("UPDATE t SET v = 1 WHERE k = 2", &[])
                .unwrap();
            let waits = engine.locks().stats().waits;
            let err = std::thread::scope(|s| {
                let waiter =
                    s.spawn(|| engine.index_lookup(blocker, db, "t", "pk", &[Value::Int(2)], true));
                while engine.locks().stats().waits == waits {
                    std::thread::sleep(Duration::from_millis(1));
                }
                // Closes the cycle: the client's transaction is the victim,
                // and the blocker's wait is granted once it aborted.
                let err = client.execute(UPDATE_1, &[]).unwrap_err();
                waiter.join().unwrap().unwrap();
                err
            });
            engine.abort(blocker).unwrap();
            err
        }),
        ("lock timeout", |client, _, engine, db| {
            let blocker = engine.begin().unwrap();
            engine
                .index_lookup(blocker, db, "t", "pk", &[Value::Int(1)], true)
                .unwrap();
            let err = client.execute(UPDATE_1, &[]).unwrap_err();
            engine.abort(blocker).unwrap();
            err
        }),
        ("copy in progress", |client, cluster, _, db| {
            cluster.begin_copy(db, None, false).unwrap();
            cluster.set_copy_current(db, Some("t"));
            client.execute(UPDATE_1, &[]).unwrap_err()
        }),
        ("admission shed", |client, cluster, _, db| {
            let sla = tenantdb::sla::Sla::new(0.001, 0.5, Duration::from_secs(60));
            cluster.set_sla(db, sla).unwrap();
            // The gate admits its burst first; the next transaction is shed.
            (0..100)
                .find_map(|_| client.execute(READ_1, &[]).err())
                .expect("a tenant far past its rate is shed")
        }),
        ("fenced", |client, cluster, _, _| {
            cluster.fence_geo(cluster.geo_write_epoch() + 1).unwrap();
            client.execute(UPDATE_1, &[]).unwrap_err()
        }),
        ("no replica", |client, cluster, _, db| {
            for m in cluster.alive_replicas(db).unwrap() {
                cluster.fail_machine(m).unwrap();
            }
            client.execute(READ_1, &[]).unwrap_err()
        }),
    ];

    let mut config = PlatformConfig::for_tests();
    config.clusters_per_colo = 1;
    config.cluster.engine = EngineConfig {
        lock_timeout: Duration::from_millis(1000),
        ..EngineConfig::for_tests()
    };
    let platform = SystemController::new(config, &[("west", WEST)]);
    let server = tcp.then(|| {
        Server::start(
            "127.0.0.1:0",
            Arc::clone(&platform),
            ServerConfig::default(),
        )
        .expect("bind server")
    });
    let options = CreateOptions {
        replicas: 1,
        cross_colo: false,
        ..CreateOptions::default()
    };
    // Every database is ready before the first refusal: a fenced cluster
    // creates none.
    let tenants: Vec<_> = scenarios
        .iter()
        .map(|(name, _)| {
            let db = name.replace(' ', "_");
            platform
                .create_database(&db, WEST, options.clone())
                .unwrap();
            let conn = platform.connect(&db, WEST).unwrap();
            conn.execute(
                "CREATE TABLE t (k INT NOT NULL, v INT, PRIMARY KEY (k))",
                &[],
            )
            .unwrap();
            conn.execute("INSERT INTO t VALUES (1, 0), (2, 0)", &[])
                .unwrap();
            let client: Box<dyn Transport> = match &server {
                Some(s) => Box::new(
                    NetClient::connect(s.local_addr(), &db, ConnectOptions::default())
                        .expect("tcp connect"),
                ),
                None => Box::new(conn),
            };
            (db, client)
        })
        .collect();
    let mut seen = Vec::new();
    for ((name, provoke), (db, client)) in scenarios.into_iter().zip(tenants) {
        let cluster = platform.colos()[0].cluster_for(&db).unwrap();
        let replica = cluster.alive_replicas(&db).unwrap()[0];
        let engine = Arc::clone(&cluster.machine(replica).unwrap().engine);
        let before = cluster.counters(&db);
        let err = provoke(client.as_ref(), &cluster, &engine, &db);
        let after = cluster.counters(&db);
        let moved = [
            after.deadlocks - before.deadlocks,
            after.rejected - before.rejected,
            after.aborted - before.aborted,
        ];
        let outcome = [Outcome::Deadlock, Outcome::Rejected, Outcome::Aborted]
            .iter()
            .position(|o| *o == err.outcome())
            .unwrap();
        let mut expected = [0; 3];
        expected[outcome] = 1;
        assert_eq!(moved, expected, "{name} (tcp: {tcp}): {err}");
        seen.push((err.refusal(), moved));
    }
    if let Some(server) = server {
        server.shutdown();
    }
    seen
}

/// Every cause a test can provoke, over a `Connection` and over a
/// `NetClient` against `Server`: the client reads the same `refusal()` on
/// both transports, and the tenant's outcome counter moves by one, under
/// the label that refusal maps to. (`NotLeader` and `InDoubt` are covered
/// by the wire's round trip.)
#[test]
fn every_refusal_reads_alike_over_connection_and_tcp() {
    use tenantdb::cluster::Refusal;

    let over_connection = refusals_over(false);
    let causes: Vec<_> = over_connection.iter().map(|(r, _)| *r).collect();
    assert_eq!(
        causes,
        [
            Refusal::Deadlock,
            Refusal::LockTimeout,
            Refusal::CopyInProgress,
            Refusal::AdmissionShed,
            Refusal::Fenced,
            Refusal::NoReplica,
        ]
        .map(Some)
    );
    assert_eq!(refusals_over(true), over_connection);
}
