//! Quickstart: the platform's two-call API from §2 of the paper —
//! (1) create a database with an SLA, (2) connect and speak SQL with ACID
//! transactions — with replication, 2PC, and placement handled underneath.
//!
//! Run with: `cargo run --release --example quickstart`

use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use tenantdb::georep::{Applier, GeoLink, GeoMetrics, Shipper};
use tenantdb::platform::{CreateOptions, PlatformConfig, SystemController};
use tenantdb::sla::Sla;
use tenantdb::storage::Value;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A small geo-distributed platform: two colos, each with clusters of
    // commodity "machines" (in-process single-node engines).
    let platform = SystemController::new(
        PlatformConfig::for_tests(),
        &[("us-west", (0.0, 0.0)), ("us-east", (100.0, 0.0))],
    );

    // §2 API point 1: create a database along with an associated SLA.
    let sla = Sla::new(
        /* min_tps */ 5.0,
        /* max rejected fraction */ 0.01,
        /* period */ Duration::from_secs(3600),
    );
    let primary = platform.create_database(
        "guestbook",
        /* owner location */ (10.0, 5.0),
        CreateOptions {
            replicas: 2,
            sla,
            demand: None,
            cross_colo: true,
        },
    )?;
    println!("created 'guestbook' (primary colo: {primary}, SLA: {sla:?})");

    // §2 API point 2: connect and use full SQL with ACID transactions.
    let conn = platform.connect("guestbook", (10.0, 5.0))?;
    conn.execute(
        "CREATE TABLE entries (
            id INT NOT NULL,
            author TEXT NOT NULL,
            message TEXT,
            PRIMARY KEY (id)
        )",
        &[],
    )?;
    conn.execute("CREATE INDEX by_author ON entries (author)", &[])?;

    // A multi-statement transaction: all-or-nothing across both replicas.
    conn.begin()?;
    for (id, author, msg) in [
        (1, "ada", "first!"),
        (2, "grace", "hello from the platform"),
        (3, "ada", "joins work too"),
    ] {
        conn.execute(
            "INSERT INTO entries VALUES (?, ?, ?)",
            &[Value::Int(id), Value::from(author), Value::from(msg)],
        )?;
    }
    conn.commit()?;

    // Query it back — joins, aggregates, ORDER BY all supported.
    let r = conn.execute(
        "SELECT author, COUNT(*) AS posts FROM entries GROUP BY author ORDER BY posts DESC",
        &[],
    )?;
    println!("\npost counts:");
    for row in &r.rows {
        println!("  {:<8} {}", row[0], row[1]);
    }

    // Rollback really rolls back.
    conn.begin()?;
    conn.execute("DELETE FROM entries WHERE author = 'ada'", &[])?;
    conn.rollback()?;
    let r = conn.execute("SELECT COUNT(*) FROM entries", &[])?;
    println!("\nentries after rollback: {}", r.rows[0][0]);
    assert_eq!(r.rows[0][0], Value::Int(3));

    // Disaster recovery: `cross_colo` reserved a standby in the other colo;
    // a georep stream ships the primary cluster's WAL to it.
    let hosting = |colo| platform.colo(colo).and_then(|c| c.cluster_for("guestbook"));
    let primary_cluster = hosting(primary).expect("primary hosts it");
    let standby = platform
        .secondary_colo("guestbook")
        .and_then(hosting)
        .expect("standby reserved");
    let metrics = GeoMetrics::new(Arc::new(tenantdb_obs::MetricsRegistry::new()));
    platform.register_metrics_source("georep guestbook", Arc::clone(metrics.registry()));
    let shipper = Shipper::new(primary_cluster, "guestbook", metrics.clone())?;
    let applier = Applier::new(Arc::clone(&standby), "guestbook", 1, metrics.clone());
    let mut link = GeoLink::new(shipper, Arc::new(Mutex::new(applier)), metrics);
    let acked = link.sync()?;
    let r = standby
        .connect("guestbook")?
        .execute("SELECT COUNT(*) FROM entries", &[])?;
    println!(
        "DR standby acked the stream through {acked:?}: {} entries",
        r.rows[0][0]
    );
    assert_eq!(r.rows[0][0], Value::Int(3));

    Ok(())
}
