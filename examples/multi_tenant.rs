//! Multi-tenant consolidation: the paper's headline scenario — many small
//! applications sharing a cluster of commodity machines, each with its own
//! SLA, placed by observation-driven First-Fit (§4.2).
//!
//! The example:
//! 1. profiles three differently-shaped tenants on a dedicated machine
//!    (the paper's "observational period"),
//! 2. turns the observed usage into resource-demand vectors,
//! 3. creates twelve tenants (4 of each shape) with those demands on a colo
//!    whose cluster places them by Algorithm 2, pulling machines from the
//!    free pool only when none has room, and prints where each landed, and
//! 4. runs all tenants there concurrently, showing per-tenant isolation
//!    counters.
//!
//! Run with: `cargo run --release --example multi_tenant`

use std::sync::Arc;
use std::time::Duration;

use tenantdb::cluster::{ClusterConfig, ClusterController};
use tenantdb::platform::{Colo, ColoId};
use tenantdb::sla::{demand_from_observation, ResourceVector};
use tenantdb::storage::Value;

/// Three tenant archetypes with different workload shapes.
#[derive(Clone, Copy, Debug)]
enum Shape {
    /// Read-mostly content site.
    Blog,
    /// Read/write session store.
    Game,
    /// Write-heavy event logger.
    Telemetry,
}

fn setup_tenant(cluster: &Arc<ClusterController>, db: &str, rows: i64) {
    cluster
        .ddl(
            db,
            "CREATE TABLE data (id INT NOT NULL, payload TEXT, PRIMARY KEY (id))",
        )
        .unwrap();
    let conn = cluster.connect(db).unwrap();
    conn.begin().unwrap();
    for i in 0..rows {
        conn.execute(
            "INSERT INTO data VALUES (?, ?)",
            &[Value::Int(i), Value::Text(format!("row-{i}"))],
        )
        .unwrap();
    }
    conn.commit().unwrap();
}

/// Drive `txns` statements against `db`; returns `(reads, writes)` run.
fn drive_tenant(cluster: &Arc<ClusterController>, db: &str, shape: Shape, txns: i64) -> (u64, u64) {
    let conn = cluster.connect(db).unwrap();
    let mut writes = 0;
    for i in 0..txns {
        let write = match shape {
            Shape::Blog => i % 10 == 0,
            Shape::Game => i % 2 == 0,
            Shape::Telemetry => true,
        };
        writes += u64::from(write);
        let r = if write {
            conn.execute(
                "UPDATE data SET payload = ? WHERE id = ?",
                &[Value::Text(format!("v{i}")), Value::Int(i % 50)],
            )
        } else {
            conn.execute(
                "SELECT payload FROM data WHERE id = ?",
                &[Value::Int(i % 50)],
            )
        };
        r.unwrap();
    }
    (txns as u64 - writes, writes)
}

fn main() {
    // ---- 1. Observation period: each shape runs alone on a scratch cluster.
    println!("== observation period (dedicated machine per §4.2) ==");
    let mut demands = Vec::new();
    for shape in [Shape::Blog, Shape::Game, Shape::Telemetry] {
        let scratch = ClusterController::with_machines(ClusterConfig::for_tests(), 1);
        scratch.create_database("probe", 1).unwrap();
        setup_tenant(&scratch, "probe", 60);
        let machine = scratch.machines().into_iter().next().unwrap();
        let window = Duration::from_secs(1);
        let (reads, writes) = drive_tenant(&scratch, "probe", shape, 300);
        let engine = &machine.engine;
        let pages: u64 = (engine.db("probe").unwrap().table_names().iter())
            .map(|t| engine.table("probe", t).unwrap().page_count())
            .sum();
        let misses = engine.buffer().stats().misses;
        let demand = demand_from_observation(reads, writes, misses, pages, window);
        println!(
            "  {shape:?}: reads={reads} writes={writes} -> demand cpu={:.0} mem={:.0} io={:.0}",
            demand.cpu, demand.memory, demand.disk_io,
        );
        demands.push((shape, demand));
    }

    // ---- 2. SLA-driven placement of 12 tenants (Algorithm 2), starting
    //         from the two machines two replicas need.
    println!("\n== placement (First-Fit, replicas on distinct machines) ==");
    let cfg = ClusterConfig {
        machine_capacity: ResourceVector::new(2500.0, 200.0, 100_000.0, 200.0),
        ..ClusterConfig::for_tests()
    };
    let colo = Colo::new(ColoId(0), "local", (0.0, 0.0), cfg, 1, 2);
    let cluster = colo.clusters().remove(0);
    for (i, &(shape, demand)) in demands.iter().cycle().take(12).enumerate() {
        let db = format!("tenant{i}");
        colo.create_database(&db, 2, Some(demand)).unwrap();
        let machines: Vec<String> = cluster
            .placement(&db)
            .unwrap()
            .replicas
            .iter()
            .map(|m| m.to_string())
            .collect();
        println!("  {db:<8} ({shape:?}) -> {}", machines.join(", "));
    }
    println!("  machines used: {}", colo.machine_count());

    // ---- 3. Run them all where they were placed, and show per-tenant
    //         accounting.
    println!("\n== consolidated run ==");
    let mut handles = Vec::new();
    for (i, &(shape, _)) in demands.iter().cycle().take(12).enumerate() {
        let db = format!("tenant{i}");
        setup_tenant(&cluster, &db, 60);
        let cluster = Arc::clone(&cluster);
        handles.push(std::thread::spawn(move || {
            drive_tenant(&cluster, &db, shape, 200)
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    println!("  per-tenant outcomes (committed / deadlocks / rejected):");
    for i in 0..12 {
        let c = cluster.counters(&format!("tenant{i}"));
        println!(
            "    tenant{i:<2}  {:>5} / {:>2} / {:>2}",
            c.committed, c.deadlocks, c.rejected
        );
        assert_eq!(c.rejected, 0, "no failures injected, so no SLA rejections");
    }
    println!("\nall twelve tenants served with full ACID on shared machines.");
}
