//! Failure drill: the §3.2 story end to end.
//!
//! While a workload runs against a replicated database:
//! 1. a machine is crashed — reads and writes keep flowing from the
//!    surviving replica (failure masking);
//! 2. the lost replica is re-created online with the table-level copy
//!    (Algorithm 1 rejects exactly the writes that would race the copy);
//! 3. the replicas are verified identical afterwards;
//! 4. finally a 2PC coordinator dies mid-commit and the controller's
//!    takeover (§2's process pair) completes the decided transaction.
//!
//! Run with: `cargo run --release --example failure_drill`

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use tenantdb::cluster::fault::CONTROLLER;
use tenantdb::cluster::{
    recover_machine, ClusterConfig, ClusterController, CopyGranularity, CrashPoint, FaultAction,
    FaultPlan, Outcome, RecoveryConfig, Trigger,
};
use tenantdb::storage::{Throttle, Value};

fn main() {
    let cluster = ClusterController::with_machines(ClusterConfig::for_tests(), 3);
    cluster.create_database("shop", 2).unwrap();
    cluster
        .ddl(
            "shop",
            "CREATE TABLE inventory (sku INT NOT NULL, qty INT, PRIMARY KEY (sku))",
        )
        .unwrap();
    cluster
        .ddl(
            "shop",
            "CREATE TABLE audit (id INT NOT NULL, note TEXT, PRIMARY KEY (id))",
        )
        .unwrap();
    {
        let conn = cluster.connect("shop").unwrap();
        conn.begin().unwrap();
        for sku in 0..200 {
            conn.execute("INSERT INTO inventory VALUES (?, 100)", &[Value::Int(sku)])
                .unwrap();
        }
        conn.commit().unwrap();
    }

    // Background workload: decrement stock, append audit rows.
    let stop = Arc::new(AtomicBool::new(false));
    let worker = {
        let cluster = Arc::clone(&cluster);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let conn = cluster.connect("shop").unwrap();
            let (mut ok, mut rejected, mut failed) = (0u64, 0u64, 0u64);
            let mut i = 0i64;
            while !stop.load(Ordering::Relaxed) {
                i += 1;
                let r = (|| -> tenantdb::cluster::Result<()> {
                    conn.begin()?;
                    conn.execute(
                        "UPDATE inventory SET qty = qty - 1 WHERE sku = ?",
                        &[Value::Int(i % 200)],
                    )?;
                    conn.execute(
                        "INSERT INTO audit VALUES (?, 'sold')",
                        &[Value::Int(1_000_000 + i)],
                    )?;
                    conn.commit()
                })();
                match r {
                    Ok(()) => ok += 1,
                    Err(e) if e.outcome() == Outcome::Rejected => rejected += 1,
                    Err(_) => failed += 1,
                }
                std::thread::sleep(Duration::from_micros(300));
            }
            (ok, rejected, failed)
        })
    };
    std::thread::sleep(Duration::from_millis(200));

    // ---- 1. Crash the pinned replica.
    let victim = cluster.placement("shop").unwrap().pinned;
    println!("crashing machine {victim} (hosting a replica of 'shop')...");
    cluster.fail_machine(victim).unwrap();
    std::thread::sleep(Duration::from_millis(200));
    println!(
        "  survivors keep serving: {:?}",
        cluster.alive_replicas("shop").unwrap()
    );

    // ---- 2. Online recovery (throttled so it visibly overlaps traffic).
    println!("recovering lost replicas (table-level copy, Algorithm 1)...");
    let report = recover_machine(
        &cluster,
        victim,
        RecoveryConfig {
            granularity: CopyGranularity::TableLevel,
            threads: 2,
            throttle: Throttle::new(2000),
        },
    );
    for (db, target, took) in &report.recovered {
        println!("  {db}: new replica on machine {target} in {took:.1?}");
    }

    stop.store(true, Ordering::Relaxed);
    let (ok, rejected, failed) = worker.join().unwrap();
    println!("workload outcomes: {ok} committed, {rejected} rejected during copy, {failed} other");

    // ---- 3. Verify the replicas converged.
    let mut sums = Vec::new();
    for id in cluster.alive_replicas("shop").unwrap() {
        let m = cluster.machine(id).unwrap();
        let conn_sum: i64 = {
            let t = m.engine.begin().unwrap();
            let rows = m.engine.scan(t, "shop", "inventory").unwrap();
            let audit = m.engine.scan(t, "shop", "audit").unwrap().len() as i64;
            m.engine.commit(t).unwrap();
            rows.iter()
                .map(|(_, r)| r[1].as_i64().unwrap())
                .sum::<i64>()
                + audit * 1_000
        };
        println!("  machine {id}: state checksum {conn_sum}");
        sums.push(conn_sum);
    }
    assert!(sums.windows(2).all(|w| w[0] == w[1]), "replicas diverged!");
    println!("replicas identical after online recovery.");

    // ---- 4. Controller takeover mid-commit.
    println!("\ntakeover drill: the coordinator dies after the commit decision...");
    let conn = cluster.connect("shop").unwrap();
    conn.begin().unwrap();
    conn.execute(
        "INSERT INTO audit VALUES (9999999, 'decided-then-crash')",
        &[],
    )
    .unwrap();
    cluster.faults().arm(FaultPlan::new(vec![Trigger {
        point: CrashPoint::CommitDecision,
        machine: Some(CONTROLLER),
        after_hits: 0,
        action: FaultAction::Crash,
    }]));
    conn.commit().unwrap();
    cluster.faults().disarm();
    let takeover = cluster.takeover();
    println!(
        "  takeover: completed {} decided commit(s), aborted {} in-doubt txn(s)",
        takeover.completed.len(),
        takeover.aborted_in_doubt.len()
    );
    let conn2 = cluster.connect("shop").unwrap();
    let r = conn2
        .execute("SELECT COUNT(*) FROM audit WHERE id = 9999999", &[])
        .unwrap();
    assert_eq!(r.rows[0][0], Value::Int(1));
    println!("  the decided transaction is durable on every replica.");
}
