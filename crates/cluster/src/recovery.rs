//! Failure recovery and database migration (§3.2, Figures 8–9).
//!
//! When a machine fails, the cluster controller keeps serving requests from
//! the surviving replicas and re-creates the lost replicas in the
//! background, using the copy tool of [`tenantdb_storage::copy`] at either
//! *table* or *database* granularity. While a copy is in flight, client
//! writes are routed by Algorithm 1 (implemented in the connection layer,
//! driven by the [`crate::controller::CopyProgress`] state maintained here):
//!
//! * writes to the table currently being copied are **rejected**;
//! * writes to already-copied tables go to all machines *including* the new
//!   replica;
//! * writes to not-yet-copied tables go to the old machines only.
//!
//! The number of concurrent recovery jobs (`threads`) is the x-axis of
//! Figure 8, realized as a fixed-size [`crate::pool::WorkerPool`]: one copy
//! task per lost database, at most `threads` in flight at once. Each copy's
//! target is the machine `ControllerGroup::choose` picks, the same
//! choice that placed the database.

use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tenantdb_storage::{copy, Throttle};

use crate::controller::ClusterController;
use crate::error::{ClusterError, Result};
use crate::fault::{CrashPoint, FaultAction};
use crate::machine::{Machine, MachineId};
use crate::pool::{PoolConfig, WorkerPool};

/// Copy granularity (the two series of Figures 8 and 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CopyGranularity {
    /// One transaction per table: only one table is read-locked at a time.
    TableLevel,
    /// One transaction for the whole database: every table stays read-locked
    /// (and every write rejected) until the copy completes.
    DatabaseLevel,
}

/// Recovery configuration.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryConfig {
    /// Copy one table at a time or the whole database at once.
    pub granularity: CopyGranularity,
    /// Concurrent copy jobs (recovery threads; Figure 8's x-axis).
    pub threads: usize,
    /// Copy bandwidth limit, so recovery overlaps live traffic.
    pub throttle: Throttle,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            granularity: CopyGranularity::TableLevel,
            threads: 1,
            throttle: Throttle::UNLIMITED,
        }
    }
}

/// Outcome of one recovery run.
#[derive(Debug, Default)]
pub struct RecoveryReport {
    /// (database, new replica machine, copy duration).
    pub recovered: Vec<(String, MachineId, Duration)>,
    /// Databases whose replica could not be re-created.
    pub failed: Vec<(String, ClusterError)>,
    /// End-to-end duration of the recovery run.
    pub wall_time: Duration,
}

/// Consult the cluster's fault injector at an Algorithm-1 crash point,
/// crashing (or delaying) the given copy participant. Fired for the source
/// first, then the target — a fixed order so a seeded plan always means the
/// same interleaving.
fn copy_fault_hook(controller: &ClusterController, point: CrashPoint, m: &Machine) {
    if let Some(action) = controller.faults().check(point, m.id) {
        match action {
            FaultAction::Crash => m.engine.crash(),
            FaultAction::Delay(d) => std::thread::sleep(d),
        }
    }
}

/// Create one additional replica of `db` on `target` (used by migration).
/// The target machine must be alive; `db` must not already have a replica
/// there.
pub fn create_replica(
    controller: &ClusterController,
    db: &str,
    target: MachineId,
    granularity: CopyGranularity,
    throttle: Throttle,
) -> Result<Duration> {
    copy_replica(controller, db, Some(target), granularity, throttle).map(|(_, d)| d)
}

/// Create one additional replica of `db` on `target`, or, with none given,
/// on the machine the controller chooses as the copy begins. Returns the
/// target and the copy's duration.
fn copy_replica(
    controller: &ClusterController,
    db: &str,
    target: Option<MachineId>,
    granularity: CopyGranularity,
    throttle: Throttle,
) -> Result<(MachineId, Duration)> {
    let started = Instant::now();
    // Until a table is marked copied no statement reaches the target, so
    // the copy can begin before the target's database exists.
    let target =
        controller.begin_copy(db, target, granularity == CopyGranularity::DatabaseLevel)?;
    let result = (|| -> Result<()> {
        // Resolve both endpoints in one short controller step. Everything
        // after this line works on the cloned machine `Arc`s: the bulk copy
        // must run free of every controller lock (asserted at the dump
        // sites below), so Algorithm-1 routing, DDL and takeover never
        // stall behind a copy.
        let (source, target_machine) = controller.copy_endpoints(db, target)?;
        if target_machine.engine.has_database(db) {
            // A stale copy from a previous incarnation of this replica (the
            // machine failed, restarted from its WAL, and is now being
            // reused as a recovery target). The restored rows carry their
            // source row ids, so restoring over stale data would collide or
            // silently duplicate — the re-created replica must start from
            // scratch.
            target_machine.engine.drop_database(db)?;
        }
        target_machine.engine.create_database(db)?;
        match granularity {
            CopyGranularity::TableLevel => {
                for table in copy::table_order(&source.engine, db)? {
                    controller.set_copy_current(db, Some(&table));
                    // Grace period: wait out every write statement routed
                    // with the pre-`set_copy_current` copy state. A drained
                    // write either applied before the dump's scan (which
                    // then sees it, or blocks on its 2PL lock until commit)
                    // or was rejected; without the drain it could apply on
                    // the source *after* the scan and be lost on the target.
                    controller.quiesce_routing();
                    // One crash-point hit per table boundary, source then
                    // target (the property tests in `tenantdb-sim` crash
                    // here at every boundary × both granularities).
                    copy_fault_hook(controller, CrashPoint::CopyTable, &source);
                    copy_fault_hook(controller, CrashPoint::CopyTable, &target_machine);
                    // Lockdep-checked invariant: the copy itself holds no
                    // controller (or outer) lock — only engine-level locks
                    // inside dump/restore.
                    crate::sync::assert_no_controller_locks();
                    let dump = copy::dump_table(&source.engine, db, &table, throttle)?;
                    copy::restore_table(&target_machine.engine, db, &dump)?;
                    controller.mark_copied(db, &table);
                }
            }
            CopyGranularity::DatabaseLevel => {
                // Same grace period as the table-level path: drain writes
                // routed before `begin_copy` marked the whole database
                // rejected, then dump.
                controller.quiesce_routing();
                copy_fault_hook(controller, CrashPoint::CopyStart, &source);
                copy_fault_hook(controller, CrashPoint::CopyStart, &target_machine);
                // Same invariant as the table-level path (see above).
                crate::sync::assert_no_controller_locks();
                let dump = copy::dump_database(&source.engine, db, throttle)?;
                copy::restore_database(&target_machine.engine, &dump)?;
            }
        }
        Ok(())
    })();
    match result {
        Ok(()) => {
            controller.finish_copy(db);
            let elapsed = started.elapsed();
            controller.metrics().copy_latency.observe_duration(elapsed);
            Ok((target, elapsed))
        }
        Err(e) => {
            controller.abandon_copy(db);
            Err(e)
        }
    }
}

/// Move a database replica from `from` to `to`: create the new replica
/// first, then retire the old one — the "data migration" operation used for
/// load balancing and maintenance (the `reallocation_rate` of §4.1).
pub fn migrate_replica(
    controller: &ClusterController,
    db: &str,
    from: MachineId,
    to: MachineId,
    granularity: CopyGranularity,
    throttle: Throttle,
) -> Result<Duration> {
    let d = create_replica(controller, db, to, granularity, throttle)?;
    controller.remove_replica(db, from);
    // Retire the old copy's storage.
    if let Ok(m) = controller.machine(from) {
        let _ = m.engine.drop_database(db);
    }
    Ok(d)
}

/// Recover every database that had a replica on `failed_machine` when it
/// failed — including those whose dead replica a live connection already
/// dropped while masking the failure.
///
/// Each target is the machine `ControllerGroup::choose` picks as
/// that database's copy begins: an alive machine with room for the
/// database's demand that neither hosts nor is receiving it, fewest hosted
/// databases first. Copies already begun count, so concurrent copies
/// spread rather than stack.
pub fn recover_machine(
    controller: &Arc<ClusterController>,
    failed_machine: MachineId,
    cfg: RecoveryConfig,
) -> RecoveryReport {
    let started = Instant::now();
    // Serve from survivors immediately.
    let dbs = controller.detach_machine(failed_machine);

    // A transient fixed pool bounds in-flight copies to exactly
    // `cfg.threads` (the Figure 8 x-axis); the per-database tasks queue
    // behind the running ones.
    let pool = WorkerPool::with_metrics(
        "recovery",
        PoolConfig::fixed(cfg.threads.max(1)),
        Some(crate::metrics::PoolMetrics::resolve(
            controller.metrics().registry(),
            "recovery",
            None,
        )),
    );
    let (res_tx, res_rx) = channel();
    for db in dbs {
        let res_tx = res_tx.clone();
        let controller = Arc::clone(controller);
        pool.spawn_task(move || {
            let outcome = copy_replica(&controller, &db, None, cfg.granularity, cfg.throttle);
            let _ = res_tx.send((db, outcome));
        });
    }
    drop(res_tx);

    let mut report = RecoveryReport::default();
    while let Ok((db, outcome)) = res_rx.recv() {
        match outcome {
            Ok((target, d)) => report.recovered.push((db, target, d)),
            Err(e) => report.failed.push((db, e)),
        }
    }
    drop(pool); // joins the copy threads
    report.recovered.sort_by(|a, b| a.0.cmp(&b.0));
    report.wall_time = started.elapsed();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{ClusterConfig, ClusterController};
    use tenantdb_storage::Value;

    fn cluster_with_data() -> (Arc<ClusterController>, Vec<MachineId>) {
        let c = ClusterController::with_machines(ClusterConfig::for_tests(), 4);
        let placed = c.create_database("app", 2).unwrap();
        c.ddl(
            "app",
            "CREATE TABLE a (id INT NOT NULL, v TEXT, PRIMARY KEY (id))",
        )
        .unwrap();
        c.ddl(
            "app",
            "CREATE TABLE b (id INT NOT NULL, v TEXT, PRIMARY KEY (id))",
        )
        .unwrap();
        let conn = c.connect("app").unwrap();
        for i in 0..30i64 {
            conn.execute("INSERT INTO a VALUES (?, 'x')", &[Value::Int(i)])
                .unwrap();
            conn.execute("INSERT INTO b VALUES (?, 'y')", &[Value::Int(i)])
                .unwrap();
        }
        (c, placed)
    }

    /// The failover benchmark's shape: m0 hosts `tpcw0`, `tpcw3` and
    /// `tpcw6`. Their new replicas go to the machines hosting the fewest
    /// databases, counting the copies already begun, not all to one.
    #[test]
    fn recovery_spreads_over_the_least_loaded_machines() {
        let c = ClusterController::with_machines(ClusterConfig::for_tests(), 6);
        for i in 0..8 {
            let db = format!("tpcw{i}");
            c.create_database(&db, 2).unwrap();
            c.ddl(&db, "CREATE TABLE t (id INT NOT NULL, PRIMARY KEY (id))")
                .unwrap();
        }
        c.fail_machine(MachineId(0)).unwrap();
        let report = recover_machine(
            &c,
            MachineId(0),
            RecoveryConfig {
                threads: 2,
                ..Default::default()
            },
        );
        assert!(report.failed.is_empty(), "{:?}", report.failed);
        let mut targets: Vec<u32> = report.recovered.iter().map(|(_, t, _)| t.0).collect();
        targets.sort_unstable();
        assert_eq!(targets, [2, 4, 5], "{:?}", report.recovered);
        let hosted: Vec<usize> = (1..6).map(|m| c.databases_on(MachineId(m)).len()).collect();
        assert!(
            hosted.iter().all(|&n| n <= 4),
            "databases per machine: {hosted:?}"
        );
    }

    #[test]
    fn create_replica_table_level_roundtrip() {
        let (c, placed) = cluster_with_data();
        let target = c
            .machine_ids()
            .into_iter()
            .find(|m| !placed.contains(m))
            .unwrap();
        create_replica(
            &c,
            "app",
            target,
            CopyGranularity::TableLevel,
            Throttle::UNLIMITED,
        )
        .unwrap();
        assert!(c.placement("app").unwrap().replicas.contains(&target));
        let m = c.machine(target).unwrap();
        let t = m.engine.begin().unwrap();
        assert_eq!(m.engine.scan(t, "app", "a").unwrap().len(), 30);
        assert_eq!(m.engine.scan(t, "app", "b").unwrap().len(), 30);
        m.engine.commit(t).unwrap();
    }

    #[test]
    fn recover_machine_recreates_all_lost_replicas() {
        // `masked_first`: a transaction already talking to the machine sees
        // it die and drops its replica before recovery starts. Recovery
        // owes the database a replica either way.
        for masked_first in [false, true] {
            let (c, placed) = cluster_with_data();
            let conn = c.connect("app").unwrap();
            conn.begin().unwrap();
            conn.execute("INSERT INTO a VALUES (98, 'x')", &[]).unwrap();
            c.fail_machine(placed[0]).unwrap();
            let rows = if masked_first {
                // PREPARE gets no vote from the dead participant.
                conn.commit().unwrap();
                assert!(c.databases_on(placed[0]).is_empty());
                31
            } else {
                conn.rollback().unwrap();
                30
            };
            let report = recover_machine(
                &c,
                placed[0],
                RecoveryConfig {
                    threads: 2,
                    ..Default::default()
                },
            );
            assert_eq!(report.recovered.len(), 1, "masked_first={masked_first}");
            assert!(report.failed.is_empty());
            let p = c.placement("app").unwrap();
            assert_eq!(p.replicas.len(), 2);
            assert!(!p.replicas.contains(&placed[0]));
            // The new replica has the data.
            let (_, target, _) = &report.recovered[0];
            let m = c.machine(*target).unwrap();
            let t = m.engine.begin().unwrap();
            assert_eq!(m.engine.scan(t, "app", "a").unwrap().len(), rows);
            m.engine.commit(t).unwrap();
            // The debt is settled: a second run finds nothing to do.
            let again = recover_machine(&c, placed[0], RecoveryConfig::default());
            assert!(again.recovered.is_empty() && again.failed.is_empty());
            // The copy is itself a replica that can crash. No write saw it
            // down, so it restarts still in the replica set — and must
            // serve from its own log what its sibling serves.
            c.fail_machine(*target).unwrap();
            c.restart_machine(*target).unwrap();
            assert!(c.alive_replicas("app").unwrap().contains(target));
            crate::testkit::assert_replicas_converged(&c, "app");
        }
    }

    #[test]
    fn writes_continue_during_table_level_copy() {
        let (c, placed) = cluster_with_data();
        let target = c
            .machine_ids()
            .into_iter()
            .find(|m| !placed.contains(m))
            .unwrap();
        // Slow copy in the background.
        let c2 = Arc::clone(&c);
        let handle = std::thread::spawn(move || {
            create_replica(
                &c2,
                "app",
                target,
                CopyGranularity::TableLevel,
                Throttle::new(200),
            )
            .unwrap();
        });
        // While table "a" is being copied (30 rows at 200 rows/s = 150ms),
        // writes to "b" (not yet copied) must succeed.
        std::thread::sleep(Duration::from_millis(30));
        let conn = c.connect("app").unwrap();
        let mut rejected_a = 0;
        let mut ok_b = 0;
        for i in 100..110i64 {
            match conn.execute("INSERT INTO a VALUES (?, 'during')", &[Value::Int(i)]) {
                Ok(_) => {}
                Err(ClusterError::WriteRejected { .. }) => rejected_a += 1,
                Err(e) => panic!("unexpected: {e}"),
            }
            ok_b += conn
                .execute("INSERT INTO b VALUES (?, 'during')", &[Value::Int(i)])
                .is_ok() as u32;
        }
        handle.join().unwrap();
        assert!(
            rejected_a > 0,
            "writes to the in-copy table must be rejected"
        );
        assert!(ok_b > 0, "writes to other tables must proceed");
        // After recovery, replicas converge: target has every committed row.
        let survivors = c.alive_replicas("app").unwrap();
        let counts: Vec<usize> = survivors
            .iter()
            .map(|&id| {
                let m = c.machine(id).unwrap();
                let t = m.engine.begin().unwrap();
                let n = m.engine.scan(t, "app", "a").unwrap().len()
                    + m.engine.scan(t, "app", "b").unwrap().len();
                m.engine.commit(t).unwrap();
                n
            })
            .collect();
        assert!(
            counts.windows(2).all(|w| w[0] == w[1]),
            "replicas diverged: {counts:?}"
        );
    }

    #[test]
    fn db_level_copy_rejects_all_writes() {
        let (c, placed) = cluster_with_data();
        let target = c
            .machine_ids()
            .into_iter()
            .find(|m| !placed.contains(m))
            .unwrap();
        let c2 = Arc::clone(&c);
        let handle = std::thread::spawn(move || {
            create_replica(
                &c2,
                "app",
                target,
                CopyGranularity::DatabaseLevel,
                Throttle::new(200),
            )
            .unwrap();
        });
        std::thread::sleep(Duration::from_millis(50));
        let conn = c.connect("app").unwrap();
        let ra = conn.execute("INSERT INTO a VALUES (500, 'x')", &[]);
        let rb = conn.execute("INSERT INTO b VALUES (500, 'x')", &[]);
        assert!(
            matches!(ra, Err(ClusterError::WriteRejected { .. }))
                && matches!(rb, Err(ClusterError::WriteRejected { .. })),
            "db-level copy must reject writes to every table"
        );
        // Reads still work during the copy.
        conn.execute("SELECT COUNT(*) FROM a", &[]).unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn migration_moves_replica() {
        let (c, placed) = cluster_with_data();
        let target = c
            .machine_ids()
            .into_iter()
            .find(|m| !placed.contains(m))
            .unwrap();
        migrate_replica(
            &c,
            "app",
            placed[1],
            target,
            CopyGranularity::TableLevel,
            Throttle::UNLIMITED,
        )
        .unwrap();
        let p = c.placement("app").unwrap();
        assert!(p.replicas.contains(&target));
        assert!(!p.replicas.contains(&placed[1]));
        assert!(!c.machine(placed[1]).unwrap().engine.has_database("app"));
    }

    #[test]
    fn recovery_with_no_spare_machine_fails_gracefully() {
        let c = ClusterController::with_machines(ClusterConfig::for_tests(), 2);
        let placed = c.create_database("app", 2).unwrap();
        c.ddl("app", "CREATE TABLE t (id INT NOT NULL, PRIMARY KEY (id))")
            .unwrap();
        c.fail_machine(placed[0]).unwrap();
        let report = recover_machine(&c, placed[0], RecoveryConfig::default());
        assert_eq!(report.recovered.len(), 0);
        assert_eq!(report.failed.len(), 1);
        assert_eq!(report.failed[0].1, ClusterError::NoMachines);
    }
}
