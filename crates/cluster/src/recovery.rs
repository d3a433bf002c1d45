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
//! A copy is a job of steps (`CopyJob`): one step per table in
//! [`copy::table_order`] at table granularity, one whole-database dump at
//! database granularity. Its first step begins the copy and chooses the
//! target — the machine `ControllerGroup::choose` picks, the same choice
//! that placed the database — and the step that copies the last table
//! finishes it. [`create_replica`] takes a job's steps on the calling
//! thread. [`recover_machine`] runs the jobs of every lost database on a
//! fixed-size [`crate::pool::WorkerPool`] of `threads` workers (Figure 8's
//! x-axis): the jobs with no step in flight wait in a queue, a free worker
//! takes the next step of the job at its front, and a job with steps left
//! goes to the back. So at most `threads` steps run at once, at most one
//! table of a database is being copied (Algorithm 1's t′ stays singular),
//! and no worker waits while a database with no step in flight still has
//! tables left. With one worker a job goes back to the front instead: the
//! copies run one after another, as interleaving them would not end
//! recovery sooner.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
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
    /// Recovery threads (Figure 8's x-axis): how many copy steps run at
    /// once. A step is one table at table granularity, and at most one
    /// table of a database is copied at a time; at database granularity a
    /// step is a whole database.
    pub threads: usize,
    /// Copy bandwidth limit of each step, so recovery overlaps live
    /// traffic; the aggregate is at most `threads` times this.
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
    /// (database, new replica machine, copy duration). The duration is the
    /// time the copy's steps took, not counting any wait for a free thread
    /// between them.
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

/// What one step of a copy dumps and restores.
enum Step {
    /// One table, in its own transaction (table granularity).
    Table(String),
    /// Every table in one transaction (database granularity).
    Database,
}

/// One database's replica copy, taken a step at a time (see the module
/// docs). Whoever drives it calls [`Self::step`] until it answers the
/// target; a step that fails abandons the copy.
struct CopyJob {
    db: String,
    granularity: CopyGranularity,
    throttle: Throttle,
    /// The target asked for; `None` lets the controller choose it.
    target: Option<MachineId>,
    /// The begun copy, from its first step on.
    run: Option<CopyRun>,
    /// Time spent in the job's steps: how long the copy took, not counting
    /// any wait for a free thread between them.
    busy: Duration,
}

/// A begun copy: its endpoints and the steps it has left.
struct CopyRun {
    target: MachineId,
    source: Arc<Machine>,
    target_machine: Arc<Machine>,
    /// The steps not yet taken, in order.
    steps: VecDeque<Step>,
}

impl CopyJob {
    fn new(
        db: String,
        target: Option<MachineId>,
        granularity: CopyGranularity,
        throttle: Throttle,
    ) -> Self {
        CopyJob {
            db,
            granularity,
            throttle,
            target,
            run: None,
            busy: Duration::ZERO,
        }
    }

    /// Take the job's next step, beginning the copy first if it has not
    /// begun. Answers the target and the copy's duration once the step
    /// finished the copy, `None` while steps are left.
    fn step(&mut self, controller: &ClusterController) -> Result<Option<(MachineId, Duration)>> {
        let started = Instant::now();
        let run = match &mut self.run {
            Some(run) => run,
            None => {
                let run = CopyRun::begin(controller, &self.db, self.target, self.granularity)?;
                self.run.insert(run)
            }
        };
        let stepped = run.next_step(controller, &self.db, self.throttle);
        self.busy += started.elapsed();
        if let Err(e) = stepped {
            controller.abandon_copy(&self.db);
            return Err(e);
        }
        if !run.steps.is_empty() {
            return Ok(None);
        }
        let target = run.target;
        controller.finish_copy(&self.db);
        controller
            .metrics()
            .copy_latency
            .observe_duration(self.busy);
        Ok(Some((target, self.busy)))
    }
}

impl CopyRun {
    /// Begin a copy of `db` onto `target` (or the machine the controller
    /// chooses), give the target an empty database and list the steps.
    /// Abandons the copy if anything after `begin_copy` fails.
    fn begin(
        controller: &ClusterController,
        db: &str,
        target: Option<MachineId>,
        granularity: CopyGranularity,
    ) -> Result<CopyRun> {
        // Until a table is marked copied no statement reaches the target, so
        // the copy can begin before the target's database exists.
        let target =
            controller.begin_copy(db, target, granularity == CopyGranularity::DatabaseLevel)?;
        let listed = (|| -> Result<CopyRun> {
            // Resolve both endpoints in one short controller step. Every
            // step works on the cloned machine `Arc`s: the bulk copy must
            // run free of every controller lock (asserted in `next_step`),
            // so Algorithm-1 routing, DDL and takeover never stall behind
            // a copy.
            let (source, target_machine) = controller.copy_endpoints(db, target)?;
            if target_machine.engine.has_database(db) {
                // A stale copy from a previous incarnation of this replica
                // (the machine failed, restarted from its WAL, and is now
                // being reused as a recovery target). The restored rows
                // carry their source row ids, so restoring over stale data
                // would collide or silently duplicate — the re-created
                // replica must start from scratch.
                target_machine.engine.drop_database(db)?;
            }
            target_machine.engine.create_database(db)?;
            // DDL is refused while the copy is in flight, so the tables
            // listed here are the tables the copy ends with.
            let steps = match granularity {
                CopyGranularity::TableLevel => copy::table_order(&source.engine, db)?
                    .into_iter()
                    .map(Step::Table)
                    .collect(),
                CopyGranularity::DatabaseLevel => VecDeque::from([Step::Database]),
            };
            Ok(CopyRun {
                target,
                source,
                target_machine,
                steps,
            })
        })();
        listed.inspect_err(|_| controller.abandon_copy(db))
    }

    /// Copy what the next step names, if any step is left.
    fn next_step(
        &mut self,
        controller: &ClusterController,
        db: &str,
        throttle: Throttle,
    ) -> Result<()> {
        let Some(step) = self.steps.pop_front() else {
            return Ok(());
        };
        let point = match &step {
            Step::Table(table) => {
                controller.set_copy_current(db, Some(table));
                CrashPoint::CopyTable
            }
            // `begin_copy` already marked the whole database rejected.
            Step::Database => CrashPoint::CopyStart,
        };
        // Grace period: wait out every write statement routed with the
        // copy state before the last tightening (`begin_copy` or
        // `set_copy_current`). A drained write either applied before the
        // dump's scan (which then sees it, or blocks on its 2PL lock until
        // commit) or was rejected; without the drain it could apply on the
        // source *after* the scan and be lost on the target.
        controller.quiesce_routing();
        // One crash-point hit per step, source then target (the property
        // tests in `tenantdb-sim` crash here at every table boundary × both
        // granularities).
        copy_fault_hook(controller, point, &self.source);
        copy_fault_hook(controller, point, &self.target_machine);
        // Lockdep-checked invariant: the copy itself holds no controller
        // (or outer) lock — only engine-level locks inside dump/restore.
        crate::sync::assert_no_controller_locks();
        let (source, target) = (&self.source.engine, &self.target_machine.engine);
        match step {
            Step::Table(table) => {
                let dump = copy::dump_table(source, db, &table, throttle)?;
                copy::restore_table(target, db, &dump)?;
                controller.mark_copied(db, &table);
            }
            Step::Database => {
                let dump = copy::dump_database(source, db, throttle)?;
                copy::restore_database(target, &dump)?;
            }
        }
        Ok(())
    }
}

/// Create one additional replica of `db` on `target` (used by migration),
/// taking every step of the copy on the calling thread. The target machine
/// must be alive; `db` must not already have a replica there.
pub fn create_replica(
    controller: &ClusterController,
    db: &str,
    target: MachineId,
    granularity: CopyGranularity,
    throttle: Throttle,
) -> Result<Duration> {
    let db = db.to_string();
    let mut job = CopyJob::new(db, Some(target), granularity, throttle);
    loop {
        if let Some((_, d)) = job.step(controller)? {
            return Ok(d);
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
///
/// The copies' steps share `cfg.threads` workers (see the module docs).
pub fn recover_machine(
    controller: &Arc<ClusterController>,
    failed_machine: MachineId,
    cfg: RecoveryConfig,
) -> RecoveryReport {
    let started = Instant::now();
    // Serve from survivors immediately.
    let dbs = controller.detach_machine(failed_machine);

    let threads = cfg.threads.max(1);
    let pool = WorkerPool::with_metrics(
        "recovery",
        PoolConfig::fixed(threads),
        Some(crate::metrics::PoolMetrics::resolve(
            controller.metrics().registry(),
            "recovery",
            None,
        )),
    );
    // The jobs with no step in flight, in the order their next steps are
    // taken; a job leaves the queue while a worker takes its step.
    let mut waiting: VecDeque<CopyJob> = dbs
        .into_iter()
        .map(|db| CopyJob::new(db, None, cfg.granularity, cfg.throttle))
        .collect();
    let (done_tx, done_rx) = channel();
    let mut in_flight = 0;
    let mut panicked = None;
    let mut report = RecoveryReport::default();
    loop {
        while in_flight < threads && panicked.is_none() {
            let Some(mut job) = waiting.pop_front() else {
                break;
            };
            let (controller, done_tx) = (Arc::clone(controller), done_tx.clone());
            pool.spawn_task(move || {
                // A panicking step resurfaces on the calling thread rather
                // than leaving it waiting for a step that never ends.
                let outcome = catch_unwind(AssertUnwindSafe(|| job.step(&controller)));
                let _ = done_tx.send((job, outcome));
            });
            in_flight += 1;
        }
        if in_flight == 0 {
            break;
        }
        // This thread holds a sender, so the channel never closes here.
        let Ok((job, outcome)) = done_rx.recv() else {
            break;
        };
        in_flight -= 1;
        match outcome {
            Err(panic) => {
                panicked = Some(panic);
                waiting.push_back(job);
            }
            Ok(Ok(None)) if threads == 1 => waiting.push_front(job),
            Ok(Ok(None)) => waiting.push_back(job),
            Ok(Ok(Some((target, d)))) => report.recovered.push((job.db, target, d)),
            Ok(Err(e)) => report.failed.push((job.db, e)),
        }
    }
    drop(pool); // joins the copy threads
    if let Some(panic) = panicked {
        // Leave no copy begun: its Algorithm-1 state would refuse writes
        // and DDL on the database for good.
        for job in waiting.iter().filter(|job| job.run.is_some()) {
            controller.abandon_copy(&job.db);
        }
        resume_unwind(panic);
    }
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

    /// Recovery's workers take steps, not databases. Three equal databases
    /// on the failed machine. Two threads at table granularity: every copy
    /// begins before the first finishes, at most two tables are in flight
    /// and never two of one database. Two threads at database granularity:
    /// a step is a whole database, at most two in flight. One thread: the
    /// copies run one after another. Counted from the event log, so no
    /// timing is involved.
    #[test]
    fn recovery_workers_take_tables_across_databases() {
        use CopyGranularity::{DatabaseLevel, TableLevel};
        for (granularity, threads) in [(TableLevel, 2), (DatabaseLevel, 2), (TableLevel, 1)] {
            let case = format!("{granularity:?}, {threads} threads");
            let c = ClusterController::with_machines(ClusterConfig::for_tests(), 4);
            let dbs = ["d0", "d1", "d2"];
            for db in dbs {
                c.create_database_on(db, &[MachineId(0), MachineId(1)])
                    .unwrap();
                let conn = c.connect(db).unwrap();
                for t in ["a", "b", "c"] {
                    let create = format!("CREATE TABLE {t} (id INT NOT NULL, PRIMARY KEY (id))");
                    c.ddl(db, &create).unwrap();
                    for i in 0..20i64 {
                        let insert = format!("INSERT INTO {t} VALUES (?)");
                        conn.execute(&insert, &[Value::Int(i)]).unwrap();
                    }
                }
            }
            c.fail_machine(MachineId(0)).unwrap();
            let report = recover_machine(
                &c,
                MachineId(0),
                RecoveryConfig {
                    granularity,
                    threads,
                    throttle: Throttle::new(50_000),
                },
            );
            assert!(report.failed.is_empty(), "{case}: {:?}", report.failed);
            assert_eq!(report.recovered.len(), 3, "{case}");

            let (mut begun, mut copies_open, mut tables_open) = (0, 0, Vec::new());
            for e in c.metrics().events().all() {
                let db = e.field("db").unwrap_or_default().to_string();
                match e.kind {
                    "copy_begin" => {
                        begun += 1;
                        copies_open += 1;
                    }
                    "copy_finish" => {
                        if (granularity, threads) == (TableLevel, 2) {
                            assert_eq!(begun, 3, "{case}: a copy finished before all began");
                        }
                        copies_open -= 1;
                    }
                    "copy_table_begin" => {
                        assert!(!tables_open.contains(&db), "{case}: two tables of {db}");
                        tables_open.push(db);
                        assert!(tables_open.len() <= threads, "{case}: {tables_open:?}");
                    }
                    "copy_table_done" => tables_open.retain(|open| *open != db),
                    _ => {}
                }
                if granularity == DatabaseLevel {
                    assert!(tables_open.is_empty(), "{case}: a table step");
                }
                if granularity == DatabaseLevel || threads == 1 {
                    assert!(copies_open <= threads, "{case}: {copies_open} copies open");
                }
            }
            assert_eq!((begun, copies_open), (3, 0), "{case}");
            for db in dbs {
                crate::testkit::assert_replicas_converged(&c, db);
            }
        }
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
