//! The seeded scenario runner: seed → cluster shape → workload → fault plan
//! → quiesce → invariant verdict, all deterministic.
//!
//! ## Why the runs replay byte-for-byte
//!
//! * The workload is driven **sequentially** from one client thread, so the
//!   order in which execution passes each (crash point, machine) pair — and
//!   therefore which operation a trigger's `after_hits` lands on — is a
//!   pure function of the statement stream.
//! * Three independent RNG streams are derived from the one seed (workload,
//!   cluster shape, fault plan), so the shrinker can replace the plan
//!   without perturbing the workload.
//! * Randomized plans only use machine-pinned triggers; wildcard hit counts
//!   can race across machine pools and are reserved for scripted scenarios
//!   where the outcome is order-independent.
//! * The report's fingerprint contains only seed-determined data: the
//!   config line, the armed plan, the sorted fired-fault schedule, the
//!   commit/abort counts and the violations.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use rand::{Rng, SeedableRng, StdRng};

use tenantdb_cluster::fault::{CrashPoint, FaultAction, FaultPlan, Trigger, CONTROLLER};
use tenantdb_cluster::recovery::{create_replica, CopyGranularity};
use tenantdb_cluster::testkit;
use tenantdb_cluster::{ClusterConfig, ClusterController, MachineId, ReadPolicy, WritePolicy};
use tenantdb_history::Recorder;
use tenantdb_storage::{Throttle, Value};

use crate::invariants;

/// Salt separating the cluster-shape RNG stream from the workload stream.
const SHAPE_SALT: u64 = 0x5eed_cafe_0000_0001;
/// Salt separating the fault-plan RNG stream from the workload stream.
const PLAN_SALT: u64 = 0x5eed_cafe_0000_0002;

/// Crash points eligible for randomized plans: the transaction hot path.
/// `CopyStart`/`CopyTable`/`TakeoverCommit` are exercised by the scripted
/// corpus and the recovery property tests (they need a copy or takeover in
/// flight to mean anything), and `PoolJob` hit counts depend on mailbox
/// batching and on whether a lane was idle when its caller arrived (a
/// caller-run turn and a dequeued job each count one hit), neither of
/// which is seed-deterministic.
const RANDOM_POINTS: [CrashPoint; 8] = [
    CrashPoint::ReplicaWriteApply,
    CrashPoint::ReplicaWriteAck,
    CrashPoint::PrepareApply,
    CrashPoint::PrepareAck,
    CrashPoint::CommitDecision,
    CrashPoint::CommitApply,
    CrashPoint::CommitAck,
    CrashPoint::CtrlPropose,
];

/// Shape of one simulated run, derived from the seed.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// The master seed everything below derives from.
    pub seed: u64,
    /// Machines in the cluster.
    pub machines: usize,
    /// Replication factor of the one simulated database.
    pub replicas: usize,
    /// Read-routing policy (Table 1 row).
    pub read: ReadPolicy,
    /// Write-acknowledgement policy (Table 1 column).
    pub write: WritePolicy,
    /// Transactions the driver executes.
    pub txns: usize,
    /// Replicated controller group size (1 = unreplicated, 3 = survives
    /// one controller crash).
    pub controllers: usize,
}

impl SimConfig {
    /// Derive the run shape from a seed (the `SHAPE_SALT` stream).
    pub fn from_seed(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ SHAPE_SALT);
        let machines = rng.gen_range(3..6usize);
        let replicas = rng.gen_range(2..(machines.min(4)));
        let read = match rng.gen_range(0..3u32) {
            0 => ReadPolicy::PinnedReplica,
            1 => ReadPolicy::PerTransaction,
            _ => ReadPolicy::PerOperation,
        };
        let write = if rng.gen_bool(0.5) {
            WritePolicy::Conservative
        } else {
            WritePolicy::Aggressive
        };
        let txns = rng.gen_range(16..33usize);
        // Drawn after every pre-existing field so old seeds keep their
        // shape (fingerprint stability across the corpus).
        let controllers = if rng.gen_bool(0.5) { 3 } else { 1 };
        SimConfig {
            seed,
            machines,
            replicas,
            read,
            write,
            txns,
            controllers,
        }
    }
}

impl fmt::Display for SimConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "seed=0x{:016x} machines={} replicas={} read={:?} write={:?} txns={} controllers={}",
            self.seed,
            self.machines,
            self.replicas,
            self.read,
            self.write,
            self.txns,
            self.controllers
        )
    }
}

/// Derive a randomized fault plan from the seed (the `PLAN_SALT` stream).
///
/// At most `replicas - 1` triggers may crash a machine, so the database
/// always keeps at least one replica that never crashed mid-run — total
/// replica loss is outside the paper's failure model (and outside what any
/// recovery protocol can promise). Excess crash candidates degrade to
/// delays. Controller crashes ([`CrashPoint::CommitDecision`] and
/// [`CrashPoint::CtrlPropose`], which kills the current controller
/// *leader replica*) are not machine crashes and are exempt from the cap.
pub fn generate_plan(seed: u64, cfg: &SimConfig) -> FaultPlan {
    let mut rng = StdRng::seed_from_u64(seed ^ PLAN_SALT);
    let n = rng.gen_range(1..4usize);
    let mut crash_budget = cfg.replicas - 1;
    let mut triggers = Vec::new();
    for _ in 0..n {
        let point = RANDOM_POINTS[rng.gen_range(0..RANDOM_POINTS.len())];
        let after_hits = rng.gen_range(0..6u64);
        if point == CrashPoint::CommitDecision || point == CrashPoint::CtrlPropose {
            let action = if rng.gen_bool(0.7) {
                FaultAction::Crash
            } else {
                FaultAction::Delay(Duration::from_millis(rng.gen_range(1..25u64)))
            };
            triggers.push(Trigger {
                point,
                machine: Some(CONTROLLER),
                after_hits,
                action,
            });
            continue;
        }
        let machine = MachineId(rng.gen_range(0..cfg.machines as u32));
        let wants_crash = rng.gen_bool(0.6);
        let action = if wants_crash && crash_budget > 0 {
            crash_budget -= 1;
            FaultAction::Crash
        } else {
            FaultAction::Delay(Duration::from_millis(rng.gen_range(1..25u64)))
        };
        triggers.push(Trigger {
            point,
            machine: Some(machine),
            after_hits,
            action,
        });
    }
    FaultPlan::new(triggers)
}

/// Outcome of one simulated run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The run's shape (including the seed).
    pub config: SimConfig,
    /// The fault plan that was armed.
    pub plan: FaultPlan,
    /// Canonical rendering of the faults that actually fired.
    pub schedule: String,
    /// Transactions whose commit was acknowledged.
    pub committed: usize,
    /// Transactions aborted (errors, injected faults, explicit rollbacks).
    pub aborted: usize,
    /// Invariant violations (empty = passed).
    pub violations: Vec<String>,
}

impl RunReport {
    /// True when every invariant held.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// The byte-comparable essence of the run: two runs of the same seed
    /// must produce identical fingerprints.
    pub fn fingerprint(&self) -> String {
        format!(
            "{}\nplan:\n{}schedule:\n{}committed={} aborted={}\nviolations:\n{}",
            self.config,
            self.plan.render(),
            self.schedule,
            self.committed,
            self.aborted,
            self.violations.join("\n"),
        )
    }

    /// Shell command that replays exactly this run.
    pub fn replay_command(&self) -> String {
        format!(
            "TENANTDB_SIM_SEED=0x{:016x} cargo test -p tenantdb-sim --test random replay -- --nocapture",
            self.config.seed
        )
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.fingerprint())?;
        if !self.passed() {
            writeln!(f, "replay: {}", self.replay_command())?;
        }
        Ok(())
    }
}

/// Run one fully seed-derived simulation: shape, workload and plan all come
/// from `seed`.
pub fn run_seed(seed: u64) -> RunReport {
    let cfg = SimConfig::from_seed(seed);
    let plan = generate_plan(seed, &cfg);
    run_with_plan(&cfg, &plan)
}

/// Run the seeded workload under an explicit fault plan (the shrinker calls
/// this with successively smaller plans; the workload stream stays fixed
/// because it derives from `cfg.seed`, not from the plan).
pub fn run_with_plan(cfg: &SimConfig, plan: &FaultPlan) -> RunReport {
    let cluster_cfg = ClusterConfig {
        read_policy: cfg.read,
        write_policy: cfg.write,
        engine: testkit::fast_engine_config(),
        seed: cfg.seed,
        controllers: cfg.controllers,
        ..Default::default()
    };
    let c = ClusterController::with_machines(cluster_cfg, cfg.machines);
    c.create_database("app", cfg.replicas).unwrap();
    c.ddl(
        "app",
        "CREATE TABLE t (k INT NOT NULL, v TEXT, PRIMARY KEY (k))",
    )
    .unwrap();
    let recorder = Arc::new(Recorder::new());
    c.set_recorder(Some(Arc::clone(&recorder)));
    c.faults().arm(plan.clone());

    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut acked: BTreeSet<i64> = BTreeSet::new();
    let mut next_key: i64 = 0;
    let mut committed = 0usize;
    let mut aborted = 0usize;

    let conn = c.connect("app").unwrap();
    for _ in 0..cfg.txns {
        conn.begin().unwrap();
        let stmts = rng.gen_range(1..4usize);
        let mut inserted: Vec<i64> = Vec::new();
        let mut failed = false;
        for _ in 0..stmts {
            let roll = rng.gen_range(0..100u32);
            let result = if roll < 50 {
                let k = next_key;
                next_key += 1;
                conn.execute(
                    "INSERT INTO t VALUES (?, ?)",
                    &[Value::Int(k), Value::Text(format!("v{k}"))],
                )
                .map(|_| inserted.push(k))
            } else if roll < 75 {
                let k = rng.gen_range(0..next_key.max(1));
                conn.execute(
                    "UPDATE t SET v = ? WHERE k = ?",
                    &[Value::Text(format!("u{k}")), Value::Int(k)],
                )
                .map(|_| ())
            } else {
                let k = rng.gen_range(0..next_key.max(1));
                conn.execute("SELECT v FROM t WHERE k = ?", &[Value::Int(k)])
                    .map(|_| ())
            };
            if result.is_err() {
                failed = true;
                break;
            }
        }
        // Short-circuit keeps the RNG stream identical: the voluntary
        // rollback draw only happens when every statement succeeded.
        if failed || rng.gen_bool(0.08) {
            let _ = conn.rollback();
            aborted += 1;
        } else {
            match conn.commit() {
                Ok(()) => {
                    committed += 1;
                    acked.extend(inserted);
                }
                Err(_) => aborted += 1,
            }
        }
    }
    drop(conn);

    // The run is over: freeze the schedule before quiescence so recovery
    // copies can't consume leftover triggers.
    c.faults().disarm();
    let schedule = c.faults().schedule();

    let mut violations = quiesce(&c, cfg.replicas);
    let acked: Vec<i64> = acked.into_iter().collect();
    violations.extend(invariants::check_run(
        &c,
        "app",
        "t",
        &acked,
        invariants::cell_is_serializable(cfg.read, cfg.write),
        &recorder,
    ));

    RunReport {
        config: cfg.clone(),
        plan: plan.clone(),
        schedule,
        committed,
        aborted,
        violations,
    }
}

/// Bring the cluster to a quiescent, fully-repaired state:
///
/// 1. restart every crashed machine (WAL replay + decision-log resolution);
/// 2. controller takeover — complete decided commits, abort in-doubt
///    transactions (the backup's §2 cleanup) and clear the tombstones the
///    restarts left;
/// 3. re-create lost replicas until every database is back at its
///    replication factor (Algorithm 1 copies onto spare machines).
///
/// Returns repair problems as violation strings (a database that cannot be
/// repaired is itself a finding).
pub fn quiesce(c: &Arc<ClusterController>, replicas: usize) -> Vec<String> {
    let mut issues = Vec::new();
    // Controller group first: heal partitions, restart crashed controller
    // replicas and re-elect, so every repair step below has a metadata
    // leader to talk to.
    c.controllers().quiesce();
    for m in c.machines() {
        if !m.is_failed() {
            continue;
        }
        // Failure *detection*: a machine that crashed without any client
        // write observing it is still a placement member, and its restart
        // below would otherwise let it rejoin with whatever state its WAL
        // held at the crash. Per §3.2 a detected-failed machine's replicas
        // are dropped and re-created by copy; leave a replica in place only
        // when it is the database's last one (the copy source).
        for db in c.databases_on(m.id) {
            match c.placement(&db) {
                Ok(p) if p.replicas.len() > 1 => c.remove_replica(&db, m.id),
                Ok(_) => issues.push(format!(
                    "{db}: last replica was on crashed machine {}",
                    m.id
                )),
                Err(e) => issues.push(format!("{db}: placement lookup failed: {e}")),
            }
        }
        let _ = c.restart_machine(m.id);
    }
    let _ = c.takeover();
    for db in c.database_names() {
        while let Ok(p) = c.placement(&db) {
            if p.replicas.len() >= replicas {
                break;
            }
            let target = c
                .machines()
                .into_iter()
                .filter(|m| !m.is_failed() && !p.replicas.contains(&m.id))
                .map(|m| m.id)
                .min();
            let Some(target) = target else {
                issues.push(format!("{db}: no spare machine to rebuild replication"));
                break;
            };
            if let Err(e) = create_replica(
                c,
                &db,
                target,
                CopyGranularity::TableLevel,
                Throttle::UNLIMITED,
            ) {
                issues.push(format!("{db}: replica rebuild on {target} failed: {e}"));
                break;
            }
        }
    }
    issues
}
