//! The scripted scenario corpus: one precisely pinned interleaving per
//! known-dangerous window of the protocols.
//!
//! Where the randomized runner ([`crate::runner::run_seed`]) explores, the
//! corpus *pins*: each scenario builds a small cluster, arms a hand-written
//! [`FaultPlan`] whose triggers name the exact (crash point, machine, hit)
//! to strike, asserts the protocol-level outcome the paper's design implies
//! (commit acknowledged or refused, copy failed and retried, …), and then
//! runs the same quiesce-and-check pipeline as the randomized runs. Every
//! scenario is deterministic: the plans pin machines, the workloads are
//! fixed, and the verdict never depends on thread scheduling.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use tenantdb_cluster::fault::{
    CrashPoint, FaultAction, FaultInjector, FaultPlan, Trigger, CONTROLLER, GEO,
};
use tenantdb_cluster::recovery::{
    create_replica, recover_machine, CopyGranularity, RecoveryConfig,
};
use tenantdb_cluster::testkit;
use tenantdb_cluster::{
    ClusterConfig, ClusterController, ClusterError, Connection, MachineId, ReadPolicy, WritePolicy,
};
use tenantdb_georep::{promote, Applier, GeoError, GeoLink, GeoMetrics, SharedApplier, Shipper};
use tenantdb_history::Recorder;
use tenantdb_obs::MetricsRegistry;
use tenantdb_sla::Sla;
use tenantdb_storage::{Throttle, Value};

use crate::invariants::{self, cell_is_serializable};
use crate::runner;

use std::time::Duration;

/// One scripted simulation scenario.
pub struct Scenario {
    /// Stable identifier (used in test names and CI output).
    pub name: &'static str,
    /// What window this scenario pins.
    pub about: &'static str,
    /// The crash points the scenario's plan fires — all of them, and no
    /// other ([`Scenario::run`] holds this against the injectors' logs, and
    /// the corpus test needs the union to cover [`CrashPoint::ALL`]).
    pub fires: &'static [CrashPoint],
    body: fn() -> Result<(), String>,
}

thread_local! {
    /// The injectors of the clusters the running scenario built (bodies
    /// build them on the calling thread), for [`Scenario::run`] to read.
    static INJECTORS: RefCell<Vec<Arc<FaultInjector>>> = const { RefCell::new(Vec::new()) };
}

fn track(c: &Arc<ClusterController>) {
    INJECTORS.with(|i| i.borrow_mut().push(Arc::clone(c.faults())));
}

impl Scenario {
    /// Execute the scenario; `Err` describes the violated expectation —
    /// the body's own, or a `fires` list that is not what fired.
    pub fn run(&self) -> Result<(), String> {
        INJECTORS.with(|i| i.borrow_mut().clear());
        (self.body)()?;
        let fired: BTreeSet<CrashPoint> = INJECTORS
            .with(|i| i.take())
            .iter()
            .flat_map(|inj| inj.fired())
            .map(|f| f.point)
            .collect();
        let declared: BTreeSet<CrashPoint> = self.fires.iter().copied().collect();
        if fired == declared {
            Ok(())
        } else {
            Err(format!(
                "declares `fires: {declared:?}` but its injectors logged {fired:?}"
            ))
        }
    }
}

/// Every scripted scenario, in corpus order.
pub fn all_scenarios() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "crash_before_prepare_vote",
            about: "participant dies before applying PREPARE; commit proceeds on the survivor",
            fires: &[CrashPoint::PrepareApply],
            body: crash_before_prepare_vote,
        },
        Scenario {
            name: "crash_after_prepare_vote",
            about: "participant votes yes, dies before COMMIT reaches it; survivor carries the acked commit",
            fires: &[CrashPoint::PrepareAck],
            body: crash_after_prepare_vote,
        },
        Scenario {
            name: "controller_crash_after_decision",
            about: "controller dies with the decision only in the mirrored log; backup takeover completes it",
            fires: &[CrashPoint::CommitDecision],
            body: controller_crash_after_decision,
        },
        Scenario {
            name: "controller_crash_with_dead_participant",
            about: "controller AND one voted participant die; restart recovers the commit from the decision log without a recopy",
            fires: &[CrashPoint::PrepareAck, CrashPoint::CommitDecision],
            body: controller_crash_with_dead_participant,
        },
        Scenario {
            name: "takeover_commit_participant_crash",
            about: "a participant dies in the instant the backup's takeover reaches for its decided commit; restart applies it from the decision log",
            fires: &[CrashPoint::CommitDecision, CrashPoint::TakeoverCommit],
            body: takeover_commit_participant_crash,
        },
        Scenario {
            name: "participant_crash_before_commit_apply",
            about: "participant dies between the decision and applying COMMIT",
            fires: &[CrashPoint::CommitApply],
            body: participant_crash_before_commit_apply,
        },
        Scenario {
            name: "participant_crash_after_commit",
            about: "participant applies COMMIT, dies before anything else; WAL replay restores it in place",
            fires: &[CrashPoint::CommitAck],
            body: participant_crash_after_commit,
        },
        Scenario {
            name: "copy_target_crash_at_table_boundary",
            about: "Algorithm-1 table-level copy target dies at a table boundary; retry after restart succeeds",
            fires: &[CrashPoint::CopyTable],
            body: copy_target_crash_at_table_boundary,
        },
        Scenario {
            name: "copy_source_crash_db_level",
            about: "Algorithm-1 database-level copy source dies at copy start; retry after restart succeeds",
            fires: &[CrashPoint::CopyStart],
            body: copy_source_crash_db_level,
        },
        Scenario {
            name: "straggler_ack_delay",
            about: "aggressive writes with one replica acking late; ordering still settles before commit",
            fires: &[CrashPoint::ReplicaWriteAck],
            body: straggler_ack_delay,
        },
        Scenario {
            name: "aggressive_acked_first_crash",
            about: "aggressive write acked by the fast replica which then dies; the straggler preserves the commit",
            fires: &[CrashPoint::ReplicaWriteApply, CrashPoint::ReplicaWriteAck],
            body: aggressive_acked_first_crash,
        },
        Scenario {
            name: "lock_timeout_storm",
            about: "injected ack delays exceed the lock timeout under contention; timed-out txns abort cleanly",
            fires: &[CrashPoint::ReplicaWriteAck],
            body: lock_timeout_storm,
        },
        Scenario {
            name: "fail_machine_idempotent",
            about: "failing an already-failed machine is a no-op and emits no duplicate event",
            fires: &[],
            body: fail_machine_idempotent,
        },
        Scenario {
            name: "pool_job_delay",
            about: "scheduler-level job delays on one machine's pool perturb timing but not correctness",
            fires: &[CrashPoint::PoolJob],
            body: pool_job_delay,
        },
        Scenario {
            name: "delayed_commit_decision",
            about: "the decision-to-COMMIT window is held open; nothing observes the intermediate state",
            fires: &[CrashPoint::CommitDecision],
            body: delayed_commit_decision,
        },
        Scenario {
            name: "ctrl_leader_kill_mid_commit_decision",
            about: "the controller leader replica dies as a 2PC decision is proposed; re-election retries it and the commit is acked",
            fires: &[CrashPoint::CtrlPropose],
            body: ctrl_leader_kill_mid_commit_decision,
        },
        Scenario {
            name: "ctrl_leader_kill_mid_copy",
            about: "the controller leader replica dies mid-Algorithm-1 copy (at set-copy-current); the copy completes after re-election",
            fires: &[CrashPoint::CtrlPropose],
            body: ctrl_leader_kill_mid_copy,
        },
        Scenario {
            name: "ctrl_partition_minority_heals",
            about: "the controller leader is partitioned away; the majority re-elects, writes proceed, the healed minority catches up",
            fires: &[],
            body: ctrl_partition_minority_heals,
        },
        Scenario {
            name: "ctrl_rolling_restart",
            about: "each controller replica is crashed and restarted in turn with snapshots forced; metadata survives the full roll",
            fires: &[],
            body: ctrl_rolling_restart,
        },
        Scenario {
            name: "ctrl_quorum_loss_rejects_writes",
            about: "two of three controller replicas die; metadata writes fail NotLeader until a replica restarts",
            fires: &[],
            body: ctrl_quorum_loss_rejects_writes,
        },
        Scenario {
            name: "sla_noisy_neighbor",
            about: "a hammering tenant is shed at the admission gate while a paced compliant tenant keeps its SLA floor",
            fires: &[],
            body: sla_noisy_neighbor,
        },
        Scenario {
            name: "sla_reject_under_failover",
            about: "admission sheds ride out a machine failure and an Algorithm-1 recopy; the gate still enforces afterwards",
            fires: &[],
            body: sla_reject_under_failover,
        },
        Scenario {
            name: "geo_colo_partition",
            about: "the cross-colo stream is partitioned mid-ship (with an injected ship-batch delay); after healing, the standby resumes from the cumulative ack and converges",
            fires: &[CrashPoint::GeoShipBatch],
            body: geo_colo_partition,
        },
        Scenario {
            name: "geo_lagging_standby_promotion",
            about: "the primary colo dies while the standby lags; promotion preserves every standby-acked commit and the new colo takes writes",
            fires: &[],
            body: geo_lagging_standby_promotion,
        },
        Scenario {
            name: "geo_split_brain_fenced",
            about: "planned failover fences the old primary against every write while reads stay up; the teeth half proves check_geo fires when fencing is skipped",
            fires: &[],
            body: geo_split_brain_fenced,
        },
        Scenario {
            name: "geo_standby_attached_after_recovery",
            about: "both original replicas are replaced by Algorithm-1 copies, then a fresh standby is attached; it must receive every row (a copy is in its replica's log) and serve them once promoted",
            fires: &[CrashPoint::GeoApplyBatch, CrashPoint::GeoPromote],
            body: geo_standby_attached_after_recovery,
        },
    ]
}

// ------------------------------------------------------------------ helpers

/// `m0, m1, …` — fresh clusters place a database on the lowest machine ids,
/// so scripted plans can name replicas directly.
fn m(n: u32) -> MachineId {
    MachineId(n)
}

fn trig(point: CrashPoint, machine: MachineId, after_hits: u64, action: FaultAction) -> Trigger {
    Trigger {
        point,
        machine: Some(machine),
        after_hits,
        action,
    }
}

fn crash(point: CrashPoint, machine: MachineId, after_hits: u64) -> Trigger {
    trig(point, machine, after_hits, FaultAction::Crash)
}

fn delay(point: CrashPoint, machine: MachineId, after_hits: u64, ms: u64) -> Trigger {
    trig(
        point,
        machine,
        after_hits,
        FaultAction::Delay(Duration::from_millis(ms)),
    )
}

/// Build the standard scenario cluster (database `app`, table `t`) with a
/// history recorder attached.
fn cluster(
    read: ReadPolicy,
    write: WritePolicy,
    machines: usize,
    replicas: usize,
) -> (Arc<ClusterController>, Arc<Recorder>) {
    let c = testkit::cluster(read, write, machines, replicas);
    track(&c);
    let rec = Arc::new(Recorder::new());
    c.set_recorder(Some(Arc::clone(&rec)));
    (c, rec)
}

/// Like [`cluster`], with a replicated controller group of three metadata
/// replicas (the controller-failover scenarios).
fn cluster_ctrl(
    read: ReadPolicy,
    write: WritePolicy,
    machines: usize,
    replicas: usize,
) -> (Arc<ClusterController>, Arc<Recorder>) {
    let c = testkit::cluster_with_controllers(read, write, machines, replicas, 3);
    track(&c);
    let rec = Arc::new(Recorder::new());
    c.set_recorder(Some(Arc::clone(&rec)));
    (c, rec)
}

/// Insert `k` in its own explicit transaction; returns `Ok(())` only if the
/// commit was acknowledged.
fn insert_txn(conn: &Connection, k: i64) -> Result<(), String> {
    conn.begin().map_err(|e| format!("begin: {e}"))?;
    if let Err(e) = conn.execute(
        "INSERT INTO t VALUES (?, ?)",
        &[Value::Int(k), Value::Text(format!("v{k}"))],
    ) {
        let _ = conn.rollback();
        return Err(format!("insert {k}: {e}"));
    }
    conn.commit().map_err(|e| format!("commit {k}: {e}"))
}

/// Disarm, quiesce, and run the three invariant checkers; `Err` joins every
/// violation into one line.
fn finish(
    c: &Arc<ClusterController>,
    replicas: usize,
    acked: &[i64],
    read: ReadPolicy,
    write: WritePolicy,
    rec: &Recorder,
) -> Result<(), String> {
    c.faults().disarm();
    let mut v = runner::quiesce(c, replicas);
    v.extend(invariants::check_run(
        c,
        "app",
        "t",
        acked,
        cell_is_serializable(read, write),
        rec,
    ));
    if v.is_empty() {
        Ok(())
    } else {
        Err(v.join("; "))
    }
}

fn expect(cond: bool, what: &str) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(what.to_string())
    }
}

// ---------------------------------------------------------------- scenarios

/// A 2PC participant crashes *before* applying PREPARE. Its vote never
/// arrives, the controller discards the replica and commits on the
/// survivor; the crashed machine rejoins by recopy.
fn crash_before_prepare_vote() -> Result<(), String> {
    let (read, write) = (ReadPolicy::PinnedReplica, WritePolicy::Conservative);
    let (c, rec) = cluster(read, write, 3, 2);
    let conn = c.connect("app").map_err(|e| e.to_string())?;
    let mut acked = vec![0, 1];
    for &k in &[0i64, 1] {
        insert_txn(&conn, k)?;
    }

    c.faults().arm(FaultPlan::new(vec![crash(
        CrashPoint::PrepareApply,
        m(1),
        0,
    )]));
    insert_txn(&conn, 100)
        .map_err(|e| format!("commit must survive a pre-vote participant crash: {e}"))?;
    acked.push(100);
    expect(
        c.machine(m(1)).map_err(|e| e.to_string())?.is_failed(),
        "m1 must be down after the injected crash",
    )?;
    finish(&c, 2, &acked, read, write, &rec)
}

/// A participant votes yes and crashes before the COMMIT reaches it. The
/// decision stands, the client is acked, and the crashed machine's prepared
/// transaction is cleaned up when it rejoins via recopy.
fn crash_after_prepare_vote() -> Result<(), String> {
    let (read, write) = (ReadPolicy::PinnedReplica, WritePolicy::Conservative);
    let (c, rec) = cluster(read, write, 3, 2);
    let conn = c.connect("app").map_err(|e| e.to_string())?;
    insert_txn(&conn, 0)?;

    c.faults()
        .arm(FaultPlan::new(vec![crash(CrashPoint::PrepareAck, m(1), 0)]));
    insert_txn(&conn, 100)
        .map_err(|e| format!("commit must survive a post-vote participant crash: {e}"))?;
    finish(&c, 2, &[0, 100], read, write, &rec)
}

/// The controller crashes after logging the commit decision but before any
/// participant COMMIT. The backup's takeover completes the commit from the
/// mirrored decision log (§2's process-pair promise).
fn controller_crash_after_decision() -> Result<(), String> {
    let (read, write) = (ReadPolicy::PinnedReplica, WritePolicy::Conservative);
    let (c, rec) = cluster(read, write, 3, 2);
    let conn = c.connect("app").map_err(|e| e.to_string())?;
    insert_txn(&conn, 0)?;

    c.faults().arm(FaultPlan::new(vec![crash(
        CrashPoint::CommitDecision,
        CONTROLLER,
        0,
    )]));
    insert_txn(&conn, 100)
        .map_err(|e| format!("a decided commit must be acked despite the controller crash: {e}"))?;
    // `finish` runs the takeover; both participants are alive, so the
    // decision completes on both and the acked key must be everywhere.
    finish(&c, 2, &[0, 100], read, write, &rec)
}

/// The hardest 2PC window: the controller crashes after the decision AND
/// one participant crashed right after voting yes. The participant restarts
/// holding the transaction prepared in its WAL; the retained decision log
/// entry must convert it to a commit at restart — no recopy involved.
fn controller_crash_with_dead_participant() -> Result<(), String> {
    let (read, write) = (ReadPolicy::PinnedReplica, WritePolicy::Conservative);
    let (c, rec) = cluster(read, write, 3, 2);
    let conn = c.connect("app").map_err(|e| e.to_string())?;
    insert_txn(&conn, 0)?;

    c.faults().arm(FaultPlan::new(vec![
        crash(CrashPoint::PrepareAck, m(1), 0),
        crash(CrashPoint::CommitDecision, CONTROLLER, 0),
    ]));
    insert_txn(&conn, 100).map_err(|e| format!("decided commit must be acked: {e}"))?;
    c.faults().disarm();

    // Quiesce by hand to pin the mechanism: takeover completes the commit
    // on m0, retains m1's decision, and m1's restart applies it from the
    // decision log — m1 must still be a replica (no recopy) and converged.
    let report = c.takeover();
    expect(
        report.completed.len() == 1,
        "takeover must complete exactly the one decided commit",
    )?;
    c.restart_machine(m(1)).map_err(|e| e.to_string())?;
    let p = c.placement("app").map_err(|e| e.to_string())?;
    expect(
        p.replicas.contains(&m(1)),
        "m1 must rejoin from its own WAL + decision log, not via recopy",
    )?;
    let v = invariants::check_run(&c, "app", "t", &[0, 100], true, &rec);
    if !v.is_empty() {
        return Err(v.join("; "));
    }
    Ok(())
}

/// The takeover's own window: the controller crashes after the decision,
/// and as the backup's takeover reaches for one participant to complete
/// that commit, the participant dies ([`CrashPoint::TakeoverCommit`]).
/// Takeover must treat it like any other down-machine commit — the entry
/// stays unresolved in the replicated decision log, and the participant's
/// restart converts its prepared transaction from that log, no recopy.
fn takeover_commit_participant_crash() -> Result<(), String> {
    let (read, write) = (ReadPolicy::PinnedReplica, WritePolicy::Conservative);
    let (c, rec) = cluster(read, write, 3, 2);
    let conn = c.connect("app").map_err(|e| e.to_string())?;
    insert_txn(&conn, 0)?;

    c.faults().arm(FaultPlan::new(vec![
        crash(CrashPoint::CommitDecision, CONTROLLER, 0),
        crash(CrashPoint::TakeoverCommit, m(1), 0),
    ]));
    insert_txn(&conn, 100)
        .map_err(|e| format!("a decided commit must be acked despite the controller crash: {e}"))?;

    // Takeover by hand with the TakeoverCommit trigger still armed: it
    // fires as the takeover reaches for m1, which dies mid-takeover.
    let report = c.takeover();
    expect(
        report.completed.len() == 1,
        "takeover must still complete the decided commit on the survivor",
    )?;
    expect(
        c.machine(m(1)).map_err(|e| e.to_string())?.is_failed(),
        "m1 must be down after the injected takeover-window crash",
    )?;
    c.faults().disarm();
    c.restart_machine(m(1)).map_err(|e| e.to_string())?;
    let p = c.placement("app").map_err(|e| e.to_string())?;
    expect(
        p.replicas.contains(&m(1)),
        "m1 must rejoin from its WAL + retained decision entry, not via recopy",
    )?;
    let v = invariants::check_run(&c, "app", "t", &[0, 100], true, &rec);
    if !v.is_empty() {
        return Err(v.join("; "));
    }
    Ok(())
}

/// A participant crashes between the controller's decision and applying its
/// COMMIT. The write-all contract holds on the survivor; the dead replica
/// is discarded and recopied.
fn participant_crash_before_commit_apply() -> Result<(), String> {
    let (read, write) = (ReadPolicy::PinnedReplica, WritePolicy::Conservative);
    let (c, rec) = cluster(read, write, 3, 2);
    let conn = c.connect("app").map_err(|e| e.to_string())?;
    insert_txn(&conn, 0)?;

    c.faults().arm(FaultPlan::new(vec![crash(
        CrashPoint::CommitApply,
        m(1),
        0,
    )]));
    insert_txn(&conn, 100)
        .map_err(|e| format!("commit must survive a pre-apply participant crash: {e}"))?;
    finish(&c, 2, &[0, 100], read, write, &rec)
}

/// A participant applies COMMIT and crashes immediately after. Nothing was
/// lost: its WAL holds the commit record, so a plain restart (redo replay)
/// brings it back converged, still a member of the placement.
fn participant_crash_after_commit() -> Result<(), String> {
    let (read, write) = (ReadPolicy::PinnedReplica, WritePolicy::Conservative);
    let (c, rec) = cluster(read, write, 3, 2);
    let conn = c.connect("app").map_err(|e| e.to_string())?;
    insert_txn(&conn, 0)?;

    c.faults()
        .arm(FaultPlan::new(vec![crash(CrashPoint::CommitAck, m(1), 0)]));
    insert_txn(&conn, 100).map_err(|e| format!("commit was applied everywhere: {e}"))?;
    c.faults().disarm();
    expect(
        c.machine(m(1)).map_err(|e| e.to_string())?.is_failed(),
        "m1 must be down after the post-commit crash",
    )?;
    c.restart_machine(m(1)).map_err(|e| e.to_string())?;
    let p = c.placement("app").map_err(|e| e.to_string())?;
    expect(
        p.replicas.contains(&m(1)),
        "a cleanly-committed replica rejoins by WAL replay, not recopy",
    )?;
    let v = invariants::check_run(&c, "app", "t", &[0, 100], true, &rec);
    if v.is_empty() {
        Ok(())
    } else {
        Err(v.join("; "))
    }
}

/// The Algorithm-1 copy *target* dies at a table boundary of a table-level
/// copy. The copy reports failure (and clears its reject window); after a
/// restart the retry succeeds and the new replica is converged.
fn copy_target_crash_at_table_boundary() -> Result<(), String> {
    let (read, write) = (ReadPolicy::PinnedReplica, WritePolicy::Conservative);
    let (c, rec) = cluster(read, write, 3, 1);
    let conn = c.connect("app").map_err(|e| e.to_string())?;
    for k in 0..5i64 {
        insert_txn(&conn, k)?;
    }

    c.faults()
        .arm(FaultPlan::new(vec![crash(CrashPoint::CopyTable, m(2), 0)]));
    let r = create_replica(
        &c,
        "app",
        m(2),
        CopyGranularity::TableLevel,
        Throttle::UNLIMITED,
    );
    expect(r.is_err(), "copy must fail when the target dies mid-copy")?;
    c.faults().disarm();

    // The abandoned copy must not leave the reject window open.
    insert_txn(&conn, 100)?;
    c.restart_machine(m(2)).map_err(|e| e.to_string())?;
    create_replica(
        &c,
        "app",
        m(2),
        CopyGranularity::TableLevel,
        Throttle::UNLIMITED,
    )
    .map_err(|e| format!("retry after restart must succeed: {e}"))?;
    let v = invariants::check_run(&c, "app", "t", &[0, 1, 2, 3, 4, 100], true, &rec);
    if v.is_empty() {
        Ok(())
    } else {
        Err(v.join("; "))
    }
}

/// The Algorithm-1 copy *source* dies at the start of a database-level
/// copy. Same contract: failed copy, clean reject window, successful retry
/// after the source restarts (its data survives via WAL replay).
fn copy_source_crash_db_level() -> Result<(), String> {
    let (read, write) = (ReadPolicy::PinnedReplica, WritePolicy::Conservative);
    let (c, rec) = cluster(read, write, 3, 1);
    let conn = c.connect("app").map_err(|e| e.to_string())?;
    for k in 0..5i64 {
        insert_txn(&conn, k)?;
    }

    c.faults()
        .arm(FaultPlan::new(vec![crash(CrashPoint::CopyStart, m(0), 0)]));
    let r = create_replica(
        &c,
        "app",
        m(2),
        CopyGranularity::DatabaseLevel,
        Throttle::UNLIMITED,
    );
    expect(
        r.is_err(),
        "copy must fail when the source dies at copy start",
    )?;
    c.faults().disarm();

    c.restart_machine(m(0)).map_err(|e| e.to_string())?;
    create_replica(
        &c,
        "app",
        m(2),
        CopyGranularity::DatabaseLevel,
        Throttle::UNLIMITED,
    )
    .map_err(|e| format!("retry after source restart must succeed: {e}"))?;
    let v = invariants::check_run(&c, "app", "t", &[0, 1, 2, 3, 4], true, &rec);
    if v.is_empty() {
        Ok(())
    } else {
        Err(v.join("; "))
    }
}

/// Aggressive writes where one replica acks each write tens of
/// milliseconds late. The session-lane ordering means the straggling acks
/// settle before PREPARE, so commits stay correct — this pins the
/// "asynchronous propagation" half of §3.1's aggressive policy.
fn straggler_ack_delay() -> Result<(), String> {
    let (read, write) = (ReadPolicy::PinnedReplica, WritePolicy::Aggressive);
    let (c, rec) = cluster(read, write, 3, 2);
    let conn = c.connect("app").map_err(|e| e.to_string())?;

    c.faults().arm(FaultPlan::new(vec![
        delay(CrashPoint::ReplicaWriteAck, m(1), 0, 40),
        delay(CrashPoint::ReplicaWriteAck, m(1), 1, 40),
        delay(CrashPoint::ReplicaWriteAck, m(1), 2, 40),
    ]));
    let mut acked = Vec::new();
    for k in 0..4i64 {
        insert_txn(&conn, k)?;
        acked.push(k);
    }
    finish(&c, 2, &acked, read, write, &rec)
}

/// The aggressive-durability cell of Table 1: the replica that acked first
/// crashes right after acking, while the other replica is still applying.
/// The commit must still be acknowledged and durable on the straggler.
fn aggressive_acked_first_crash() -> Result<(), String> {
    let (read, write) = (ReadPolicy::PinnedReplica, WritePolicy::Aggressive);
    let (c, rec) = cluster(read, write, 3, 2);
    let conn = c.connect("app").map_err(|e| e.to_string())?;
    insert_txn(&conn, 0)?;

    c.faults().arm(FaultPlan::new(vec![
        crash(CrashPoint::ReplicaWriteAck, m(0), 0),
        delay(CrashPoint::ReplicaWriteApply, m(1), 0, 40),
    ]));
    insert_txn(&conn, 100).map_err(|e| format!("the straggler must carry the acked write: {e}"))?;
    expect(
        c.machine(m(0)).map_err(|e| e.to_string())?.is_failed(),
        "m0 must be down after acking",
    )?;
    finish(&c, 2, &[0, 100], read, write, &rec)
}

/// Two clients contend on one key while injected ack delays on the pinned
/// replica exceed the engine's 400 ms lock timeout. Timed-out transactions
/// must abort cleanly on every replica — no half-applied updates, and the
/// surviving history still serializable.
fn lock_timeout_storm() -> Result<(), String> {
    let (read, write) = (ReadPolicy::PinnedReplica, WritePolicy::Conservative);
    let (c, rec) = cluster(read, write, 3, 2);
    let setup = c.connect("app").map_err(|e| e.to_string())?;
    insert_txn(&setup, 0)?;

    // Hold the write lock on k=0 for 600 ms inside each of the first two
    // updates: whichever client loses the race waits past the 400 ms lock
    // timeout and must abort.
    c.faults().arm(FaultPlan::new(vec![
        delay(CrashPoint::ReplicaWriteAck, m(0), 0, 600),
        delay(CrashPoint::ReplicaWriteAck, m(1), 0, 600),
    ]));
    let mut handles = Vec::new();
    for i in 0..2 {
        let c = Arc::clone(&c);
        handles.push(std::thread::spawn(move || -> Result<bool, String> {
            let conn = c.connect("app").map_err(|e| e.to_string())?;
            conn.begin().map_err(|e| e.to_string())?;
            let r = conn.execute(
                "UPDATE t SET v = ? WHERE k = 0",
                &[Value::Text(format!("writer{i}"))],
            );
            match r {
                Ok(_) => conn.commit().map(|_| true).map_err(|e| e.to_string()),
                Err(_) => {
                    let _ = conn.rollback();
                    Ok(false)
                }
            }
        }));
    }
    // Under the injected delays the two writers can even deadlock across
    // replicas (each holding the key's lock on a different machine) and
    // both time out — a legal outcome. What the storm must NOT do is wedge
    // the key: once the faults are gone, an update commits first try.
    let mut committed = 0;
    for h in handles {
        if h.join()
            .map_err(|_| "writer thread panicked".to_string())??
        {
            committed += 1;
        }
    }
    c.faults().disarm();
    expect(
        committed <= 1,
        "contending writers may not both win the lock",
    )?;
    setup
        .begin()
        .and_then(|_| {
            setup.execute("UPDATE t SET v = 'after-storm' WHERE k = 0", &[])?;
            setup.commit()
        })
        .map_err(|e| format!("the key must be writable after the storm: {e}"))?;
    finish(&c, 2, &[0], read, write, &rec)
}

/// Failing a machine twice must be an accepted no-op: one `Ok`, one
/// `machine_failed` event, and a restart still works. (Regression test for
/// the double-fail panic.)
fn fail_machine_idempotent() -> Result<(), String> {
    let (read, write) = (ReadPolicy::PinnedReplica, WritePolicy::Conservative);
    let (c, rec) = cluster(read, write, 3, 2);
    let conn = c.connect("app").map_err(|e| e.to_string())?;
    insert_txn(&conn, 0)?;

    c.fail_machine(m(2))
        .map_err(|e| format!("first fail: {e}"))?;
    c.fail_machine(m(2))
        .map_err(|e| format!("second fail must be idempotent: {e}"))?;
    let failures = c
        .metrics()
        .events()
        .all()
        .into_iter()
        .filter(|ev| ev.kind == "machine_failed" && ev.field("machine") == Some("m2"))
        .count();
    expect(
        failures == 1,
        &format!("exactly one machine_failed event for m2, saw {failures}"),
    )?;
    c.restart_machine(m(2)).map_err(|e| e.to_string())?;
    let v = invariants::check_run(&c, "app", "t", &[0], true, &rec);
    if v.is_empty() {
        Ok(())
    } else {
        Err(v.join("; "))
    }
}

/// Delays injected at the pool-job level (before any engine work) on one
/// machine: timing shifts, correctness doesn't.
fn pool_job_delay() -> Result<(), String> {
    let (read, write) = (ReadPolicy::PerOperation, WritePolicy::Conservative);
    let (c, rec) = cluster(read, write, 3, 2);
    let conn = c.connect("app").map_err(|e| e.to_string())?;

    c.faults().arm(FaultPlan::new(vec![
        delay(CrashPoint::PoolJob, m(0), 0, 10),
        delay(CrashPoint::PoolJob, m(0), 1, 10),
        delay(CrashPoint::PoolJob, m(0), 2, 10),
    ]));
    let mut acked = Vec::new();
    for k in 0..4i64 {
        insert_txn(&conn, k)?;
        acked.push(k);
    }
    finish(&c, 2, &acked, read, write, &rec)
}

/// The window between logging the decision and sending the COMMITs is held
/// open for 50 ms. No reader may observe the transaction half-committed,
/// and the ack must still arrive.
fn delayed_commit_decision() -> Result<(), String> {
    let (read, write) = (ReadPolicy::PerTransaction, WritePolicy::Conservative);
    let (c, rec) = cluster(read, write, 3, 2);
    let conn = c.connect("app").map_err(|e| e.to_string())?;

    c.faults().arm(FaultPlan::new(vec![trig(
        CrashPoint::CommitDecision,
        CONTROLLER,
        0,
        FaultAction::Delay(Duration::from_millis(50)),
    )]));
    let mut acked = Vec::new();
    for k in 0..3i64 {
        insert_txn(&conn, k)?;
        acked.push(k);
    }
    finish(&c, 2, &acked, read, write, &rec)
}

// ----------------------------------------------- controller failover corpus

/// The controller leader replica is killed by the fault injector at the
/// exact moment the 2PC commit decision is proposed to the metadata group.
/// The proposal retries through a fresh election; the client's commit is
/// acked, and the decision survives on the new leader (Leader
/// Completeness — a quorum-acked decision can never be lost).
fn ctrl_leader_kill_mid_commit_decision() -> Result<(), String> {
    let (read, write) = (ReadPolicy::PinnedReplica, WritePolicy::Conservative);
    let (c, rec) = cluster_ctrl(read, write, 3, 2);
    let conn = c.connect("app").map_err(|e| e.to_string())?;
    insert_txn(&conn, 0)?;
    let elections_before = c.controllers().status().elections;

    // Hit 0 of CtrlPropose after arming = the LogDecision proposal of the
    // next commit. Crash kills the current controller *leader replica*.
    c.faults().arm(FaultPlan::new(vec![crash(
        CrashPoint::CtrlPropose,
        CONTROLLER,
        0,
    )]));
    insert_txn(&conn, 100)
        .map_err(|e| format!("commit must survive a controller-leader crash mid-decision: {e}"))?;
    c.faults().disarm();

    let st = c.controllers().status();
    expect(
        st.crashed.len() == 1,
        &format!("exactly one controller replica down, saw {:?}", st.crashed),
    )?;
    expect(
        st.elections > elections_before,
        "killing the leader mid-proposal must force a re-election",
    )?;
    finish(&c, 2, &[0, 100], read, write, &rec)
}

/// The controller leader replica dies while an Algorithm-1 copy is mid
/// flight — at the `set_copy_current` metadata proposal. The copy's
/// metadata writes retry through the re-election, the copy completes, and
/// the new replica converges.
fn ctrl_leader_kill_mid_copy() -> Result<(), String> {
    let (read, write) = (ReadPolicy::PinnedReplica, WritePolicy::Conservative);
    let (c, rec) = cluster_ctrl(read, write, 3, 2);
    let conn = c.connect("app").map_err(|e| e.to_string())?;
    let mut acked = Vec::new();
    for k in 0..4i64 {
        insert_txn(&conn, k)?;
        acked.push(k);
    }
    let elections_before = c.controllers().status().elections;

    // Copy proposals: begin_copy = hit 0, set_copy_current(t) = hit 1.
    c.faults().arm(FaultPlan::new(vec![crash(
        CrashPoint::CtrlPropose,
        CONTROLLER,
        1,
    )]));
    create_replica(
        &c,
        "app",
        m(2),
        CopyGranularity::TableLevel,
        Throttle::UNLIMITED,
    )
    .map_err(|e| format!("copy must survive a controller-leader crash mid-copy: {e}"))?;
    c.faults().disarm();

    expect(
        c.placement("app")
            .map_err(|e| e.to_string())?
            .replicas
            .contains(&m(2)),
        "the copy target must have joined the placement",
    )?;
    expect(
        c.controllers().status().elections > elections_before,
        "killing the leader mid-copy must force a re-election",
    )?;
    finish(&c, 2, &acked, read, write, &rec)
}

/// The controller leader replica is partitioned away (alive, but no
/// message crosses the cut). The majority side re-elects and writes
/// proceed; after the heal the isolated replica rejoins and catches up —
/// and the old leader's stale term can never override the new one
/// (single-leader-per-term is checked by `finish`).
fn ctrl_partition_minority_heals() -> Result<(), String> {
    let (read, write) = (ReadPolicy::PinnedReplica, WritePolicy::Conservative);
    let (c, rec) = cluster_ctrl(read, write, 3, 2);
    let conn = c.connect("app").map_err(|e| e.to_string())?;
    insert_txn(&conn, 0)?;

    let leader = c
        .controllers()
        .ensure_leader()
        .ok_or("no controller leader with all replicas up")?;
    expect(
        c.controllers().isolate(leader),
        "isolating the leader replica must succeed",
    )?;
    // Metadata writes must keep working on the majority side.
    insert_txn(&conn, 100)
        .map_err(|e| format!("writes must proceed with the old leader partitioned away: {e}"))?;
    let st = c.controllers().status();
    expect(
        st.leader.is_some_and(|l| l != leader),
        "the majority side must have elected a different leader",
    )?;
    c.controllers().heal();
    insert_txn(&conn, 101)?;
    finish(&c, 2, &[0, 100, 101], read, write, &rec)
}

/// Every controller replica is crashed and restarted in turn, with a
/// snapshot forced between rounds so restarted laggards must catch up via
/// `InstallSnapshot` rather than log replay. Metadata (and client commits)
/// survive the full roll.
fn ctrl_rolling_restart() -> Result<(), String> {
    let (read, write) = (ReadPolicy::PinnedReplica, WritePolicy::Conservative);
    let (c, rec) = cluster_ctrl(read, write, 3, 2);
    let conn = c.connect("app").map_err(|e| e.to_string())?;
    let mut acked = Vec::new();
    let mut k = 0i64;
    for node in 0..3u32 {
        expect(
            c.controllers().crash(node),
            &format!("crashing controller replica {node} must succeed"),
        )?;
        // Two commits (each a LogDecision + resolve proposal) while the
        // replica is down, so it restarts behind the group.
        for _ in 0..2 {
            insert_txn(&conn, k).map_err(|e| {
                format!("commit must survive controller replica {node} being down: {e}")
            })?;
            acked.push(k);
            k += 1;
        }
        // Fold the live replicas' logs into snapshots: the restarted
        // replica's catchup must go through InstallSnapshot.
        c.controllers().compact();
        expect(
            c.controllers().restart(node),
            &format!("restarting controller replica {node} must succeed"),
        )?;
    }
    finish(&c, 2, &acked, read, write, &rec)
}

/// Two of three controller replicas die: no quorum, so no election can
/// succeed and every metadata write — including the commit decision of a
/// client transaction — must fail with `NotLeader` rather than hang or
/// half-apply. Restarting one replica restores the quorum and service.
fn ctrl_quorum_loss_rejects_writes() -> Result<(), String> {
    let (read, write) = (ReadPolicy::PinnedReplica, WritePolicy::Conservative);
    let (c, rec) = cluster_ctrl(read, write, 3, 2);
    let conn = c.connect("app").map_err(|e| e.to_string())?;
    insert_txn(&conn, 0)?;

    expect(c.controllers().crash(1), "crash of replica 1 must succeed")?;
    expect(c.controllers().crash(2), "crash of replica 2 must succeed")?;

    // A pure metadata write fails with the leadership error.
    match c.create_database("app2", 1) {
        Err(e) if e.is_not_leader() => {}
        Err(e) => return Err(format!("expected NotLeader for metadata write, got: {e}")),
        Ok(_) => return Err("metadata write must fail without a controller quorum".into()),
    }
    // A client commit needs its decision quorum-durable first, so it must
    // abort (and roll the write back everywhere) rather than commit.
    match insert_txn(&conn, 100) {
        Err(_) => {}
        Ok(()) => return Err("a commit must not be acked without a controller quorum".into()),
    }

    expect(
        c.controllers().restart(1),
        "restart of replica 1 must succeed",
    )?;
    c.create_database("app2", 1)
        .map_err(|e| format!("metadata writes must resume once quorum is back: {e}"))?;
    c.drop_database("app2")
        .map_err(|e| format!("cleanup drop must succeed: {e}"))?;
    insert_txn(&conn, 101).map_err(|e| format!("commits must resume once quorum is back: {e}"))?;
    finish(&c, 2, &[0, 101], read, write, &rec)
}

/// §4 SLA admission under a noisy neighbor: tenant `noisy` hammers the
/// cluster far past its provisioned rate while tenant `app` runs a paced,
/// compliant load. The gate must shed the hammer proactively (typed
/// `AdmissionRejected`, not workload aborts) and the no-starvation checker
/// must find `app` holding its throughput floor with zero rejections.
fn sla_noisy_neighbor() -> Result<(), String> {
    let (read, write) = (ReadPolicy::PinnedReplica, WritePolicy::Conservative);
    let (c, rec) = cluster(read, write, 1, 1);
    c.create_database_on("noisy", &[m(0)])
        .map_err(|e| format!("create noisy: {e}"))?;
    c.ddl(
        "noisy",
        "CREATE TABLE t (k INT NOT NULL, v TEXT, PRIMARY KEY (k))",
    )
    .map_err(|e| format!("noisy ddl: {e}"))?;
    // `app` is provisioned at 20 tps (gate limit 40 with headroom); `noisy`
    // at 5 tps (limit 10). Four hammer threads offer far more than 10 tps.
    c.set_sla("app", Sla::new(20.0, 0.25, Duration::from_secs(60)))
        .map_err(|e| format!("app sla: {e}"))?;
    c.set_sla("noisy", Sla::new(5.0, 0.9, Duration::from_secs(60)))
        .map_err(|e| format!("noisy sla: {e}"))?;
    c.reset_counters();

    let stop = Arc::new(AtomicBool::new(false));
    let mut hammers = Vec::new();
    for t in 0..4u32 {
        let c2 = Arc::clone(&c);
        let stop2 = Arc::clone(&stop);
        hammers.push(std::thread::spawn(move || -> Result<(u64, u64), String> {
            let conn = c2.connect("noisy").map_err(|e| format!("connect: {e}"))?;
            let (mut ok, mut shed) = (0u64, 0u64);
            let mut k = i64::from(t) * 1_000_000;
            // ordering: Relaxed — the stop flag publishes no data; the loop
            // only needs eventual visibility of the shutdown request.
            while !stop2.load(Ordering::Relaxed) {
                k += 1;
                match conn.execute("INSERT INTO t VALUES (?, 'n')", &[Value::Int(k)]) {
                    Ok(_) => ok += 1,
                    Err(ClusterError::AdmissionRejected { .. }) => shed += 1,
                    Err(e) => return Err(format!("noisy insert {k}: {e}")),
                }
            }
            Ok((ok, shed))
        }));
    }

    // Paced compliant tenant: ~30 offered tps for about a second — above
    // the 20 tps floor, below the 40 tps provisioned limit.
    let conn = c.connect("app").map_err(|e| e.to_string())?;
    let started = std::time::Instant::now();
    let mut acked = Vec::new();
    for k in 0..30i64 {
        insert_txn(&conn, k)?;
        acked.push(k);
        std::thread::sleep(Duration::from_millis(30));
    }
    let window = started.elapsed();
    // ordering: Relaxed — see the matching load; joins below synchronize.
    stop.store(true, Ordering::Relaxed);
    let (mut noisy_ok, mut noisy_shed) = (0u64, 0u64);
    for h in hammers {
        let (ok, shed) = h.join().map_err(|_| "hammer thread panicked")??;
        noisy_ok += ok;
        noisy_shed += shed;
    }

    expect(noisy_shed > 0, "the gate never shed the hammering tenant")?;
    expect(noisy_ok > 0, "the gate starved the noisy tenant outright")?;
    let v = testkit::no_starvation_violations(&c, Some(window));
    expect(
        v.is_empty(),
        &format!(
            "no-starvation violated under a noisy neighbor: {}",
            v.join("; ")
        ),
    )?;
    finish(&c, 1, &acked, read, write, &rec)
}

/// Admission control across a §3.2 failure and repair: a replica of `app`
/// dies mid-run while tenant `noisy` hammers past its rate; writes keep
/// flowing on the survivor, an Algorithm-1 recopy restores the replication
/// factor, and the gate keeps shedding throughout — failover must neither
/// disable admission control nor let sheds masquerade as workload aborts.
fn sla_reject_under_failover() -> Result<(), String> {
    let (read, write) = (ReadPolicy::PinnedReplica, WritePolicy::Conservative);
    let (c, rec) = cluster(read, write, 3, 2);
    // Pin `noisy` to the surviving machine so killing m1 only degrades `app`.
    c.create_database_on("noisy", &[m(0)])
        .map_err(|e| format!("create noisy: {e}"))?;
    c.ddl(
        "noisy",
        "CREATE TABLE t (k INT NOT NULL, v TEXT, PRIMARY KEY (k))",
    )
    .map_err(|e| format!("noisy ddl: {e}"))?;
    // Generous app SLA: the scripted inserts stay far below the limit, and
    // the tolerant fraction absorbs copy-epoch write rejections.
    c.set_sla("app", Sla::new(20.0, 0.9, Duration::from_secs(60)))
        .map_err(|e| format!("app sla: {e}"))?;
    c.set_sla("noisy", Sla::new(5.0, 0.9, Duration::from_secs(60)))
        .map_err(|e| format!("noisy sla: {e}"))?;

    let conn = c.connect("app").map_err(|e| e.to_string())?;
    let mut acked = Vec::new();
    for k in 0..5i64 {
        insert_txn(&conn, k)?;
        acked.push(k);
    }

    let stop = Arc::new(AtomicBool::new(false));
    let shedding = Arc::new(AtomicBool::new(false));
    let hammer = {
        let c2 = Arc::clone(&c);
        let stop2 = Arc::clone(&stop);
        let shedding2 = Arc::clone(&shedding);
        std::thread::spawn(move || -> Result<(u64, u64), String> {
            let conn = c2.connect("noisy").map_err(|e| format!("connect: {e}"))?;
            let (mut ok, mut shed) = (0u64, 0u64);
            let mut k = 1_000_000i64;
            // ordering: Relaxed — the stop flag publishes no data; the loop
            // only needs eventual visibility of the shutdown request.
            while !stop2.load(Ordering::Relaxed) {
                k += 1;
                match conn.execute("INSERT INTO t VALUES (?, 'n')", &[Value::Int(k)]) {
                    Ok(_) => ok += 1,
                    Err(ClusterError::AdmissionRejected { .. }) => {
                        shed += 1;
                        // ordering: Relaxed — a progress flag, publishes no data.
                        shedding2.store(true, Ordering::Relaxed);
                    }
                    Err(e) => return Err(format!("noisy insert {k}: {e}")),
                }
            }
            Ok((ok, shed))
        })
    };

    // The failure has to land while the gate is already shedding `noisy`.
    // Wait for the first shed instead of racing the hammer's burst
    // allowance against the wall clock: the failover below takes well
    // under a millisecond.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    // ordering: Relaxed — see the matching store.
    while !shedding.load(Ordering::Relaxed) && std::time::Instant::now() < deadline {
        std::thread::yield_now();
    }

    // One of app's two replicas dies; acked writes continue on the survivor.
    c.fail_machine(m(1)).map_err(|e| format!("fail m1: {e}"))?;
    for k in 10..15i64 {
        insert_txn(&conn, k)?;
        acked.push(k);
    }
    // Algorithm-1 recopy onto the spare restores the replication factor
    // while the hammer keeps offering load.
    create_replica(
        &c,
        "app",
        m(2),
        CopyGranularity::TableLevel,
        Throttle::UNLIMITED,
    )
    .map_err(|e| format!("recopy to m2: {e}"))?;
    for k in 20..25i64 {
        insert_txn(&conn, k)?;
        acked.push(k);
    }

    // ordering: Relaxed — see the matching load; joins below synchronize.
    stop.store(true, Ordering::Relaxed);
    let (noisy_ok, noisy_shed) = hammer.join().map_err(|_| "hammer thread panicked")??;
    expect(
        noisy_shed > 0,
        "the gate never shed the hammering tenant across the failover",
    )?;
    expect(noisy_ok > 0, "the gate starved the noisy tenant outright")?;

    // The gate must still enforce after repair: a synchronous burst well
    // past the provisioned rate has to shed again.
    let nconn = c.connect("noisy").map_err(|e| e.to_string())?;
    let mut post_shed = 0u64;
    for k in 0..50i64 {
        match nconn.execute(
            "INSERT INTO t VALUES (?, 'p')",
            &[Value::Int(2_000_000 + k)],
        ) {
            Ok(_) => {}
            Err(ClusterError::AdmissionRejected { .. }) => post_shed += 1,
            Err(e) => return Err(format!("post-recovery insert {k}: {e}")),
        }
    }
    expect(
        post_shed > 0,
        "the gate stopped enforcing after the failover",
    )?;
    finish(&c, 2, &acked, read, write, &rec)
}

// ------------------------------------------------------- georep scenarios

/// Build a primary/standby colo pair wired by an in-process [`GeoLink`]:
/// the primary is the standard scenario cluster (database `app`, table
/// `t`), the standby an empty cluster the stream populates.
#[allow(clippy::type_complexity)]
fn geo_pair() -> Result<
    (
        Arc<ClusterController>,
        Arc<Recorder>,
        Arc<ClusterController>,
        SharedApplier,
        GeoLink,
        GeoMetrics,
    ),
    String,
> {
    let (p, rec) = cluster(ReadPolicy::PinnedReplica, WritePolicy::Conservative, 3, 2);
    let (s, applier, link, gm) = geo_attach(&p)?;
    Ok((p, rec, s, applier, link, gm))
}

/// Attach a fresh, empty standby colo to `p` as it is now.
fn geo_attach(
    p: &Arc<ClusterController>,
) -> Result<(Arc<ClusterController>, SharedApplier, GeoLink, GeoMetrics), String> {
    let s = ClusterController::with_machines(ClusterConfig::for_tests(), 2);
    track(&s);
    let gm = GeoMetrics::new(Arc::new(MetricsRegistry::new()));
    let shipper = Shipper::new(Arc::clone(p), "app", gm.clone()).map_err(|e| e.to_string())?;
    let applier = Applier::shared(Arc::clone(&s), "app", 2, gm.clone());
    let link = GeoLink::new(shipper, Arc::clone(&applier), gm.clone());
    Ok((s, applier, link, gm))
}

fn geo_count(c: &Arc<ClusterController>, db: &str) -> Result<i64, String> {
    let conn = c.connect(db).map_err(|e| e.to_string())?;
    let out = conn
        .execute("SELECT COUNT(*) FROM t", &[])
        .map_err(|e| e.to_string())?;
    match out.rows[0][0] {
        Value::Int(n) => Ok(n),
        ref v => Err(format!("unexpected COUNT result {v:?}")),
    }
}

/// The cross-colo stream is severed mid-ship (a WAN partition) while the
/// primary keeps committing, with an injected `GeoShipBatch` delay
/// stretching the re-ship window. After healing, the stream resumes from
/// the standby's cumulative ack and the standby converges with no loss and
/// no duplicates.
fn geo_colo_partition() -> Result<(), String> {
    let (read, write) = (ReadPolicy::PinnedReplica, WritePolicy::Conservative);
    let (p, rec, s, _applier, mut link, _gm) = geo_pair()?;
    let conn = p.connect("app").map_err(|e| e.to_string())?;
    let mut acked = Vec::new();
    for k in 0..8i64 {
        insert_txn(&conn, k)?;
        acked.push(k);
    }
    link.sync().map_err(|e| e.to_string())?;
    expect(link.lag() == 0, "drained stream must show zero lag")?;

    // Partition. The primary keeps committing into the outage.
    link.sever();
    for k in 8..16i64 {
        insert_txn(&conn, k)?;
        acked.push(k);
    }
    // A delay on the re-ship batch stretches the catch-up window without
    // changing the outcome.
    p.faults().arm(FaultPlan::new(vec![delay(
        CrashPoint::GeoShipBatch,
        GEO,
        0,
        5,
    )]));
    link.sync().map_err(|e| e.to_string())?;
    expect(
        geo_count(&s, "app")? == 16,
        "standby must converge to all 16 rows after the partition heals",
    )?;
    let geo = invariants::check_geo(&s, None, "app", "t", &acked);
    expect(geo.is_empty(), &format!("geo invariant: {geo:?}"))?;
    finish(&p, 2, &acked, read, write, &rec)
}

/// The primary colo is lost while the standby lags behind it. Promotion
/// must preserve every commit the standby acked before the disaster (the
/// lag bound is exactly the unacked tail) and hand the new colo write
/// authority.
fn geo_lagging_standby_promotion() -> Result<(), String> {
    let (p, _rec, s, applier, mut link, gm) = geo_pair()?;
    let conn = p.connect("app").map_err(|e| e.to_string())?;
    let mut standby_acked = Vec::new();
    for k in 0..6i64 {
        insert_txn(&conn, k)?;
        standby_acked.push(k);
    }
    link.sync().map_err(|e| e.to_string())?;

    // Commits the stream never ships: the standby now lags.
    for k in 6..12i64 {
        insert_txn(&conn, k)?;
    }
    expect(link.lag() > 0, "unshipped commits must show up as lag")?;

    // Disaster: every machine in the primary colo goes dark.
    for id in p.machine_ids() {
        let _ = p.fail_machine(id);
    }
    expect(
        link.sync().is_err(),
        "the stream must sever when the source colo dies",
    )?;

    let out = promote(&s, None, &[Arc::clone(&applier)], &gm).map_err(|e| e.to_string())?;
    expect(out.epoch == 1, "first promotion must mint epoch 1")?;
    let geo = invariants::check_geo(&s, None, "app", "t", &standby_acked);
    expect(geo.is_empty(), &format!("geo invariant: {geo:?}"))?;
    expect(
        geo_count(&s, "app")? == 6,
        "exactly the acked prefix must survive colo loss",
    )?;

    // The promoted colo carries writes forward.
    let sconn = s.connect("app").map_err(|e| e.to_string())?;
    sconn
        .execute(
            "INSERT INTO t VALUES (?, ?)",
            &[Value::Int(100), Value::Text("post".into())],
        )
        .map_err(|e| format!("promoted standby must accept writes: {e}"))?;
    Ok(())
}

/// Planned failover: promotion fences the old primary (every write shape
/// refused, reads still served) and kills the stale stream with
/// `GeoFenced`. The teeth half re-runs the failover with fencing skipped
/// and proves [`invariants::check_geo`] reports the split brain.
fn geo_split_brain_fenced() -> Result<(), String> {
    let (p, _rec, s, applier, mut link, gm) = geo_pair()?;
    let conn = p.connect("app").map_err(|e| e.to_string())?;
    let mut standby_acked = Vec::new();
    for k in 0..10i64 {
        insert_txn(&conn, k)?;
        standby_acked.push(k);
    }
    link.sync().map_err(|e| e.to_string())?;

    let out = promote(&s, Some(&p), &[Arc::clone(&applier)], &gm).map_err(|e| e.to_string())?;
    expect(
        out.fenced_old_primary,
        "reachable old primary must be fenced",
    )?;
    let geo = invariants::check_geo(&s, Some(&p), "app", "t", &standby_acked);
    expect(geo.is_empty(), &format!("geo invariant: {geo:?}"))?;
    expect(
        geo_count(&p, "app")? == 10,
        "reads on the fenced primary must stay up",
    )?;
    match conn.execute(
        "INSERT INTO t VALUES (?, ?)",
        &[Value::Int(99), Value::Text("x".into())],
    ) {
        Err(e) if e.is_fenced() => {}
        other => return Err(format!("fenced primary must refuse DML, got {other:?}")),
    }
    link.sever();
    match link.sync() {
        Err(GeoError::Fenced { .. }) => {}
        other => return Err(format!("stale stream must be fenced, got {other:?}")),
    }

    // Teeth: the same failover with the old primary unreachable — so
    // nothing fences it — must trip the checker: it still takes writes, a
    // split brain.
    let (p2, _rec2, s2, applier2, mut link2, gm2) = geo_pair()?;
    let conn2 = p2.connect("app").map_err(|e| e.to_string())?;
    let mut acked2 = Vec::new();
    for k in 0..4i64 {
        insert_txn(&conn2, k)?;
        acked2.push(k);
    }
    link2.sync().map_err(|e| e.to_string())?;
    promote(&s2, None, &[Arc::clone(&applier2)], &gm2).map_err(|e| e.to_string())?;
    let teeth = invariants::check_geo(&s2, Some(&p2), "app", "t", &acked2);
    expect(
        teeth.iter().any(|v| v.contains("split-brain"))
            && teeth.iter().any(|v| v.contains("not fenced")),
        &format!("check_geo must fire on an unfenced promotion, got {teeth:?}"),
    )
}

/// On a long-lived platform every replica is eventually a copy (§3.2), so
/// a standby attached late is seeded from replicas that Algorithm 1
/// restored. Both original replicas are replaced in turn, then a fresh
/// standby is attached: it must hold every row — the stream replays the
/// source replica's log, so a copy written beneath that log would ship as
/// an empty table with `lag() == 0`. A dropped first batch
/// (`GeoApplyBatch`) is re-shipped, and the planned failover that follows
/// (held open at `GeoPromote`) serves every row from the promoted colo.
fn geo_standby_attached_after_recovery() -> Result<(), String> {
    let (read, write) = (ReadPolicy::PinnedReplica, WritePolicy::Conservative);
    let (p, rec) = cluster(read, write, 3, 2);
    let conn = p.connect("app").map_err(|e| e.to_string())?;
    let acked: Vec<i64> = (0..40).collect();
    for &k in &acked {
        insert_txn(&conn, k)?;
    }
    for original in [m(0), m(1)] {
        p.fail_machine(original).map_err(|e| e.to_string())?;
        let report = recover_machine(&p, original, RecoveryConfig::default());
        expect(
            report.recovered.len() == 1 && report.failed.is_empty(),
            &format!("replacing {original}: {report:?}"),
        )?;
        p.restart_machine(original).map_err(|e| e.to_string())?;
    }

    let (s, applier, mut link, gm) = geo_attach(&p)?;
    s.faults().arm(FaultPlan::new(vec![
        crash(CrashPoint::GeoApplyBatch, GEO, 0),
        delay(CrashPoint::GeoPromote, GEO, 0, 5),
    ]));
    expect(
        link.sync().is_err(),
        "the batch dropped at geo_apply_batch must sever the stream",
    )?;
    link.sync().map_err(|e| e.to_string())?;
    expect(link.lag() == 0, "drained stream must show zero lag")?;
    expect(
        geo_count(&s, "app")? == 40,
        "a standby attached after both replicas were re-created must hold all 40 rows",
    )?;
    let state = |c: &Arc<ClusterController>| -> Result<String, String> {
        let id = c.alive_replicas("app").map_err(|e| e.to_string())?[0];
        testkit::logical_state(&c.machine(id).map_err(|e| e.to_string())?.engine, "app")
    };
    expect(
        state(&s)? == state(&p)?,
        "lag() == 0 must mean the standby holds what the primary holds",
    )?;
    finish(&p, 2, &acked, read, write, &rec)?;

    promote(&s, Some(&p), &[applier], &gm).map_err(|e| e.to_string())?;
    let geo = invariants::check_geo(&s, Some(&p), "app", "t", &acked);
    expect(geo.is_empty(), &format!("geo invariant: {geo:?}"))
}
