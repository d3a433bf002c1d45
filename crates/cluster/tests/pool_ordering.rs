//! Regression tests for per-machine statement ordering under the persistent
//! worker pool.
//!
//! The seed gave every (transaction, machine) pair its own OS thread, which
//! made per-machine FIFO ordering trivial. With sessions multiplexed over a
//! shared pool the same guarantee must come from the session mailbox
//! discipline, under every pool size — including a pool of one thread
//! (maximum multiplexing pressure: every session on a machine shares one
//! executor) — and under both write-acknowledgement policies, where the
//! aggressive mode deliberately leaves background statements still running
//! when the client issues the next one.
//!
//! On a pool that can grow (the default) a caller that waits for every
//! reply anyway runs idle lanes on its own thread; the `*_growable` cells
//! and the last two tests hold the same ordering guarantee — and the
//! accounting — on that path. Fixed pools never lend a turn, so the
//! `pool1` / `pool4` cells keep exercising the pure mailbox path.

use std::sync::Arc;

use std::time::Duration;

use tenantdb_cluster::metrics::{POOL_CALLER_TURNS, POOL_THREADS_SPAWNED};
use tenantdb_cluster::{
    ClusterConfig, ClusterController, CrashPoint, FaultAction, FaultPlan, PoolConfig, ReadPolicy,
    Trigger, WritePolicy,
};
use tenantdb_storage::{CostModel, EngineConfig, Value};

fn cluster(write: WritePolicy, pool: PoolConfig) -> Arc<ClusterController> {
    let cfg = ClusterConfig {
        read_policy: ReadPolicy::PinnedReplica,
        write_policy: write,
        engine: EngineConfig {
            buffer_pages: 2048,
            cost: CostModel::free(),
            lock_timeout: std::time::Duration::from_millis(500),
        },
        pool,
        seed: 11,
        ..Default::default()
    };
    let c = ClusterController::with_machines(cfg, 2);
    c.create_database("app", 2).unwrap();
    c.ddl(
        "app",
        "CREATE TABLE t (k INT NOT NULL, v TEXT, PRIMARY KEY (k))",
    )
    .unwrap();
    c
}

fn replica_rows(c: &ClusterController, id: tenantdb_cluster::MachineId) -> Vec<Vec<Value>> {
    let m = c.machine(id).unwrap();
    let t = m.engine.begin().unwrap();
    let mut rows: Vec<Vec<Value>> = m
        .engine
        .scan(t, "app", "t")
        .unwrap()
        .into_iter()
        .map(|(_, v)| v)
        .collect();
    m.engine.commit(t).unwrap();
    rows.sort_by_key(|row| match row[0] {
        Value::Int(i) => i,
        _ => panic!("non-int key"),
    });
    rows
}

fn assert_replicas_converged(c: &ClusterController) {
    let replicas = c.alive_replicas("app").unwrap();
    let reference = replica_rows(c, replicas[0]);
    for &id in &replicas[1..] {
        assert_eq!(replica_rows(c, id), reference, "replica {id} diverged");
    }
}

/// Dependent updates within one transaction must apply in issue order on
/// every replica, even when the pool has a single thread and the aggressive
/// policy lets the client run ahead of the slower replica.
fn last_write_wins_on_all_replicas(write: WritePolicy, pool: PoolConfig) {
    let c = cluster(write, pool);
    let conn = c.connect("app").unwrap();
    conn.execute("INSERT INTO t VALUES (1, 'v0')", &[]).unwrap();
    conn.begin().unwrap();
    for i in 1..=60 {
        conn.execute(
            "UPDATE t SET v = ? WHERE k = 1",
            &[Value::Text(format!("v{i}"))],
        )
        .unwrap();
    }
    conn.commit().unwrap();
    let r = conn.execute("SELECT v FROM t WHERE k = 1", &[]).unwrap();
    assert_eq!(r.rows[0][0], Value::Text("v60".into()));
    assert_replicas_converged(&c);
}

/// Many concurrent transactions on disjoint keys, all multiplexed over the
/// same pool: each transaction's own statement order must hold, and the
/// replicas must converge after all commit.
fn concurrent_lanes_stay_ordered(write: WritePolicy, pool: PoolConfig) {
    let c = cluster(write, pool);
    let setup = c.connect("app").unwrap();
    for k in 0..6i64 {
        setup
            .execute("INSERT INTO t VALUES (?, 'init')", &[Value::Int(k)])
            .unwrap();
    }
    let mut handles = Vec::new();
    for k in 0..6i64 {
        let c = Arc::clone(&c);
        handles.push(std::thread::spawn(move || {
            let conn = c.connect("app").unwrap();
            for round in 0..8 {
                conn.begin().unwrap();
                for step in 0..4 {
                    conn.execute(
                        "UPDATE t SET v = ? WHERE k = ?",
                        &[Value::Text(format!("r{round}s{step}")), Value::Int(k)],
                    )
                    .unwrap();
                }
                conn.commit().unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    // Every key ends on its writer's final statement.
    let conn = c.connect("app").unwrap();
    for k in 0..6i64 {
        let r = conn
            .execute("SELECT v FROM t WHERE k = ?", &[Value::Int(k)])
            .unwrap();
        assert_eq!(r.rows[0][0], Value::Text("r7s3".into()), "key {k}");
    }
    assert_replicas_converged(&c);
}

macro_rules! ordering_matrix {
    ($($name:ident: $write:expr, $pool:expr;)*) => {$(
        mod $name {
            use super::*;
            #[test]
            fn last_write_wins() {
                last_write_wins_on_all_replicas($write, $pool);
            }
            #[test]
            fn concurrent_lanes() {
                concurrent_lanes_stay_ordered($write, $pool);
            }
        }
    )*};
}

ordering_matrix! {
    conservative_pool1: WritePolicy::Conservative, PoolConfig::fixed(1);
    conservative_pool4: WritePolicy::Conservative, PoolConfig::fixed(4);
    aggressive_pool1: WritePolicy::Aggressive, PoolConfig::fixed(1);
    aggressive_pool4: WritePolicy::Aggressive, PoolConfig::fixed(4);
    conservative_growable: WritePolicy::Conservative, PoolConfig::default();
    aggressive_growable: WritePolicy::Aggressive, PoolConfig::default();
}

/// A transaction's statements interleaved with its own 2PC must stay ordered:
/// under aggressive acks the PREPARE queues behind the still-running
/// background write in the same session lane, so a commit can never overtake
/// a write it depends on.
#[test]
fn aggressive_prepare_queues_behind_background_writes() {
    let c = cluster(WritePolicy::Aggressive, PoolConfig::fixed(1));
    let conn = c.connect("app").unwrap();
    for i in 0..30i64 {
        conn.begin().unwrap();
        conn.execute("INSERT INTO t VALUES (?, 'w')", &[Value::Int(i)])
            .unwrap();
        conn.commit().unwrap();
    }
    // Every committed row is on every replica (the lagging replica's write
    // ran before its PREPARE acknowledged).
    let replicas = c.alive_replicas("app").unwrap();
    for &id in &replicas {
        assert_eq!(
            replica_rows(&c, id).len(),
            30,
            "replica {id} missing committed writes"
        );
    }
}

fn pool_counter(c: &ClusterController, name: &'static str) -> u64 {
    c.metrics()
        .registry()
        .counter_sum(name, &[("pool", "machine")])
}

/// A caller only takes the turn of an *idle* lane. Under aggressive acks
/// the write is still running on the lagging replica when the client's
/// next statement — a read routed to that very replica — arrives: the read
/// finds the lane busy, queues behind the write, and therefore sees it.
#[test]
fn read_queues_behind_background_write_on_a_busy_lane() {
    let c = cluster(WritePolicy::Aggressive, PoolConfig::default());
    let conn = c.connect("app").unwrap();
    conn.execute("INSERT INTO t VALUES (1, 'old')", &[])
        .unwrap();
    // Reads are pinned to this replica; make it the one that lags.
    let lagging = c.placement("app").unwrap().pinned;
    c.faults().arm(FaultPlan::new(vec![Trigger {
        point: CrashPoint::ReplicaWriteApply,
        machine: Some(lagging),
        after_hits: 0,
        action: FaultAction::Delay(Duration::from_millis(150)),
    }]));

    conn.begin().unwrap();
    conn.execute("UPDATE t SET v = 'new' WHERE k = 1", &[])
        .unwrap(); // acked by the other replica
    let turns = pool_counter(&c, POOL_CALLER_TURNS);
    let r = conn.execute("SELECT v FROM t WHERE k = 1", &[]).unwrap();
    assert_eq!(
        r.rows[0][0],
        Value::Text("new".into()),
        "the read overtook the write it depends on"
    );
    assert_eq!(
        pool_counter(&c, POOL_CALLER_TURNS),
        turns,
        "a busy lane lends no turn: the read went through the mailbox"
    );
    conn.commit().unwrap();
    assert_eq!(c.faults().fired().len(), 1, "the delay did fire");
    assert_replicas_converged(&c);
}

/// The accounting of the caller-run path: a conservative read-write
/// transaction on the default pool runs its statements, PREPARE and COMMIT
/// on the calling thread — turns are counted, no pool thread is spawned for
/// them — while a pool that cannot grow is a concurrency bound and lends
/// none.
#[test]
fn caller_turns_are_counted_and_fixed_pools_lend_none() {
    let txn = |c: &Arc<ClusterController>| {
        let conn = c.connect("app").unwrap();
        conn.begin().unwrap();
        conn.execute("INSERT INTO t VALUES (1, 'x')", &[]).unwrap();
        conn.execute("SELECT v FROM t WHERE k = 1", &[]).unwrap();
        conn.commit().unwrap();
    };

    let c = cluster(WritePolicy::Conservative, PoolConfig::default());
    let spawned = pool_counter(&c, POOL_THREADS_SPAWNED);
    let turns = pool_counter(&c, POOL_CALLER_TURNS);
    txn(&c);
    // Per replica: INSERT, PREPARE, COMMIT; plus the one read.
    assert_eq!(pool_counter(&c, POOL_CALLER_TURNS) - turns, 2 * 3 + 1);
    assert_eq!(
        pool_counter(&c, POOL_THREADS_SPAWNED),
        spawned,
        "nothing reached the pool, so it had no reason to grow"
    );

    let c = cluster(WritePolicy::Conservative, PoolConfig::fixed(2));
    txn(&c);
    assert_eq!(pool_counter(&c, POOL_CALLER_TURNS), 0);
}
