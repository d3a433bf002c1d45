//! Cluster-level replication behaviour: write-all visibility, aggressive
//! acknowledgement semantics, failure masking, and 2PC edge cases.

use std::sync::Arc;

use tenantdb_cluster::testkit::{
    assert_committed_visible, assert_replicas_converged, config as tk_config,
};
use tenantdb_cluster::{
    ClusterConfig, ClusterController, ClusterError, PoolConfig, ReadPolicy, WritePolicy,
};
use tenantdb_storage::Value;

fn config(read: ReadPolicy, write: WritePolicy) -> ClusterConfig {
    tk_config(read, write, 3)
}

fn cluster(read: ReadPolicy, write: WritePolicy, machines: usize) -> Arc<ClusterController> {
    tenantdb_cluster::testkit::cluster(read, write, machines, 2)
}

#[test]
fn writes_reach_every_replica() {
    let c = cluster(ReadPolicy::PinnedReplica, WritePolicy::Conservative, 2);
    let conn = c.connect("app").unwrap();
    conn.execute("INSERT INTO t VALUES (1, 'x')", &[]).unwrap();
    assert_committed_visible(&c, "app", "t", &[1]);
    assert_replicas_converged(&c, "app");
}

#[test]
fn aggressive_background_failure_blocks_commit() {
    // A write succeeds on one replica; make it fail on the other by planting
    // a conflicting pk there out-of-band. The aggressive controller returns
    // success for the statement but must refuse the commit.
    let c = cluster(ReadPolicy::PinnedReplica, WritePolicy::Aggressive, 2);
    let replicas = c.alive_replicas("app").unwrap();
    // Plant k=7 directly on the second replica only (bypassing the cluster).
    let saboteur = c.machine(replicas[1]).unwrap();
    saboteur
        .engine
        .with_txn(|t| {
            saboteur
                .engine
                .insert(
                    t,
                    "app",
                    "t",
                    vec![Value::Int(7), Value::Text("planted".into())],
                )
                .map(|_| ())
        })
        .unwrap();

    let conn = c.connect("app").unwrap();
    conn.begin().unwrap();
    // Aggressive ack: the fast replica (pinned first) answers OK.
    let r = conn.execute("INSERT INTO t VALUES (7, 'mine')", &[]);
    // Either the statement already surfaced the conflict (the slow replica
    // answered first) or commit must fail on the poisoned ledger.
    match r {
        Ok(_) => {
            let err = conn.commit().unwrap_err();
            assert!(
                matches!(err, ClusterError::TxnAborted(_)),
                "commit must refuse a half-applied write, got {err:?}"
            );
        }
        Err(_) => {
            // Statement error: the txn is poisoned; release it.
            conn.rollback().unwrap();
        }
    }
    // Consistency: k=7 is 'planted' on replica 1 and absent from replica 0.
    let m0 = c.machine(replicas[0]).unwrap();
    let t = m0.engine.begin().unwrap();
    let rows = m0
        .engine
        .index_lookup(t, "app", "t", "pk", &[Value::Int(7)], false)
        .unwrap();
    m0.engine.commit(t).unwrap();
    assert!(
        rows.is_empty(),
        "aborted write must not survive on any replica"
    );
}

#[test]
fn replica_lock_timeout_at_commit_is_a_timeout() {
    // An out-of-band transaction holds k=1's X lock on the second replica.
    // The aggressive controller acks the UPDATE from the first; the second
    // times out in the background, and commit must report that lock
    // timeout as one, to the client and to the tenant's counter alike.
    let c = cluster(ReadPolicy::PinnedReplica, WritePolicy::Aggressive, 2);
    let conn = c.connect("app").unwrap();
    conn.execute("INSERT INTO t VALUES (1, 'x')", &[]).unwrap();
    let replicas = c.alive_replicas("app").unwrap();
    let holder = c.machine(replicas[1]).unwrap();
    let blocker = holder.engine.begin().unwrap();
    holder
        .engine
        .index_lookup(blocker, "app", "t", "pk", &[Value::Int(1)], true)
        .unwrap();

    let deadlocks = c.counters("app").deadlocks;
    conn.begin().unwrap();
    conn.execute("UPDATE t SET v = 'mine' WHERE k = 1", &[])
        .unwrap();
    let err = conn.commit().unwrap_err();
    holder.engine.abort(blocker).unwrap();
    assert!(matches!(err, ClusterError::TxnAborted(_)), "{err:?}");
    assert!(err.is_timeout(), "{err}");
    assert_eq!(c.counters("app").deadlocks, deadlocks + 1);
}

#[test]
fn reads_masked_when_pinned_replica_dies_between_txns() {
    let c = cluster(ReadPolicy::PinnedReplica, WritePolicy::Conservative, 3);
    let conn = c.connect("app").unwrap();
    conn.execute("INSERT INTO t VALUES (1, 'x')", &[]).unwrap();
    let pinned = c.placement("app").unwrap().pinned;
    c.fail_machine(pinned).unwrap();
    // A fresh transaction reads from the surviving replica transparently.
    let r = conn.execute("SELECT v FROM t WHERE k = 1", &[]).unwrap();
    assert_eq!(r.rows[0][0], Value::from("x"));
}

#[test]
fn write_continues_on_survivors_when_replica_dies_mid_txn() {
    let c = cluster(ReadPolicy::PinnedReplica, WritePolicy::Conservative, 3);
    let conn = c.connect("app").unwrap();
    conn.begin().unwrap();
    conn.execute("INSERT INTO t VALUES (1, 'pre')", &[])
        .unwrap();
    // One replica dies while the txn is open.
    let victim = c.alive_replicas("app").unwrap()[1];
    c.fail_machine(victim).unwrap();
    // Further writes land on the survivor; commit succeeds 1-replica.
    conn.execute("INSERT INTO t VALUES (2, 'post')", &[])
        .unwrap();
    conn.commit().unwrap();
    let survivors = c.alive_replicas("app").unwrap();
    assert_eq!(survivors.len(), 1);
    assert_committed_visible(&c, "app", "t", &[1, 2]);
}

#[test]
fn all_replicas_dead_is_a_proactive_rejection() {
    let c = cluster(ReadPolicy::PinnedReplica, WritePolicy::Conservative, 2);
    for id in c.alive_replicas("app").unwrap() {
        c.fail_machine(id).unwrap();
    }
    let conn = c.connect("app").unwrap();
    let err = conn.execute("SELECT COUNT(*) FROM t", &[]).unwrap_err();
    assert!(err.is_proactive_rejection());
    assert!(c.counters("app").rejected >= 1);
}

#[test]
fn statement_error_poisons_transaction_until_rollback() {
    // PostgreSQL-style strictness: after a statement error inside an explicit
    // transaction, commit is refused.
    let c = cluster(ReadPolicy::PinnedReplica, WritePolicy::Conservative, 2);
    let conn = c.connect("app").unwrap();
    conn.execute("INSERT INTO t VALUES (1, 'x')", &[]).unwrap();
    conn.begin().unwrap();
    conn.execute("INSERT INTO t VALUES (2, 'y')", &[]).unwrap();
    // Duplicate key: statement fails.
    conn.execute("INSERT INTO t VALUES (1, 'dup')", &[])
        .unwrap_err();
    let err = conn.commit().unwrap_err();
    assert!(matches!(err, ClusterError::TxnAborted(_)));
    // The whole transaction rolled back, including the valid insert.
    let r = conn.execute("SELECT COUNT(*) FROM t", &[]).unwrap();
    assert_eq!(r.rows[0][0], Value::Int(1));
}

#[test]
fn deadlocks_are_counted_but_not_as_rejections() {
    let c = cluster(ReadPolicy::PinnedReplica, WritePolicy::Conservative, 2);
    let conn = c.connect("app").unwrap();
    conn.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b')", &[])
        .unwrap();

    // Force a deadlock: two txns lock rows in opposite order.
    let c2 = Arc::clone(&c);
    let barrier = Arc::new(std::sync::Barrier::new(2));
    let b2 = Arc::clone(&barrier);
    let h = std::thread::spawn(move || {
        let conn = c2.connect("app").unwrap();
        let _ = (|| -> tenantdb_cluster::Result<()> {
            conn.begin()?;
            conn.execute("UPDATE t SET v = 'x' WHERE k = 1", &[])?;
            b2.wait();
            conn.execute("UPDATE t SET v = 'x' WHERE k = 2", &[])?;
            conn.commit()
        })();
    });
    let _ = (|| -> tenantdb_cluster::Result<()> {
        conn.begin()?;
        conn.execute("UPDATE t SET v = 'y' WHERE k = 2", &[])?;
        barrier.wait();
        conn.execute("UPDATE t SET v = 'y' WHERE k = 1", &[])?;
        conn.commit()
    })();
    h.join().unwrap();

    let counters = c.counters("app");
    assert!(counters.deadlocks >= 1, "one victim expected: {counters:?}");
    assert_eq!(counters.rejected, 0, "deadlocks are not SLA rejections");
}

#[test]
fn read_only_txn_uses_one_phase_commit() {
    let c = cluster(ReadPolicy::PerOperation, WritePolicy::Conservative, 2);
    let conn = c.connect("app").unwrap();
    conn.execute("INSERT INTO t VALUES (1, 'x')", &[]).unwrap();
    let wal_before: Vec<usize> = c
        .alive_replicas("app")
        .unwrap()
        .iter()
        .map(|&id| c.machine(id).unwrap().engine.wal().len())
        .collect();
    conn.begin().unwrap();
    conn.execute("SELECT * FROM t", &[]).unwrap();
    conn.execute("SELECT COUNT(*) FROM t", &[]).unwrap();
    conn.commit().unwrap();
    // No PREPARE record was written anywhere (1-phase commit for read-only).
    for (i, &id) in c.alive_replicas("app").unwrap().iter().enumerate() {
        let wal = c.machine(id).unwrap().engine.wal().snapshot();
        let new = &wal[wal_before[i]..];
        assert!(
            !new.iter()
                .any(|r| matches!(r.entry, tenantdb_storage::wal::WalEntry::Prepare)),
            "read-only txn must not run 2PC"
        );
    }
}

#[test]
fn connection_drop_releases_locks() {
    let c = cluster(ReadPolicy::PinnedReplica, WritePolicy::Conservative, 2);
    {
        let conn = c.connect("app").unwrap();
        conn.begin().unwrap();
        conn.execute("INSERT INTO t VALUES (5, 'locked')", &[])
            .unwrap();
        // Dropped with the transaction open.
    }
    // A new connection can immediately write the same key.
    let conn = c.connect("app").unwrap();
    conn.execute("INSERT INTO t VALUES (5, 'free')", &[])
        .unwrap();
    let r = conn.execute("SELECT v FROM t WHERE k = 5", &[]).unwrap();
    assert_eq!(r.rows[0][0], Value::from("free"));
}

#[test]
fn per_txn_read_pin_is_stable_within_a_transaction() {
    let c = cluster(ReadPolicy::PerTransaction, WritePolicy::Conservative, 2);
    let conn = c.connect("app").unwrap();
    conn.execute("INSERT INTO t VALUES (1, 'x')", &[]).unwrap();
    // Run many reads in one txn; with recording we could check the site, but
    // the observable contract is simpler: all succeed and commit cleanly.
    conn.begin().unwrap();
    for _ in 0..10 {
        conn.execute("SELECT v FROM t WHERE k = 1", &[]).unwrap();
    }
    conn.commit().unwrap();
    // Sanity via history: all reads of one txn land on a single site.
    let rec = Arc::new(tenantdb_history::Recorder::new());
    c.set_recorder(Some(Arc::clone(&rec)));
    conn.begin().unwrap();
    for _ in 0..5 {
        conn.execute("SELECT v FROM t WHERE k = 1", &[]).unwrap();
    }
    conn.commit().unwrap();
    let sites: std::collections::HashSet<_> = rec.ops().iter().map(|o| o.site).collect();
    assert_eq!(
        sites.len(),
        1,
        "option 2 must pin all of a txn's reads to one replica"
    );
}

/// The replication contract is pool-size independent: a representative
/// write/read/fail/commit workload behaves identically whether each machine
/// runs one executor thread or four, under both acknowledgement policies.
#[test]
fn replication_holds_across_write_policies_and_pool_sizes() {
    for write in [WritePolicy::Conservative, WritePolicy::Aggressive] {
        for pool in [PoolConfig::fixed(1), PoolConfig::fixed(4)] {
            let cfg = ClusterConfig {
                pool,
                ..config(ReadPolicy::PinnedReplica, write)
            };
            let c = ClusterController::with_machines(cfg, 3);
            c.create_database("app", 2).unwrap();
            c.ddl(
                "app",
                "CREATE TABLE t (k INT NOT NULL, v TEXT, PRIMARY KEY (k))",
            )
            .unwrap();
            let conn = c.connect("app").unwrap();

            // Multi-statement txn commits everywhere.
            conn.begin().unwrap();
            for k in 0..10i64 {
                conn.execute("INSERT INTO t VALUES (?, 'a')", &[Value::Int(k)])
                    .unwrap();
            }
            conn.commit().unwrap();

            // Statement error poisons the txn (strict mode) and rolls back.
            conn.begin().unwrap();
            conn.execute("INSERT INTO t VALUES (100, 'y')", &[])
                .unwrap();
            conn.execute("INSERT INTO t VALUES (0, 'dup')", &[])
                .unwrap_err();
            conn.commit().unwrap_err();

            // A replica failure mid-txn is masked by the survivor.
            conn.begin().unwrap();
            conn.execute("UPDATE t SET v = 'b' WHERE k = 1", &[])
                .unwrap();
            let victim = c.alive_replicas("app").unwrap()[1];
            c.fail_machine(victim).unwrap();
            conn.execute("UPDATE t SET v = 'c' WHERE k = 2", &[])
                .unwrap();
            conn.commit().unwrap();

            let committed: Vec<i64> = (0..10).collect();
            assert_committed_visible(&c, "app", "t", &committed);
            assert_replicas_converged(&c, "app");
        }
    }
}

#[test]
fn ddl_rejected_during_copy() {
    let c = cluster(ReadPolicy::PinnedReplica, WritePolicy::Conservative, 3);
    let spare = c
        .machine_ids()
        .into_iter()
        .find(|m| !c.placement("app").unwrap().replicas.contains(m))
        .unwrap();
    c.machine(spare)
        .unwrap()
        .engine
        .create_database("app")
        .unwrap();
    c.begin_copy("app", Some(spare), false).unwrap();
    let err = c
        .ddl("app", "CREATE TABLE t2 (id INT NOT NULL, PRIMARY KEY (id))")
        .unwrap_err();
    assert!(matches!(err, ClusterError::WriteRejected { .. }));
    c.abandon_copy("app");
    c.ddl("app", "CREATE TABLE t2 (id INT NOT NULL, PRIMARY KEY (id))")
        .unwrap();
}

/// A statement in flight on a replica when that machine dies is part of the
/// machine failure, whatever it trips over on the way out: here a writer
/// queued behind another transaction's row lock on the replica that
/// crashes. Its wait can only end in a lock timeout — the crash discarded
/// the waiter — and that timeout must be masked like any other symptom of
/// a dead replica, not abort the transaction on the survivor.
#[test]
fn statement_in_flight_on_a_dying_replica_is_masked() {
    let c = cluster(ReadPolicy::PinnedReplica, WritePolicy::Conservative, 3);
    let holder = c.connect("app").unwrap();
    holder
        .execute("INSERT INTO t VALUES (1, 'a')", &[])
        .unwrap();
    holder.begin().unwrap();
    holder
        .execute("UPDATE t SET v = 'holder' WHERE k = 1", &[])
        .unwrap();

    let waiter = {
        let c = Arc::clone(&c);
        std::thread::spawn(move || {
            let conn = c.connect("app").unwrap();
            conn.begin().unwrap();
            conn.execute("UPDATE t SET v = 'waiter' WHERE k = 1", &[])?;
            conn.commit()
        })
    };
    // Let the waiter block, then kill the replica it is blocked on: the
    // first alive one (a conservative write walks the replicas in
    // placement order; the holder has its lock on both).
    std::thread::sleep(std::time::Duration::from_millis(100));
    let victim = c.alive_replicas("app").unwrap()[0];
    c.fail_machine(victim).unwrap();
    holder.commit().unwrap();

    waiter
        .join()
        .unwrap()
        .expect("the dead replica's lock timeout must be masked");
    let r = holder.execute("SELECT v FROM t WHERE k = 1", &[]).unwrap();
    assert_eq!(r.rows[0][0], Value::Text("waiter".into()));
    assert_eq!(c.alive_replicas("app").unwrap().len(), 1);
}

/// Index order is a function of the data, not of the row ids an engine
/// happened to assign: a replica rebuilt by an Algorithm-1 table copy and
/// one rebuilt by crash replay answer an ordered read — whole, and stopped
/// at LIMIT — like the replica that took the writes as they came.
#[test]
fn index_order_survives_table_copy_and_crash_replay() {
    let c = cluster(ReadPolicy::PinnedReplica, WritePolicy::Conservative, 3);
    c.ddl(
        "app",
        "CREATE TABLE orders (o_id INT NOT NULL, o_c_id INT NOT NULL, PRIMARY KEY (o_id))",
    )
    .unwrap();
    c.ddl("app", "CREATE INDEX by_customer ON orders (o_c_id)")
        .unwrap();
    let conn = c.connect("app").unwrap();
    // Row ids ascend while order ids do not, and one order id moves.
    for o_id in [50, 10, 40, 20, 30] {
        conn.execute("INSERT INTO orders VALUES (?, 7)", &[Value::Int(o_id)])
            .unwrap();
    }
    conn.execute("INSERT INTO orders VALUES (35, 8)", &[])
        .unwrap();
    conn.execute("UPDATE orders SET o_id = 60 WHERE o_id = 10", &[])
        .unwrap();
    conn.execute("DELETE FROM orders WHERE o_id = 40", &[])
        .unwrap();

    let newest = |machine, limit: u32| {
        let m = c.machine(machine).unwrap();
        let sql =
            format!("SELECT o_id FROM orders WHERE o_c_id = 7 ORDER BY o_id DESC LIMIT {limit}");
        let txn = m.engine.begin().unwrap();
        let r = tenantdb_sql::execute(&m.engine, txn, "app", &sql, &[]).unwrap();
        m.engine.commit(txn).unwrap();
        r.rows
            .into_iter()
            .map(|row| row[0].clone())
            .collect::<Vec<_>>()
    };
    let all = [60, 50, 30, 20].map(Value::Int);
    let check = |what: &str| {
        assert_replicas_converged(&c, "app");
        let replicas = c.alive_replicas("app").unwrap();
        assert_eq!(replicas.len(), 2, "{what}");
        for m in replicas {
            assert_eq!(newest(m, 9), all, "{what}: {m}");
            assert_eq!(newest(m, 2), all[..2], "{what}: {m}");
        }
    };
    check("as written");

    let lost = c.alive_replicas("app").unwrap()[0];
    c.fail_machine(lost).unwrap();
    let report = tenantdb_cluster::recover_machine(&c, lost, Default::default());
    assert!(report.failed.is_empty(), "{report:?}");
    check("after the table copy");

    let replayed = c.alive_replicas("app").unwrap()[0];
    c.fail_machine(replayed).unwrap();
    c.restart_machine(replayed).unwrap();
    check("after crash replay");
}
