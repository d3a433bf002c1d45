//! End-to-end observability: every (read policy × write policy) cell drives
//! the same counters, recovery copies leave a structured event trail, and
//! the rendered exposition carries the operator-facing series.

use std::sync::Arc;

use tenantdb_cluster::metrics::{
    self, COMMIT_LATENCY, READ_ROUTES, RECOVERY_TABLES_COPIED, TWOPC_COMMIT_LATENCY,
    TWOPC_PREPARE_LATENCY, TXN_BEGUN, TXN_OUTCOMES, WRITE_REJECTIONS,
};
use tenantdb_cluster::recovery::{create_replica, CopyGranularity};
use tenantdb_cluster::testkit;
use tenantdb_cluster::{ClusterController, ClusterError, ReadPolicy, WritePolicy};
use tenantdb_storage::Throttle;

fn cluster(read: ReadPolicy, write: WritePolicy, machines: usize) -> Arc<ClusterController> {
    testkit::cluster(read, write, machines, 2.min(machines))
}

const ALL_CELLS: [(ReadPolicy, WritePolicy); 6] = [
    (ReadPolicy::PinnedReplica, WritePolicy::Conservative),
    (ReadPolicy::PinnedReplica, WritePolicy::Aggressive),
    (ReadPolicy::PerTransaction, WritePolicy::Conservative),
    (ReadPolicy::PerTransaction, WritePolicy::Aggressive),
    (ReadPolicy::PerOperation, WritePolicy::Conservative),
    (ReadPolicy::PerOperation, WritePolicy::Aggressive),
];

/// Every policy cell produces the same outcome accounting: begun == outcomes,
/// commits land in the `committed` series, 2PC phase histograms fill for
/// writing transactions, and reads are attributed to the configured policy.
#[test]
fn every_policy_cell_feeds_the_same_counters() {
    for (read, write) in ALL_CELLS {
        let c = cluster(read, write, 2);
        let conn = c.connect("app").unwrap();
        let n_txns = 4u64;
        for i in 0..n_txns {
            conn.begin().unwrap();
            conn.execute(
                "INSERT INTO t VALUES (?, 'x')",
                &[tenantdb_storage::Value::Int(i as i64)],
            )
            .unwrap();
            conn.execute(
                "SELECT v FROM t WHERE k = ?",
                &[tenantdb_storage::Value::Int(i as i64)],
            )
            .unwrap();
            conn.commit().unwrap();
        }

        let reg = c.metrics().registry();
        let cell = format!("cell ({read:?}, {write:?})");
        assert_eq!(
            reg.counter_value(TXN_BEGUN, &[("db", "app")]),
            n_txns,
            "{cell}: begun"
        );
        assert_eq!(
            reg.counter_value(TXN_OUTCOMES, &[("db", "app"), ("outcome", "committed")]),
            n_txns,
            "{cell}: committed"
        );
        assert_eq!(
            c.counters("app").committed,
            n_txns,
            "{cell}: DbCounters view"
        );

        // Each transaction wrote, so both 2PC phases ran once per commit.
        let snap = reg.snapshot();
        let prepare = snap.histograms.get(TWOPC_PREPARE_LATENCY).copied();
        let commit = snap.histograms.get(TWOPC_COMMIT_LATENCY).copied();
        assert_eq!(
            prepare.map(|(n, _)| n),
            Some(n_txns),
            "{cell}: prepare phase"
        );
        assert_eq!(commit.map(|(n, _)| n), Some(n_txns), "{cell}: commit phase");
        let whole = snap
            .histograms
            .get(&format!("{COMMIT_LATENCY}{{mode=\"2pc\"}}"))
            .copied();
        assert_eq!(whole.map(|(n, _)| n), Some(n_txns), "{cell}: whole-commit");

        // Every read was routed under the configured policy's label.
        let routed = reg.counter_sum(READ_ROUTES, &[("policy", metrics::policy_label(read))]);
        assert_eq!(routed, n_txns, "{cell}: read routes");
        assert_eq!(
            reg.counter_sum(READ_ROUTES, &[]),
            routed,
            "{cell}: no reads attributed to other policies"
        );
    }
}

/// Read-only transactions take the one-phase path: the `readonly` commit
/// series fills and the 2PC phase histograms stay empty.
#[test]
fn read_only_commits_skip_two_phase_series() {
    let c = cluster(ReadPolicy::PerOperation, WritePolicy::Conservative, 2);
    let conn = c.connect("app").unwrap();
    for _ in 0..3 {
        conn.begin().unwrap();
        conn.execute("SELECT COUNT(*) FROM t", &[]).unwrap();
        conn.commit().unwrap();
    }
    let snap = c.metrics().registry().snapshot();
    let ro = snap
        .histograms
        .get(&format!("{COMMIT_LATENCY}{{mode=\"readonly\"}}"))
        .copied();
    assert_eq!(ro.map(|(n, _)| n), Some(3));
    assert_eq!(
        snap.histograms
            .get(TWOPC_PREPARE_LATENCY)
            .map(|&(n, _)| n)
            .unwrap_or(0),
        0,
        "no PREPARE for read-only transactions"
    );
}

/// Aggressive mode returns after the first ack; the remaining replica's
/// reply must be discarded — and counted — at the next collect.
#[test]
fn aggressive_mode_counts_straggler_acks() {
    let c = cluster(ReadPolicy::PinnedReplica, WritePolicy::Aggressive, 2);
    let conn = c.connect("app").unwrap();
    let n_txns = 5u64;
    for i in 0..n_txns {
        conn.begin().unwrap();
        conn.execute(
            "INSERT INTO t VALUES (?, 'x')",
            &[tenantdb_storage::Value::Int(i as i64)],
        )
        .unwrap();
        conn.commit().unwrap();
    }
    assert!(
        c.metrics().straggler_acks.get() >= n_txns,
        "each aggressive write leaves at least one background ack to discard, saw {}",
        c.metrics().straggler_acks.get()
    );

    // Conservative mode waits for everyone: no stragglers at all.
    let c2 = cluster(ReadPolicy::PinnedReplica, WritePolicy::Conservative, 2);
    let conn2 = c2.connect("app").unwrap();
    conn2.execute("INSERT INTO t VALUES (1, 'x')", &[]).unwrap();
    assert_eq!(c2.metrics().straggler_acks.get(), 0);
}

/// A table-level replica copy leaves the full Algorithm-1 event trail and
/// bumps the per-database tables-copied counter; a write against the table
/// being copied is rejected, counted, and logged.
#[test]
fn recovery_copy_emits_progress_events_and_rejection_metrics() {
    let c = cluster(ReadPolicy::PinnedReplica, WritePolicy::Conservative, 3);
    let conn = c.connect("app").unwrap();
    conn.execute("INSERT INTO t VALUES (1, 'seed')", &[])
        .unwrap();

    let target = c
        .machine_ids()
        .into_iter()
        .find(|m| !c.placement("app").unwrap().replicas.contains(m))
        .expect("a third machine without the database");
    create_replica(
        &c,
        "app",
        target,
        CopyGranularity::TableLevel,
        Throttle::UNLIMITED,
    )
    .unwrap();

    let reg = c.metrics().registry();
    assert_eq!(
        reg.counter_value(RECOVERY_TABLES_COPIED, &[("db", "app")]),
        1
    );
    assert_eq!(c.metrics().copies_in_flight.get(), 0, "copy finished");
    assert_eq!(c.metrics().copy_latency.count(), 1);

    let kinds: Vec<String> = c
        .metrics()
        .events()
        .all()
        .into_iter()
        .map(|e| e.kind.to_string())
        .collect();
    assert_eq!(
        kinds,
        vec![
            "copy_begin",
            "copy_table_begin",
            "copy_table_done",
            "copy_finish"
        ],
        "ordered Algorithm-1 lifecycle"
    );

    // Now simulate a copy in flight over table `t` and watch a write bounce.
    c.begin_copy("app", Some(target), false).unwrap();
    c.set_copy_current("app", Some("t"));
    let err = conn
        .execute("INSERT INTO t VALUES (2, 'blocked')", &[])
        .unwrap_err();
    assert!(matches!(err, ClusterError::WriteRejected { .. }), "{err:?}");
    conn.rollback().ok();
    assert_eq!(reg.counter_value(WRITE_REJECTIONS, &[("db", "app")]), 1);
    // DDL bounces off the same copy and is counted from either entry point.
    for ddl in [
        c.ddl("app", "CREATE TABLE u (id INT NOT NULL, PRIMARY KEY (id))"),
        conn.execute("CREATE TABLE u (id INT NOT NULL, PRIMARY KEY (id))", &[])
            .map(drop),
    ] {
        let err = ddl.unwrap_err();
        assert!(matches!(err, ClusterError::WriteRejected { .. }), "{err:?}");
    }
    assert_eq!(reg.counter_value(WRITE_REJECTIONS, &[("db", "app")]), 3);
    c.abandon_copy("app");

    let rejected: Vec<_> = c
        .metrics()
        .events()
        .all()
        .into_iter()
        .filter(|e| e.kind == "write_rejected")
        .collect();
    assert_eq!(rejected.len(), 3);
    assert_eq!(rejected[0].field("db"), Some("app"));
    assert_eq!(rejected[0].field("table"), Some("t"));
    assert_eq!(rejected[1].field("table"), Some("<ddl>"));
    // The rejected transaction shows up in the SLA monitor's live input,
    // too (DDL runs outside transactions, so it is not an outcome).
    assert_eq!(c.metrics().observed_outcomes("app").rejected, 1);
}

/// The rendered exposition carries every operator-facing family named in
/// the design doc: 2PC phase latencies, per-database outcome and rejection
/// counters, pool scheduling gauges, and recovery progress.
#[test]
fn render_text_exposes_the_operator_surface() {
    let c = cluster(ReadPolicy::PerTransaction, WritePolicy::Conservative, 2);
    let conn = c.connect("app").unwrap();
    conn.execute("INSERT INTO t VALUES (1, 'x')", &[]).unwrap();
    conn.execute("SELECT COUNT(*) FROM t", &[]).unwrap();

    let text = c.metrics().registry().render_text();
    // Two auto-committed statements: the INSERT (2PC) and the SELECT
    // (read-only one-phase).
    assert!(
        text.contains("tenantdb_txn_outcomes_total{db=\"app\",outcome=\"committed\"} 2"),
        "{text}"
    );
    assert!(text.contains("tenantdb_2pc_prepare_latency_us_count 1"));
    assert!(text.contains("tenantdb_2pc_commit_latency_us_count 1"));
    assert!(text.contains("tenantdb_commit_latency_us_count{mode=\"2pc\"} 1"));
    assert!(text.contains("tenantdb_pool_queue_depth{pool=\"machine\",machine=\"m0\"}"));
    assert!(text.contains("tenantdb_pool_live_threads{pool=\"machine\""));
    assert!(text.contains("tenantdb_pool_threads_spawned_total{pool=\"machine\""));
    assert!(text.contains("tenantdb_read_route_total{policy=\"per_txn\""));
    assert!(text.contains("# TYPE tenantdb_2pc_prepare_latency_us histogram"));
    assert!(text.contains("# HELP tenantdb_txn_outcomes_total"));
    // Histogram quantile comment appears once observations exist.
    assert!(text.contains("# quantiles tenantdb_2pc_prepare_latency_us"));
}

/// `reset_counters` zeroes outcome counters and histograms for a fresh
/// measurement window but leaves level gauges (live threads) alone.
#[test]
fn reset_counters_opens_a_clean_window() {
    let c = cluster(ReadPolicy::PinnedReplica, WritePolicy::Conservative, 2);
    let conn = c.connect("app").unwrap();
    conn.execute("INSERT INTO t VALUES (1, 'x')", &[]).unwrap();
    assert_eq!(c.counters("app").committed, 1);

    c.reset_counters();
    assert_eq!(c.counters("app").committed, 0);
    assert_eq!(c.metrics().commit_latency_2pc.count(), 0);
    assert_eq!(c.metrics().events().len(), 0);
    let live = c
        .metrics()
        .registry()
        .snapshot()
        .gauges
        .iter()
        .filter(|(k, _)| k.starts_with("tenantdb_pool_live_threads"))
        .map(|(_, &v)| v)
        .sum::<i64>();
    assert!(live > 0, "gauges survive the reset");

    conn.execute("INSERT INTO t VALUES (2, 'y')", &[]).unwrap();
    assert_eq!(
        c.counters("app").committed,
        1,
        "window counts fresh work only"
    );
}
