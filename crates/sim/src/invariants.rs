//! The three invariant checkers every simulation run is judged by, plus the
//! cross-colo disaster-recovery checker ([`check_geo`]).

use tenantdb_cluster::testkit;
use tenantdb_cluster::{ClusterController, ReadPolicy, WritePolicy};
use tenantdb_history::{Recorder, Verdict};
use tenantdb_storage::Value;

/// Whether a (read, write) policy cell of Table 1 promises one-copy
/// serializability: every cell under conservative writes (Theorem 2), and
/// the pinned-replica column under aggressive writes (Theorem 1). The two
/// remaining aggressive cells trade 1SR away — for those the harness checks
/// convergence and durability only.
pub fn cell_is_serializable(read: ReadPolicy, write: WritePolicy) -> bool {
    write == WritePolicy::Conservative || read == ReadPolicy::PinnedReplica
}

/// Run all three checkers against a quiesced cluster; each violation is one
/// human-readable line (empty = the run passed).
///
/// * `acked` — integer primary keys whose inserting transaction's commit
///   returned `Ok` to the client (the durability obligation).
/// * `serializable` — whether the active policy cell promises 1SR (see
///   [`cell_is_serializable`]); when false the history check is skipped.
pub fn check_run(
    c: &ClusterController,
    db: &str,
    table: &str,
    acked: &[i64],
    serializable: bool,
    recorder: &Recorder,
) -> Vec<String> {
    let mut violations = Vec::new();
    if let Err(e) = testkit::replicas_converged(c, db) {
        violations.push(format!("convergence: {e}"));
    }
    if let Err(e) = testkit::committed_visible(c, db, table, acked) {
        violations.push(format!("durability: {e}"));
    }
    if serializable {
        if let Verdict::NotSerializable(cycle) = recorder.check() {
            violations.push(format!("serializability: conflict cycle through {cycle:?}"));
        }
    }
    // Replicated-controller safety (DESIGN.md §12): single leader per
    // term, applied-prefix consistency across controller replicas, and
    // no quorum-acked 2PC decision lost.
    for v in c.controllers().invariant_violations() {
        violations.push(format!("controller: {v}"));
    }
    // After quiesce every decided transaction has been completed on (or
    // resolved for) every participant; a leftover entry or committed marker
    // means a decided commit never reached someone, and a tombstone that a
    // restart left should have gone with the takeover.
    for (gtxn, participants) in c.decisions() {
        violations.push(format!(
            "controller: decision {gtxn:?} still unresolved for {participants:?}"
        ));
    }
    for p in c.controllers().tombstones() {
        violations.push(format!("controller: tombstone {p:?} left"));
    }
    // §4 no-starvation (windowless form): any tenant with an SLA that the
    // admission gate never shed must be within its rejected-fraction
    // ceiling. Vacuous for scenarios that set no SLAs.
    for v in testkit::no_starvation_violations(c, None) {
        violations.push(format!("sla: {v}"));
    }
    violations
}

/// The cross-colo disaster-recovery invariant (the georep teeth): after a
/// promotion,
///
/// 1. every commit the standby **acknowledged** before the disaster is
///    readable on the promoted standby — acked commits survive colo loss
///    within the stream's lag bound (`standby_acked` is exactly the set of
///    integer keys whose inserting transaction had reached the cumulative
///    ack);
/// 2. a reachable old primary is **fenced** and accepts no writes — a
///    split brain must not be able to commit on both sides. The checker has
///    teeth: it *attempts a write* on the old primary (an insert into
///    `table`, which must follow the scenarios' `(INT, TEXT)` shape) and
///    reports a violation if the write is accepted.
///
/// `old_primary` is `None` in the unplanned case (the primary colo is gone;
/// nothing remains to fence). Empty result = the run passed.
pub fn check_geo(
    promoted: &ClusterController,
    old_primary: Option<&std::sync::Arc<ClusterController>>,
    db: &str,
    table: &str,
    standby_acked: &[i64],
) -> Vec<String> {
    let mut violations = Vec::new();
    if let Err(e) = testkit::committed_visible(promoted, db, table, standby_acked) {
        violations.push(format!("geo durability: {e}"));
    }
    if let Some(p) = old_primary {
        if !p.is_geo_fenced() {
            violations.push("geo fencing: old primary is not fenced after promotion".to_string());
        }
        // Teeth: the fence must hold against an actual write attempt, not
        // just report itself fenced.
        if let Ok(conn) = p.connect(db) {
            let probe = conn.execute(
                &format!("INSERT INTO {table} VALUES (?, ?)"),
                &[Value::Int(-424_242), Value::Text("geo-fence-probe".into())],
            );
            if probe.is_ok() {
                violations.push(
                    "geo split-brain: old primary accepted a write after promotion".to_string(),
                );
            }
        }
    }
    violations
}
