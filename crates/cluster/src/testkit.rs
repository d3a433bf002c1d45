//! Shared test support: fast cluster builders and the invariant checks the
//! integration suites (and the `tenantdb-sim` harness) all need.
//!
//! Before this module existed every integration file carried its own copy of
//! a `config()`/`cluster()` constructor and its own per-replica scan loop.
//! The checks here are the reusable versions:
//!
//! * [`replicas_converged`] — every alive replica of a database holds the
//!   same logical state (same tables, same rows, compared content-wise);
//! * [`committed_visible`] — a set of client-acknowledged primary keys is
//!   present on every alive replica (the durability promise).
//!
//! Both come in a `Result`-returning form (for the simulation harness,
//! which aggregates violations into a report) and an `assert_*` form (for
//! plain `#[test]`s).

use std::sync::Arc;
use std::time::Duration;

use tenantdb_storage::{CostModel, Engine, EngineConfig, Value};

use crate::controller::{ClusterConfig, ClusterController, ReadPolicy, WritePolicy};

/// The fast engine configuration the integration suites share: small buffer
/// pool, free cost model, sub-second lock timeout.
pub fn fast_engine_config() -> EngineConfig {
    EngineConfig {
        buffer_pages: 1024,
        cost: CostModel::free(),
        lock_timeout: Duration::from_millis(400),
    }
}

/// A test cluster configuration: the given policies over
/// [`fast_engine_config`], with a fixed seed for reproducible replica
/// choices.
pub fn config(read: ReadPolicy, write: WritePolicy, seed: u64) -> ClusterConfig {
    ClusterConfig {
        read_policy: read,
        write_policy: write,
        engine: fast_engine_config(),
        seed,
        ..Default::default()
    }
}

/// A ready-to-use cluster: `machines` machines, one database `"app"` with
/// `replicas` replicas and the canonical test table
/// `t (k INT PRIMARY KEY, v TEXT)`.
pub fn cluster(
    read: ReadPolicy,
    write: WritePolicy,
    machines: usize,
    replicas: usize,
) -> Arc<ClusterController> {
    let c = ClusterController::with_machines(config(read, write, 3), machines);
    c.create_database("app", replicas).unwrap();
    c.ddl(
        "app",
        "CREATE TABLE t (k INT NOT NULL, v TEXT, PRIMARY KEY (k))",
    )
    .unwrap();
    c
}

/// Like [`cluster`], but with a replicated controller group of
/// `controllers` metadata replicas (failover scenarios).
pub fn cluster_with_controllers(
    read: ReadPolicy,
    write: WritePolicy,
    machines: usize,
    replicas: usize,
    controllers: usize,
) -> Arc<ClusterController> {
    let cfg = config(read, write, 3).with_controllers(controllers);
    let c = ClusterController::with_machines(cfg, machines);
    c.create_database("app", replicas).unwrap();
    c.ddl(
        "app",
        "CREATE TABLE t (k INT NOT NULL, v TEXT, PRIMARY KEY (k))",
    )
    .unwrap();
    c
}

/// Render one engine's logical state of `db` as canonical text: every table
/// (sorted by name) with its rows sorted by content. Row *ids* are
/// deliberately excluded — they are an engine-local artifact (two replicas
/// that disagreed on an aborted insert burn different ids for identical
/// data), while the paper's convergence claim is about the relation's
/// contents.
pub fn logical_state(engine: &Engine, db: &str) -> Result<String, String> {
    let txn = engine.begin().map_err(|e| format!("begin on {db}: {e}"))?;
    let result = (|| -> Result<String, String> {
        let tables = engine
            .db(db)
            .map_err(|e| format!("open {db}: {e}"))?
            .table_names();
        let mut out = String::new();
        for table in tables {
            let mut rows: Vec<Vec<Value>> = engine
                .scan(txn, db, &table)
                .map_err(|e| format!("scan {db}.{table}: {e}"))?
                .into_iter()
                .map(|(_, row)| row)
                .collect();
            rows.sort();
            out.push_str(&format!("table {table} ({} rows)\n", rows.len()));
            for row in rows {
                out.push_str(&format!("  {row:?}\n"));
            }
        }
        Ok(out)
    })();
    let _ = engine.abort(txn);
    result
}

/// Check that every alive replica of `db` holds byte-identical logical
/// state (see [`logical_state`]). Returns a description of the first
/// divergence found.
pub fn replicas_converged(c: &ClusterController, db: &str) -> Result<(), String> {
    let replicas = c
        .alive_replicas(db)
        .map_err(|e| format!("alive_replicas({db}): {e}"))?;
    if replicas.is_empty() {
        return Err(format!("{db}: no alive replicas to compare"));
    }
    let mut reference: Option<(crate::MachineId, String)> = None;
    for id in replicas {
        let m = c.machine(id).map_err(|e| format!("machine {id}: {e}"))?;
        let state = logical_state(&m.engine, db)?;
        match &reference {
            None => reference = Some((id, state)),
            Some((ref_id, ref_state)) => {
                if state != *ref_state {
                    return Err(format!(
                        "{db}: replicas diverged\n--- {ref_id}\n{ref_state}--- {id}\n{state}"
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Panic unless every alive replica of `db` holds identical logical state.
pub fn assert_replicas_converged(c: &ClusterController, db: &str) {
    if let Err(e) = replicas_converged(c, db) {
        panic!("convergence violated: {e}");
    }
}

/// Check that every integer primary key in `keys` is visible in
/// `db.table` on **every** alive replica — the durability half of the
/// write-all contract: once a commit was acknowledged to the client, no
/// surviving replica may be missing its writes.
pub fn committed_visible(
    c: &ClusterController,
    db: &str,
    table: &str,
    keys: &[i64],
) -> Result<(), String> {
    let replicas = c
        .alive_replicas(db)
        .map_err(|e| format!("alive_replicas({db}): {e}"))?;
    if replicas.is_empty() {
        return Err(format!("{db}: no alive replicas to check"));
    }
    for id in replicas {
        let m = c.machine(id).map_err(|e| format!("machine {id}: {e}"))?;
        let txn = m
            .engine
            .begin()
            .map_err(|e| format!("begin on {id}: {e}"))?;
        let mut missing: Vec<i64> = Vec::new();
        for &k in keys {
            let rows = m
                .engine
                .index_lookup(txn, db, table, "pk", &[Value::Int(k)], false)
                .map_err(|e| format!("lookup {db}.{table}[{k}] on {id}: {e}"))?;
            if rows.is_empty() {
                missing.push(k);
            }
        }
        let _ = m.engine.abort(txn);
        if !missing.is_empty() {
            return Err(format!(
                "{db}.{table}: replica {id} lost {} acked key(s): {missing:?}",
                missing.len()
            ));
        }
    }
    Ok(())
}

/// Panic unless every acked key in `keys` is present on every alive replica.
pub fn assert_committed_visible(c: &ClusterController, db: &str, table: &str, keys: &[i64]) {
    if let Err(e) = committed_visible(c, db, table, keys) {
        panic!("durability violated: {e}");
    }
}

/// The §4 no-starvation invariant: while a noisy neighbor saturates shared
/// machines, every *compliant* tenant (one offering load within its
/// provisioned admission rate) must keep its SLA — observed throughput at or
/// above `min_tps` and rejected fraction at or below `max_rejected_frac`.
///
/// `window` selects the strictness:
///
/// * `Some(window)` — full check over a measurement window. Callers must
///   `reset_counters()` at the window's start so the registry totals *are*
///   the window. A tenant whose offered load (begun + admission-shed, per
///   second) exceeds its provisioned rate (`AdmissionParams::from_sla`) is
///   the noisy party — by design non-compliant, so it is exempt. The
///   throughput floor applies only to tenants that actually offered
///   `min_tps` or more (a tenant that asked for less cannot be starved into
///   a number it never attempted).
/// * `None` — windowless availability-only check, for harnesses that cannot
///   control the measurement window (every scripted sim scenario): any
///   tenant with an SLA and **zero** admission sheds must still be within
///   its rejected-fraction ceiling. Vacuous for databases without SLAs.
///
/// Returns one violation string per breached tenant (empty = invariant
/// holds).
pub fn no_starvation_violations(c: &ClusterController, window: Option<Duration>) -> Vec<String> {
    let mut violations = Vec::new();
    for db in c.database_names() {
        let Some(sla) = c.sla(&db) else { continue };
        let outcomes = c.metrics().observed_outcomes(&db);
        let adm = c.metrics().sla_admission_counters(&db);
        match window {
            Some(w) => {
                let secs = w.as_secs_f64();
                if secs <= 0.0 {
                    continue;
                }
                let offered_tps = (c.metrics().db_begun(&db) + adm.rejected) as f64 / secs;
                let limit = tenantdb_sla::AdmissionParams::from_sla(&sla).rate_tps;
                if limit > 0.0 && offered_tps > limit {
                    // The noisy party: offering past its provisioned rate is
                    // exactly what admission control sheds. Not compliant,
                    // not protected.
                    continue;
                }
                let comp = c.sla_compliance(&db, &sla, w);
                if offered_tps + 1e-9 >= sla.min_tps && !comp.throughput_ok {
                    violations.push(format!(
                        "{db}: starved below its SLA floor: {:.2} tps < min_tps {:.2} \
                         (offered {offered_tps:.2} tps, window {secs:.2}s)",
                        comp.observed_tps, sla.min_tps
                    ));
                }
                if !comp.availability_ok {
                    violations.push(format!(
                        "{db}: rejected fraction {:.4} > max_rejected_frac {:.4} \
                         ({} rejected / {} committed)",
                        comp.observed_rejected_frac,
                        sla.max_rejected_frac,
                        outcomes.rejected,
                        outcomes.committed
                    ));
                }
            }
            None => {
                if adm.rejected == 0 {
                    let frac = outcomes.rejected_frac();
                    if frac > sla.max_rejected_frac + 1e-12 {
                        violations.push(format!(
                            "{db}: rejected fraction {frac:.4} > max_rejected_frac {:.4} \
                             with no admission sheds ({} rejected / {} committed)",
                            sla.max_rejected_frac, outcomes.rejected, outcomes.committed
                        ));
                    }
                }
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn converged_cluster_passes_both_checks() {
        let c = cluster(ReadPolicy::PinnedReplica, WritePolicy::Conservative, 3, 2);
        let conn = c.connect("app").unwrap();
        for k in 0..5i64 {
            conn.execute("INSERT INTO t VALUES (?, 'x')", &[Value::Int(k)])
                .unwrap();
        }
        assert_replicas_converged(&c, "app");
        assert_committed_visible(&c, "app", "t", &[0, 1, 2, 3, 4]);
    }

    #[test]
    fn divergence_is_detected() {
        let c = cluster(ReadPolicy::PinnedReplica, WritePolicy::Conservative, 2, 2);
        let conn = c.connect("app").unwrap();
        conn.execute("INSERT INTO t VALUES (1, 'x')", &[]).unwrap();
        // Plant an extra row on one replica behind the cluster's back.
        let id = c.alive_replicas("app").unwrap()[1];
        let m = c.machine(id).unwrap();
        m.engine
            .with_txn(|t| {
                m.engine
                    .insert(t, "app", "t", vec![Value::Int(99), Value::from("rogue")])
                    .map(|_| ())
            })
            .unwrap();
        assert!(replicas_converged(&c, "app").is_err());
    }

    #[test]
    fn admission_gate_sheds_hammering_tenant_only() {
        use tenantdb_sla::Sla;
        let c = cluster(ReadPolicy::PinnedReplica, WritePolicy::Conservative, 1, 1);
        c.create_database("loud", 1).unwrap();
        c.ddl(
            "loud",
            "CREATE TABLE t (k INT NOT NULL, v TEXT, PRIMARY KEY (k))",
        )
        .unwrap();
        // Provisioned rate = 2 × 5 = 10 tps with a 5-txn burst; a tight
        // loop of 100 inserts is far past it.
        c.set_sla("loud", Sla::new(5.0, 0.2, Duration::from_secs(60)))
            .unwrap();

        let loud = c.connect("loud").unwrap();
        let mut shed = 0;
        for k in 0..100i64 {
            match loud.execute("INSERT INTO t VALUES (?, 'x')", &[Value::Int(k)]) {
                Ok(_) => {}
                Err(crate::ClusterError::AdmissionRejected { db }) => {
                    assert_eq!(db, "loud");
                    shed += 1;
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(shed > 50, "hammering tenant barely shed: {shed}/100");
        let adm = c.metrics().sla_admission_counters("loud");
        assert_eq!(adm.rejected, shed);
        assert!(adm.admitted + adm.deferred > 0);
        // Admission sheds count as §4.1 proactive rejections.
        assert_eq!(c.counters("loud").rejected, shed);

        // The SLA-free tenant on the same machine is untouched.
        let quiet = c.connect("app").unwrap();
        for k in 0..20i64 {
            quiet
                .execute("INSERT INTO t VALUES (?, 'q')", &[Value::Int(k)])
                .unwrap();
        }
        assert_eq!(c.metrics().sla_admission_counters("app").total(), 0);

        // Kill switch: disabled, the same hammering all goes through.
        c.set_admission_enabled(false);
        assert!(!c.admission_enabled());
        for k in 100..150i64 {
            loud.execute("INSERT INTO t VALUES (?, 'x')", &[Value::Int(k)])
                .unwrap();
        }
        c.set_admission_enabled(true);
    }

    #[test]
    fn no_starvation_checker_flags_starved_and_exempts_noisy() {
        use tenantdb_sla::Sla;
        let c = cluster(ReadPolicy::PinnedReplica, WritePolicy::Conservative, 1, 1);
        for db in ["victim", "noise", "flaky"] {
            c.create_database(db, 1).unwrap();
        }
        let window = Duration::from_secs(2);

        // victim: offered within its provisioned rate but starved below the
        // floor → throughput violation.
        let handles = |db: &str| c.dbs.get(db).unwrap();
        c.set_sla("victim", Sla::new(5.0, 0.5, Duration::from_secs(60)))
            .unwrap();
        let victim = handles("victim");
        let victim = victim.counters(c.metrics());
        for _ in 0..20 {
            victim.begun();
        }
        for _ in 0..4 {
            victim.committed();
        }

        // noise: offered 50 tps against a 10 tps provision → the noisy
        // party, exempt even though it committed nothing.
        c.set_sla("noise", Sla::new(5.0, 0.01, Duration::from_secs(60)))
            .unwrap();
        let noise = handles("noise");
        for _ in 0..100 {
            noise.counters(c.metrics()).begun();
        }

        // flaky: within rate, floor not demanded, but 10% of its outcomes
        // were proactively rejected against a 1% ceiling → availability
        // violation.
        c.set_sla("flaky", Sla::new(50.0, 0.01, Duration::from_secs(60)))
            .unwrap();
        let flaky = handles("flaky");
        let flaky = flaky.counters(c.metrics());
        for _ in 0..90 {
            flaky.begun();
            flaky.committed();
        }
        for _ in 0..10 {
            flaky.failed(crate::Outcome::Rejected);
        }

        let v = no_starvation_violations(&c, Some(window));
        assert_eq!(v.len(), 2, "violations: {v:?}");
        assert!(v.iter().any(|s| s.starts_with("victim:")), "{v:?}");
        assert!(v.iter().any(|s| s.starts_with("flaky:")), "{v:?}");
        assert!(!v.iter().any(|s| s.starts_with("noise:")), "{v:?}");

        // Windowless mode only polices availability for tenants the gate
        // never shed: flaky (0 sheds, 10% rejected) is flagged.
        let v = no_starvation_violations(&c, None);
        assert_eq!(v.len(), 1, "violations: {v:?}");
        assert!(v[0].starts_with("flaky:"), "{v:?}");
    }

    #[test]
    fn missing_acked_key_is_detected() {
        let c = cluster(ReadPolicy::PinnedReplica, WritePolicy::Conservative, 2, 2);
        let conn = c.connect("app").unwrap();
        conn.execute("INSERT INTO t VALUES (1, 'x')", &[]).unwrap();
        let err = committed_visible(&c, "app", "t", &[1, 2]).unwrap_err();
        assert!(err.contains("[2]"), "unexpected report: {err}");
        assert!(committed_visible(&c, "app", "t", &[1]).is_ok());
    }
}
