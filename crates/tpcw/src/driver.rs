//! Closed-loop multi-session workload driver.
//!
//! Each session is a thread owning one cluster connection; it repeatedly
//! draws an interaction from the mix, runs it as a transaction, and
//! classifies the outcome. The aggregate report feeds Figures 2–9.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use tenantdb_cluster::{ClusterController, Outcome};

use crate::generator::Scale;
use crate::mix::{run_txn, IdCounters, Mix, Session};

/// Workload parameters.
#[derive(Clone)]
pub struct WorkloadConfig {
    pub mix: &'static Mix,
    /// Concurrent sessions per database.
    pub sessions_per_db: usize,
    pub duration: Duration,
    pub seed: u64,
}

/// Aggregated outcome counts.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WorkloadReport {
    pub committed: u64,
    /// Deadlock + lock-timeout aborts (workload-inherent).
    pub deadlocks: u64,
    /// Proactive rejections (machine failure, copy rejection).
    pub rejected: u64,
    pub other_aborts: u64,
    /// Commits per interaction type, indexed by [`crate::TxnType::index`].
    pub committed_by_type: [u64; 10],
    pub elapsed: Duration,
}

impl WorkloadReport {
    pub fn total(&self) -> u64 {
        self.committed + self.deadlocks + self.rejected + self.other_aborts
    }

    /// Committed transactions per second.
    pub fn tps(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.committed as f64 / secs
    }

    /// Deadlocks per 1000 attempted transactions (Figures 5–7).
    pub fn deadlock_rate_per_1k(&self) -> f64 {
        if self.total() == 0 {
            return 0.0;
        }
        1000.0 * self.deadlocks as f64 / self.total() as f64
    }

    /// Fraction of proactively rejected transactions (the §4.1 SLA metric).
    pub fn rejected_frac(&self) -> f64 {
        if self.total() == 0 {
            return 0.0;
        }
        self.rejected as f64 / self.total() as f64
    }

    pub fn merge(&mut self, other: &WorkloadReport) {
        self.committed += other.committed;
        self.deadlocks += other.deadlocks;
        self.rejected += other.rejected;
        self.other_aborts += other.other_aborts;
        for (a, b) in self
            .committed_by_type
            .iter_mut()
            .zip(&other.committed_by_type)
        {
            *a += b;
        }
        self.elapsed = self.elapsed.max(other.elapsed);
    }
}

/// One database's workload context: its id allocators and scale.
pub struct DbWorkload {
    pub db: String,
    pub ids: Arc<IdCounters>,
    pub scale: Scale,
}

/// Run the closed-loop workload over a set of databases; blocks until
/// `cfg.duration` elapses and all sessions drain.
pub fn run_workload(
    cluster: &Arc<ClusterController>,
    workloads: &[DbWorkload],
    cfg: &WorkloadConfig,
) -> WorkloadReport {
    let deadline = Instant::now() + cfg.duration;
    let started = Instant::now();
    let mut handles = Vec::new();
    for (wi, w) in workloads.iter().enumerate() {
        for s in 0..cfg.sessions_per_db {
            let cluster = Arc::clone(cluster);
            let db = w.db.clone();
            let ids = Arc::clone(&w.ids);
            let scale = w.scale;
            let mix = cfg.mix;
            let seed = cfg
                .seed
                .wrapping_add(wi as u64 * 1009)
                .wrapping_add(s as u64 * 9176)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15 | 1);
            handles.push(std::thread::spawn(move || {
                session_loop(&cluster, &db, &ids, scale, mix, seed, deadline)
            }));
        }
    }
    let mut report = WorkloadReport::default();
    for h in handles {
        let r = h.join().expect("session panicked");
        report.merge(&r);
    }
    report.elapsed = started.elapsed();
    report
}

fn session_loop(
    cluster: &Arc<ClusterController>,
    db: &str,
    ids: &Arc<IdCounters>,
    scale: Scale,
    mix: &Mix,
    seed: u64,
    deadline: Instant,
) -> WorkloadReport {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut report = WorkloadReport::default();
    let Ok(conn) = cluster.connect(db) else {
        return report;
    };
    let mut session = Session {
        customer: rng.gen_range(0..scale.customers.max(1) as i64),
        cart: None,
    };
    while Instant::now() < deadline {
        let kind = mix.pick(&mut rng);
        match run_txn(kind, &conn, ids, scale, &mut session, &mut rng) {
            Ok(()) => {
                report.committed += 1;
                report.committed_by_type[kind.index()] += 1;
            }
            Err(e) => match e.outcome() {
                Outcome::Deadlock => report.deadlocks += 1,
                Outcome::Rejected => report.rejected += 1,
                Outcome::Aborted => report.other_aborts += 1,
            },
        }
    }
    report
}

/// Convenience: set up `n_dbs` TPC-W databases (each with `replicas`
/// replicas) and return their workload contexts.
pub fn setup_tpcw_databases(
    cluster: &Arc<ClusterController>,
    n_dbs: usize,
    replicas: usize,
    scale: Scale,
    seed: u64,
) -> tenantdb_cluster::Result<Vec<DbWorkload>> {
    let mut out = Vec::with_capacity(n_dbs);
    for i in 0..n_dbs {
        let db = format!("tpcw{i}");
        cluster.create_database(&db, replicas)?;
        let space = crate::generator::setup_database(cluster, &db, scale, seed + i as u64)?;
        out.push(DbWorkload {
            db,
            ids: IdCounters::from_space(space),
            scale,
        });
    }
    Ok(out)
}

/// Per-database report split (used when the figure needs per-db numbers,
/// e.g. rejected transactions *per database* in Figure 8).
pub fn per_db_counters(
    cluster: &Arc<ClusterController>,
    workloads: &[DbWorkload],
) -> HashMap<String, tenantdb_cluster::DbCounters> {
    workloads
        .iter()
        .map(|w| (w.db.clone(), cluster.counters(&w.db)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mix::{ORDERING, SHOPPING};
    use tenantdb_cluster::ClusterConfig;

    #[test]
    fn workload_commits_transactions() {
        let cluster = ClusterController::with_machines(ClusterConfig::for_tests(), 2);
        let workloads = setup_tpcw_databases(&cluster, 1, 2, Scale::with_items(60), 1).unwrap();
        let report = run_workload(
            &cluster,
            &workloads,
            &WorkloadConfig {
                mix: &SHOPPING,
                sessions_per_db: 2,
                duration: Duration::from_millis(600),
                seed: 1,
            },
        );
        assert!(report.committed > 10, "report: {report:?}");
        assert!(report.tps() > 0.0);
        // The platform never rejects without failures/copies in flight.
        assert_eq!(report.rejected, 0);
        // Replicas stayed in sync through the whole run.
        let replicas = cluster.alive_replicas("tpcw0").unwrap();
        let mut last: Option<usize> = None;
        for id in replicas {
            let m = cluster.machine(id).unwrap();
            let t = m.engine.begin().unwrap();
            let n: usize = crate::schema::TABLES
                .iter()
                .map(|tbl| m.engine.scan(t, "tpcw0", tbl).unwrap().len())
                .sum();
            m.engine.commit(t).unwrap();
            if let Some(prev) = last {
                assert_eq!(prev, n, "replica row counts diverged");
            }
            last = Some(n);
        }
    }

    #[test]
    fn ordering_mix_generates_orders() {
        let cluster = ClusterController::with_machines(ClusterConfig::for_tests(), 1);
        let workloads = setup_tpcw_databases(&cluster, 1, 1, Scale::with_items(40), 2).unwrap();
        let before = {
            let conn = cluster.connect("tpcw0").unwrap();
            let r = conn.execute("SELECT COUNT(*) FROM orders", &[]).unwrap();
            r.rows[0][0].as_i64().unwrap()
        };
        run_workload(
            &cluster,
            &workloads,
            &WorkloadConfig {
                mix: &ORDERING,
                sessions_per_db: 2,
                duration: Duration::from_millis(600),
                seed: 3,
            },
        );
        let conn = cluster.connect("tpcw0").unwrap();
        let after = conn
            .execute("SELECT COUNT(*) FROM orders", &[])
            .unwrap()
            .rows[0][0]
            .as_i64()
            .unwrap();
        assert!(
            after > before,
            "ordering mix must create orders ({before} -> {after})"
        );
        // Orders reference valid items through the foreign key chain.
        let orphans = conn
            .execute(
                "SELECT COUNT(*) FROM order_line ol JOIN item i ON i.i_id = ol.ol_i_id",
                &[],
            )
            .unwrap();
        assert!(orphans.rows[0][0].as_i64().unwrap() > 0);
    }

    #[test]
    fn report_math() {
        let r = WorkloadReport {
            committed: 80,
            deadlocks: 10,
            rejected: 5,
            other_aborts: 5,
            elapsed: Duration::from_secs(2),
            ..Default::default()
        };
        assert_eq!(r.total(), 100);
        assert!((r.tps() - 40.0).abs() < 1e-9);
        assert!((r.deadlock_rate_per_1k() - 100.0).abs() < 1e-9);
        assert!((r.rejected_frac() - 0.05).abs() < 1e-9);
        let mut m = WorkloadReport::default();
        m.merge(&r);
        m.merge(&r);
        assert_eq!(m.committed, 160);
        assert_eq!(m.elapsed, Duration::from_secs(2));
    }
}
