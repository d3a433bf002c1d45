//! Cluster rebalancing — the paper's §7 future work, implemented.
//!
//! Algorithm 2 is *online*: it never moves existing databases, so after
//! churn (databases created and dropped, failures recovered onto whatever
//! machine had room) the packing degrades and the cluster holds more
//! machines than the workload needs. The paper leaves "a non-greedy
//! algorithm that reallocates existing and new databases" to future work.
//!
//! This module provides it:
//!
//! 1. [`plan_rebalance`] computes an offline First-Fit-Decreasing target
//!    packing from per-database demand vectors (FFD is within 11/9·OPT+1 for
//!    bin packing), then derives the minimal set of replica *moves* that
//!    transform the current placement into the target.
//! 2. [`execute_rebalance`] applies the moves as live migrations
//!    ([`crate::recovery::migrate_replica`]): each move copies the replica
//!    with the Algorithm 1 copy protocol (clients keep working, writes to
//!    the in-flight table are rejected) and then retires the old copy.
//!
//! Every executed move counts against the `reallocation_rate(j)` term of the
//! §4.1 availability budget, so callers gate rebalancing on
//! [`tenantdb_sla::availability_ok`].

use std::collections::HashMap;

use tenantdb_sla::{DatabaseSpec, FirstFitPlacer, Placer, ResourceVector};
use tenantdb_storage::Throttle;

use crate::controller::ClusterController;
use crate::error::{ClusterError, Result};
use crate::machine::MachineId;
use crate::recovery::{migrate_replica, CopyGranularity};

/// One planned replica move.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Move {
    /// The database whose replica moves.
    pub db: String,
    /// Machine losing the replica.
    pub from: MachineId,
    /// Machine gaining the replica.
    pub to: MachineId,
}

/// A computed rebalance plan.
#[derive(Debug, Default)]
pub struct RebalancePlan {
    /// Replica moves to apply, in order.
    pub moves: Vec<Move>,
    /// Machines that hold no replica under the target packing and can be
    /// returned to the colo's free pool.
    pub freed_machines: Vec<MachineId>,
    /// Machines hosting at least one replica before the plan.
    pub machines_before: usize,
    /// Machines hosting at least one replica after the plan.
    pub machines_after: usize,
}

impl RebalancePlan {
    /// True when the current placement already matches the target.
    pub fn is_noop(&self) -> bool {
        self.moves.is_empty()
    }
}

/// Derive per-database demand vectors from each database's live profile on
/// its first replica (reads/writes since engine start, current size). A
/// production system would use a windowed profile; totals preserve the
/// *relative* demands, which is what packing needs.
pub fn observed_demands(controller: &ClusterController) -> HashMap<String, ResourceVector> {
    let mut out = HashMap::new();
    for db in controller.database_names() {
        let Ok(replicas) = controller.alive_replicas(&db) else {
            continue;
        };
        let Some(&first) = replicas.first() else {
            continue;
        };
        let Ok(machine) = controller.machine(first) else {
            continue;
        };
        if let Ok(p) = machine.engine.db_profile(&db) {
            out.insert(
                db,
                ResourceVector {
                    cpu: p.reads as f64 + 2.0 * p.writes as f64,
                    memory: p.pages as f64,
                    disk_io: p.writes as f64,
                    disk_size: p.pages as f64,
                },
            );
        }
    }
    out
}

/// Compute a rebalance plan packing every database (at its current replica
/// count) onto the fewest machines of the given `capacity`.
///
/// The target packing reuses existing machine ids in ascending order, so
/// already-well-placed replicas tend to stay put and the plan only moves
/// what it must.
pub fn plan_rebalance(
    controller: &ClusterController,
    demands: &HashMap<String, ResourceVector>,
    capacity: ResourceVector,
) -> Result<RebalancePlan> {
    let mut machine_ids = controller.machine_ids();
    machine_ids.sort();

    // Databases sorted by demand, largest first (FFD), then by name for
    // determinism.
    let mut dbs: Vec<(String, ResourceVector, Vec<MachineId>)> = Vec::new();
    for db in controller.database_names() {
        let replicas = controller.alive_replicas(&db)?;
        let demand = demands.get(&db).copied().unwrap_or(ResourceVector::ZERO);
        dbs.push((db, demand, replicas));
    }
    dbs.sort_by(|a, b| {
        b.1.max_utilization(&capacity)
            .total_cmp(&a.1.max_utilization(&capacity))
            .then_with(|| a.0.cmp(&b.0))
    });

    // FFD target packing; placer bin index i maps to machine_ids[i].
    let mut placer = FirstFitPlacer::new(capacity);
    let mut target: HashMap<String, Vec<MachineId>> = HashMap::new();
    for (db, demand, replicas) in &dbs {
        let spec = DatabaseSpec::new(db.clone(), *demand, replicas.len());
        let bins = placer
            .place(&spec)
            .map_err(|e| ClusterError::TxnAborted(format!("rebalance infeasible: {e}")))?;
        let mut machines = Vec::with_capacity(bins.len());
        for b in bins {
            let &m = machine_ids.get(b).ok_or(ClusterError::NoMachines)?; // packing needs more machines than exist
            machines.push(m);
        }
        target.insert(db.clone(), machines);
    }

    // Derive moves: pair up departures with arrivals per database.
    let mut moves = Vec::new();
    for (db, _, current) in &dbs {
        let tgt = &target[db];
        let departures: Vec<MachineId> = current
            .iter()
            .copied()
            .filter(|m| !tgt.contains(m))
            .collect();
        let arrivals: Vec<MachineId> = tgt
            .iter()
            .copied()
            .filter(|m| !current.contains(m))
            .collect();
        debug_assert_eq!(departures.len(), arrivals.len());
        for (from, to) in departures.into_iter().zip(arrivals) {
            moves.push(Move {
                db: db.clone(),
                from,
                to,
            });
        }
    }

    let used_before: std::collections::HashSet<MachineId> =
        dbs.iter().flat_map(|(_, _, r)| r.iter().copied()).collect();
    let used_after: std::collections::HashSet<MachineId> =
        target.values().flat_map(|v| v.iter().copied()).collect();
    let mut freed: Vec<MachineId> = used_before.difference(&used_after).copied().collect();
    freed.sort();

    Ok(RebalancePlan {
        moves,
        freed_machines: freed,
        machines_before: used_before.len(),
        machines_after: used_after.len(),
    })
}

/// Execute a plan with live migrations. Returns the number of moves applied.
/// Stops at the first failure (the cluster is left consistent — each move is
/// individually atomic: the new replica only joins the placement once fully
/// copied).
pub fn execute_rebalance(
    controller: &ClusterController,
    plan: &RebalancePlan,
    granularity: CopyGranularity,
    throttle: Throttle,
) -> Result<usize> {
    let mut applied = 0;
    for mv in &plan.moves {
        migrate_replica(controller, &mv.db, mv.from, mv.to, granularity, throttle)?;
        applied += 1;
    }
    Ok(applied)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::ClusterConfig;
    use std::sync::Arc;
    use tenantdb_storage::Value;

    fn cap(x: f64) -> ResourceVector {
        ResourceVector::new(x, x, x, x)
    }

    /// A deliberately scattered cluster: 6 machines, 6 single-replica
    /// databases placed one per machine, though demands fit on 2.
    fn scattered() -> (Arc<ClusterController>, HashMap<String, ResourceVector>) {
        let c = ClusterController::with_machines(ClusterConfig::for_tests(), 6);
        let mut demands = HashMap::new();
        for i in 0..6 {
            let db = format!("db{i}");
            c.create_database_on(&db, &[MachineId(i)]).unwrap();
            c.ddl(
                &db,
                "CREATE TABLE t (id INT NOT NULL, v TEXT, PRIMARY KEY (id))",
            )
            .unwrap();
            let conn = c.connect(&db).unwrap();
            conn.begin().unwrap();
            for r in 0..10i64 {
                conn.execute(
                    "INSERT INTO t VALUES (?, ?)",
                    &[Value::Int(r), Value::Text(format!("{db}-{r}"))],
                )
                .unwrap();
            }
            conn.commit().unwrap();
            demands.insert(db, cap(3.0)); // 3 of 10 per machine -> 3 fit per bin
        }
        (c, demands)
    }

    #[test]
    fn plan_consolidates_scattered_databases() {
        let (c, demands) = scattered();
        let plan = plan_rebalance(&c, &demands, cap(10.0)).unwrap();
        assert_eq!(plan.machines_before, 6);
        assert_eq!(
            plan.machines_after, 2,
            "6 x 3.0 demand packs into 2 x 10.0 machines"
        );
        // FFD packs db0..2 onto m0 and db3..5 onto m1; only db0 already sits
        // on its target machine, so five replicas move.
        assert_eq!(plan.moves.len(), 5);
        assert_eq!(plan.freed_machines.len(), 4);
    }

    #[test]
    fn execute_moves_data_and_frees_machines() {
        let (c, demands) = scattered();
        let plan = plan_rebalance(&c, &demands, cap(10.0)).unwrap();
        let applied =
            execute_rebalance(&c, &plan, CopyGranularity::TableLevel, Throttle::UNLIMITED).unwrap();
        assert_eq!(applied, plan.moves.len());
        // Every database still serves all its rows.
        for i in 0..6 {
            let db = format!("db{i}");
            let conn = c.connect(&db).unwrap();
            let r = conn.execute("SELECT COUNT(*) FROM t", &[]).unwrap();
            assert_eq!(r.rows[0][0], Value::Int(10), "{db} lost data");
            // And lives on a target machine only.
            let replicas = c.alive_replicas(&db).unwrap();
            assert_eq!(replicas.len(), 1);
            assert!(!plan.freed_machines.contains(&replicas[0]));
        }
        // Freed machines host nothing.
        for m in &plan.freed_machines {
            assert!(c.databases_on(*m).is_empty());
        }
    }

    #[test]
    fn rebalance_respects_anti_colocation() {
        let c = ClusterController::with_machines(ClusterConfig::for_tests(), 4);
        let mut demands = HashMap::new();
        for i in 0..2 {
            let db = format!("db{i}");
            c.create_database_on(&db, &[MachineId(i * 2), MachineId(i * 2 + 1)])
                .unwrap();
            c.ddl(&db, "CREATE TABLE t (id INT NOT NULL, PRIMARY KEY (id))")
                .unwrap();
            demands.insert(db, cap(1.0));
        }
        let plan = plan_rebalance(&c, &demands, cap(10.0)).unwrap();
        // Both dbs (2 replicas each) fit on 2 machines, one replica each.
        assert_eq!(plan.machines_after, 2);
        let applied =
            execute_rebalance(&c, &plan, CopyGranularity::TableLevel, Throttle::UNLIMITED).unwrap();
        let _ = applied;
        for i in 0..2 {
            let replicas = c.alive_replicas(&format!("db{i}")).unwrap();
            assert_eq!(replicas.len(), 2);
            assert_ne!(
                replicas[0], replicas[1],
                "replicas must stay on distinct machines"
            );
        }
    }

    #[test]
    fn well_packed_cluster_is_a_noop() {
        let c = ClusterController::with_machines(ClusterConfig::for_tests(), 2);
        let mut demands = HashMap::new();
        for i in 0..3 {
            let db = format!("db{i}");
            c.create_database_on(&db, &[MachineId(0)]).unwrap();
            demands.insert(db, cap(3.0));
        }
        let plan = plan_rebalance(&c, &demands, cap(10.0)).unwrap();
        assert!(plan.is_noop(), "{plan:?}");
        assert_eq!(plan.machines_after, 1);
    }

    #[test]
    fn infeasible_capacity_is_an_error() {
        let (c, demands) = scattered();
        assert!(plan_rebalance(&c, &demands, cap(2.0)).is_err());
    }

    #[test]
    fn observed_demands_reflect_usage() {
        let (c, _) = scattered();
        // db0 gets extra traffic.
        let conn = c.connect("db0").unwrap();
        for _ in 0..50 {
            conn.execute("SELECT COUNT(*) FROM t", &[]).unwrap();
        }
        let demands = observed_demands(&c);
        assert_eq!(demands.len(), 6);
        assert!(
            demands["db0"].cpu > demands["db1"].cpu,
            "busier database must show higher cpu demand"
        );
    }
}
