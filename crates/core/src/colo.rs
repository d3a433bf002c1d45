//! Colos and colo controllers (§2).
//!
//! A colo is a set of machines in one physical location, organized into
//! clusters. The colo controller routes incoming database connections to the
//! cluster hosting the database, and manages a pool of free machines that it
//! adds to clusters as resource demands grow.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use tenantdb_cluster::sync::{LockClass, RwLock};
use tenantdb_cluster::{ClusterConfig, ClusterController, ClusterError};
use tenantdb_sla::ResourceVector;

/// Colo identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ColoId(pub u32);

impl fmt::Display for ColoId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "colo{}", self.0)
    }
}

/// `Colo::assignments` (see `system.rs` for the platform's ranks).
static COLO_ASSIGNMENTS: LockClass = LockClass::new("platform.colo.assignments", 8);

/// A colo: clusters + a fault-tolerant colo controller.
pub struct Colo {
    pub id: ColoId,
    pub name: String,
    /// Geographic position (abstract 2-D coordinates; the system controller
    /// routes clients to the nearest live colo).
    pub location: (f64, f64),
    clusters: Vec<Arc<ClusterController>>,
    /// Which cluster hosts each database.
    assignments: RwLock<HashMap<String, usize>>,
    failed: AtomicBool,
}

impl Colo {
    pub fn new(
        id: ColoId,
        name: impl Into<String>,
        location: (f64, f64),
        cluster_cfg: ClusterConfig,
        clusters: usize,
        machines_per_cluster: usize,
    ) -> Self {
        let clusters = (0..clusters.max(1))
            .map(|_| ClusterController::with_machines(cluster_cfg, machines_per_cluster))
            .collect();
        Colo {
            id,
            name: name.into(),
            location,
            clusters,
            assignments: RwLock::new(&COLO_ASSIGNMENTS, HashMap::new()),
            failed: AtomicBool::new(false),
        }
    }

    pub fn is_failed(&self) -> bool {
        // ordering: Acquire — pairs with the Release store in fail().
        self.failed.load(Ordering::Acquire)
    }

    /// Disaster: the whole colo goes dark.
    pub fn fail(&self) {
        // ordering: Release — publishes the colo failure to is_failed() observers.
        self.failed.store(true, Ordering::Release);
        for cluster in &self.clusters {
            for m in cluster.machines() {
                m.engine.crash();
            }
        }
    }

    pub fn databases_hosted(&self) -> usize {
        self.assignments.read().len()
    }

    /// The cluster hosting `db`, if this colo hosts it.
    pub fn cluster_for(&self, db: &str) -> Option<Arc<ClusterController>> {
        let idx = *self.assignments.read().get(db)?;
        Some(Arc::clone(&self.clusters[idx]))
    }

    /// Every cluster controller (experiments and inspection).
    pub fn clusters(&self) -> Vec<Arc<ClusterController>> {
        self.clusters.clone()
    }

    /// Create a database in this colo, on the cluster hosting the fewest
    /// databases. The cluster places the replicas (Algorithm 2, see
    /// [`ClusterController::create_database_with_demand`]); while no
    /// machine has room for `demand`, a machine comes from the colo's free
    /// pool and the placement is tried again. No demand counts as zero.
    pub fn create_database(
        &self,
        db: &str,
        replicas: usize,
        demand: Option<ResourceVector>,
    ) -> Result<(), ClusterError> {
        if self.is_failed() {
            return Err(ClusterError::NoMachines);
        }
        if self.assignments.read().contains_key(db) {
            return Err(ClusterError::AlreadyExists(db.to_string()));
        }
        let (idx, cluster) = self
            .clusters
            .iter()
            .enumerate()
            .min_by_key(|(_, c)| c.database_count())
            .expect("a colo has at least one cluster");
        let demand = demand.unwrap_or(ResourceVector::ZERO);
        if !demand.fits_in(&cluster.config().machine_capacity) {
            return Err(ClusterError::NoMachines);
        }
        // A pulled machine is empty and fits one replica, so `replicas`
        // pulls always make room.
        let mut placed = cluster.create_database_with_demand(db, replicas, demand);
        for _ in 0..replicas {
            if !matches!(placed, Err(ClusterError::NoMachines)) {
                break;
            }
            cluster.add_machine();
            placed = cluster.create_database_with_demand(db, replicas, demand);
        }
        placed?;
        self.assignments.write().insert(db.to_string(), idx);
        Ok(())
    }

    /// Total machines across clusters (capacity reporting).
    pub fn machine_count(&self) -> usize {
        self.clusters.iter().map(|c| c.machine_ids().len()).sum()
    }
}

impl fmt::Debug for Colo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Colo")
            .field("id", &self.id)
            .field("name", &self.name)
            .field("clusters", &self.clusters.len())
            .field("databases", &self.databases_hosted())
            .field("failed", &self.is_failed())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn colo() -> Colo {
        Colo::new(
            ColoId(1),
            "west",
            (0.0, 0.0),
            ClusterConfig {
                machine_capacity: ResourceVector::new(100.0, 10_000.0, 100.0, 10_000.0),
                ..ClusterConfig::for_tests()
            },
            2,
            3,
        )
    }

    /// Over half a machine: no two replicas share one.
    const BIG: ResourceVector = ResourceVector {
        cpu: 60.0,
        memory: 100.0,
        disk_io: 1.0,
        disk_size: 100.0,
    };

    #[test]
    fn databases_spread_across_clusters() {
        let c = colo();
        c.create_database("a", 2, None).unwrap();
        c.create_database("b", 2, None).unwrap();
        let ca = c.cluster_for("a").unwrap();
        let cb = c.cluster_for("b").unwrap();
        assert!(
            !Arc::ptr_eq(&ca, &cb),
            "least-loaded cluster choice must alternate"
        );
        assert_eq!(c.databases_hosted(), 2);
        assert!(c.cluster_for("missing").is_none());
    }

    #[test]
    fn duplicate_database_rejected() {
        let c = colo();
        c.create_database("a", 1, None).unwrap();
        assert!(matches!(
            c.create_database("a", 1, None),
            Err(ClusterError::AlreadyExists(_))
        ));
    }

    #[test]
    fn demand_based_placement_opens_machines_on_demand() {
        let c = colo();
        for i in 0..4 {
            c.create_database(&format!("d{i}"), 2, Some(BIG)).unwrap();
        }
        // 8 replicas, one per machine: each cluster's 3 machines hold 3,
        // and the free pool supplied one more to each.
        assert_eq!(c.machine_count(), 8);
        for i in 0..4 {
            let cl = c.cluster_for(&format!("d{i}")).unwrap();
            assert_eq!(cl.placement(&format!("d{i}")).unwrap().replicas.len(), 2);
        }
    }

    #[test]
    fn demand_lands_on_the_initial_machines_first() {
        let c = colo();
        c.create_database("d", 2, Some(BIG)).unwrap();
        assert_eq!(c.machine_count(), 6, "no machine pulled from the free pool");
    }

    #[test]
    fn a_dropped_database_frees_its_capacity() {
        let c = colo();
        c.create_database("d", 2, Some(BIG)).unwrap();
        let before = c.machine_count();
        c.cluster_for("d").unwrap().drop_database("d").unwrap();
        c.create_database("e", 2, Some(BIG)).unwrap();
        assert_eq!(
            c.machine_count(),
            before,
            "the dropped replicas' room is reused"
        );
    }

    #[test]
    fn failed_colo_rejects_creation() {
        let c = colo();
        c.fail();
        assert!(c.is_failed());
        assert!(c.create_database("x", 1, None).is_err());
    }

    /// A demand no machine can hold gets the answer
    /// `ControllerGroup::choose` gives for it, and leaves nothing behind.
    #[test]
    fn oversized_demand_fails_placement() {
        let c = colo();
        let demand = ResourceVector::new(1000.0, 1.0, 1.0, 1.0);
        assert_eq!(
            c.create_database("huge", 1, Some(demand)),
            Err(ClusterError::NoMachines)
        );
        assert_eq!(c.machine_count(), 6, "nothing pulled for it");
        assert!(c.cluster_for("huge").is_none());
        assert!(c.clusters().iter().all(|cl| cl.database_count() == 0));
    }
}
