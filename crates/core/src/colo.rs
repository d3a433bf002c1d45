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

use parking_lot::{Mutex, RwLock};

use tenantdb_cluster::{ClusterConfig, ClusterController, ClusterError, MachineId};
use tenantdb_sla::{DatabaseSpec, FirstFitPlacer, Placer, ResourceVector};

/// Colo identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ColoId(pub u32);

impl fmt::Display for ColoId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "colo{}", self.0)
    }
}

/// One cluster inside a colo, with its SLA-placement bookkeeping.
struct ClusterSlot {
    controller: Arc<ClusterController>,
    /// First-Fit placer over the machines it pulled into this cluster;
    /// placer bin index i maps to `machine_map[i]`.
    placer: Mutex<FirstFitPlacer>,
    machine_map: Mutex<Vec<MachineId>>,
}

/// A colo: clusters + a fault-tolerant colo controller.
pub struct Colo {
    pub id: ColoId,
    pub name: String,
    /// Geographic position (abstract 2-D coordinates; the system controller
    /// routes clients to the nearest live colo).
    pub location: (f64, f64),
    clusters: Vec<ClusterSlot>,
    /// Which cluster hosts each database.
    assignments: RwLock<HashMap<String, usize>>,
    failed: AtomicBool,
    /// Machine capacity assumed for SLA placement.
    machine_capacity: ResourceVector,
}

impl Colo {
    pub fn new(
        id: ColoId,
        name: impl Into<String>,
        location: (f64, f64),
        cluster_cfg: ClusterConfig,
        clusters: usize,
        machines_per_cluster: usize,
        machine_capacity: ResourceVector,
    ) -> Self {
        let clusters = (0..clusters.max(1))
            .map(|_| ClusterSlot {
                controller: ClusterController::with_machines(cluster_cfg, machines_per_cluster),
                placer: Mutex::new(FirstFitPlacer::new(machine_capacity)),
                machine_map: Mutex::new(Vec::new()),
            })
            .collect();
        Colo {
            id,
            name: name.into(),
            location,
            clusters,
            assignments: RwLock::new(HashMap::new()),
            failed: AtomicBool::new(false),
            machine_capacity,
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
        for slot in &self.clusters {
            for m in slot.controller.machines() {
                m.engine.crash();
            }
        }
    }

    pub fn databases_hosted(&self) -> usize {
        self.assignments.read().len()
    }

    pub fn machine_capacity(&self) -> ResourceVector {
        self.machine_capacity
    }

    /// The cluster hosting `db`, if this colo hosts it.
    pub fn cluster_for(&self, db: &str) -> Option<Arc<ClusterController>> {
        let idx = *self.assignments.read().get(db)?;
        Some(Arc::clone(&self.clusters[idx].controller))
    }

    /// Every cluster controller (experiments and inspection).
    pub fn clusters(&self) -> Vec<Arc<ClusterController>> {
        self.clusters
            .iter()
            .map(|s| Arc::clone(&s.controller))
            .collect()
    }

    /// Create a database in this colo.
    ///
    /// The hosting cluster is the least-loaded one. Within the cluster,
    /// machines are chosen by SLA-driven First-Fit when a demand vector is
    /// known (Algorithm 2), falling back to fewest-databases otherwise; the
    /// placer pulls fresh machines from the colo's free pool on demand.
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
        // Least-loaded cluster by hosted database count.
        let counts: Vec<usize> = {
            let a = self.assignments.read();
            let mut v = vec![0usize; self.clusters.len()];
            for &c in a.values() {
                v[c] += 1;
            }
            v
        };
        let idx = counts
            .iter()
            .enumerate()
            .min_by_key(|(_, &n)| n)
            .map(|(i, _)| i)
            .unwrap_or(0);
        let slot = &self.clusters[idx];

        match demand {
            Some(demand) => {
                let spec = DatabaseSpec::new(db, demand, replicas);
                let mut placer = slot.placer.lock();
                let mut map = slot.machine_map.lock();
                let bins = placer
                    .place(&spec)
                    .map_err(|e| ClusterError::TxnAborted(format!("placement failed: {e}")))?;
                // Ensure every chosen bin is backed by a real machine.
                let mut machines = Vec::with_capacity(bins.len());
                for b in bins {
                    while map.len() <= b {
                        // Pull a machine from the free pool into the cluster.
                        map.push(slot.controller.add_machine());
                    }
                    machines.push(map[b]);
                }
                slot.controller.create_database_on(db, &machines)?;
            }
            None => {
                // Fewest hosted databases, over every machine of the cluster.
                // The placer above never sees these placements: its machine
                // map starts empty, so a demand-placed database lands only on
                // machines this placer opened, never on the cluster's initial
                // ones (ROADMAP item 18 makes the two one choice).
                slot.controller.create_database(db, replicas)?;
            }
        }
        self.assignments.write().insert(db.to_string(), idx);
        Ok(())
    }

    /// Total machines across clusters (capacity reporting).
    pub fn machine_count(&self) -> usize {
        self.clusters
            .iter()
            .map(|s| s.controller.machine_ids().len())
            .sum()
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
            ClusterConfig::for_tests(),
            2,
            3,
            ResourceVector::new(100.0, 10_000.0, 100.0, 10_000.0),
        )
    }

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
        // Each database demands over half a machine: anti-colocation + the
        // 100-cpu capacity forces one machine per replica.
        let demand = ResourceVector::new(60.0, 100.0, 1.0, 100.0);
        let before = c.machine_count();
        for i in 0..4 {
            c.create_database(&format!("d{i}"), 2, Some(demand))
                .unwrap();
        }
        // 8 replicas at 60 cpu each on 100-cpu machines -> 8 machines needed
        // in the placing cluster(s); the free pool supplied the extras.
        assert!(c.machine_count() >= before, "machines never shrink");
        for i in 0..4 {
            let cl = c.cluster_for(&format!("d{i}")).unwrap();
            assert_eq!(cl.placement(&format!("d{i}")).unwrap().replicas.len(), 2);
        }
    }

    #[test]
    fn failed_colo_rejects_creation() {
        let c = colo();
        c.fail();
        assert!(c.is_failed());
        assert!(c.create_database("x", 1, None).is_err());
    }

    #[test]
    fn oversized_demand_fails_placement() {
        let c = colo();
        let demand = ResourceVector::new(1000.0, 1.0, 1.0, 1.0);
        assert!(c.create_database("huge", 1, Some(demand)).is_err());
    }
}
