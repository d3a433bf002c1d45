//! Cluster machines: one commodity box running one single-node DBMS engine
//! plus the persistent worker pool that executes transactions against it.

use std::fmt;
use std::sync::Arc;

use tenantdb_history::{GTxn, Recorder};
use tenantdb_storage::{Engine, EngineConfig};

use crate::fault::FaultInjector;
use crate::metrics::PoolMetrics;
use crate::pool::{PoolConfig, WorkerPool};
use crate::worker::{new_session, SessionHandle, TxnShared};

/// Machine identifier within a cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MachineId(pub u32);

impl fmt::Display for MachineId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// A machine = id + its engine instance + its executor pool. Fault injection
/// goes through the engine (`crash` / `restart`); the controller observes
/// `Unavailable` errors exactly as it would observe dropped connections. The
/// pool's threads outlive every transaction — attaching a session to a
/// machine is a heap allocation, not a thread spawn.
pub struct Machine {
    /// This machine's cluster-wide identifier.
    pub id: MachineId,
    /// The single-node DBMS engine running on this machine.
    pub engine: Arc<Engine>,
    pool: WorkerPool,
    /// The cluster's fault injector (disarmed for standalone machines);
    /// sessions consult it at their crash points.
    faults: Arc<FaultInjector>,
}

impl Machine {
    /// A machine with the default pool sizing and no metrics.
    pub fn new(id: MachineId, cfg: EngineConfig) -> Self {
        Self::with_pool(id, cfg, PoolConfig::default())
    }

    /// A machine with explicit pool sizing (unobserved pool).
    pub fn with_pool(id: MachineId, cfg: EngineConfig, pool: PoolConfig) -> Self {
        Self::with_metrics(id, cfg, pool, None)
    }

    /// A machine whose pool reports scheduling metrics (the cluster
    /// controller resolves the handles against its registry).
    pub fn with_metrics(
        id: MachineId,
        cfg: EngineConfig,
        pool: PoolConfig,
        metrics: Option<PoolMetrics>,
    ) -> Self {
        Self::with_instrumentation(id, cfg, pool, metrics, FaultInjector::disarmed())
    }

    /// A fully instrumented machine: pool metrics plus the cluster's shared
    /// fault injector (threaded into the pool and every session). This is
    /// what [`crate::ClusterController::add_machine`] builds.
    pub fn with_instrumentation(
        id: MachineId,
        cfg: EngineConfig,
        pool: PoolConfig,
        metrics: Option<PoolMetrics>,
        faults: Arc<FaultInjector>,
    ) -> Self {
        Machine {
            id,
            engine: Arc::new(Engine::new(cfg)),
            pool: WorkerPool::with_instrumentation(
                "machine",
                pool,
                metrics,
                Some((Arc::clone(&faults), id)),
            ),
            faults,
        }
    }

    /// Attach a transaction's session (FIFO execution lane) to this machine.
    pub fn session(
        &self,
        gtxn: GTxn,
        shared: Arc<TxnShared>,
        recorder: Option<Arc<Recorder>>,
    ) -> SessionHandle {
        new_session(
            self.pool.shared(),
            self.id,
            Arc::clone(&self.engine),
            gtxn,
            shared,
            recorder,
            Arc::clone(&self.faults),
        )
    }

    /// The machine's executor pool (recovery reuses it for copy jobs).
    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// True while the machine is crashed (fault injection).
    pub fn is_failed(&self) -> bool {
        self.engine.is_failed()
    }
}

impl fmt::Debug for Machine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Machine")
            .field("id", &self.id)
            .field("failed", &self.is_failed())
            .field("databases", &self.engine.database_names())
            .field("pool_threads", &self.pool.live_threads())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machine_wraps_engine() {
        let m = Machine::new(MachineId(3), EngineConfig::for_tests());
        assert_eq!(m.id.to_string(), "m3");
        assert!(!m.is_failed());
        m.engine.create_database("a").unwrap();
        assert!(m.engine.has_database("a"));
        m.engine.crash();
        assert!(m.is_failed());
    }

    #[test]
    fn machine_pool_is_persistent() {
        let m = Machine::with_pool(
            MachineId(1),
            EngineConfig::for_tests(),
            PoolConfig::fixed(2),
        );
        assert_eq!(m.pool().live_threads(), 2);
        assert_eq!(m.pool().config(), PoolConfig::fixed(2));
    }
}
