//! The cluster controller (§2–§3 of the paper).
//!
//! The controller routes client connections, coordinates read-one/write-all
//! replication with 2PC, and tracks the Algorithm 1 copy state during
//! replica recovery. Clients never talk to a machine directly — they talk
//! to a [`crate::connection::Connection`] obtained from
//! [`ClusterController::connect`].
//!
//! All controller *metadata* — the database→machine placement map, the
//! Algorithm-1 copy table, the 2PC decision log and the SLA table — lives
//! in the replicated [`ControllerGroup`] (see `meta.rs` and DESIGN.md §12).
//! This type is the thin leader-side API over that group: it adds the
//! side-effecting parts (engine calls, metric bumps, event emission) that
//! must happen exactly once, never once-per-replica.

use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use crate::sync::{RouteBarrier, RouteGuard, RwLock, CTRL_MACHINES, CTRL_RECORDER};

use tenantdb_history::{GTxn, Recorder};
use tenantdb_sql::{parse, Plan};
use tenantdb_storage::{EngineConfig, TxnId};

use crate::connection::Connection;
use crate::error::{ClusterError, Result};
use crate::fault::{CrashPoint, FaultAction, FaultInjector};
use crate::machine::{Machine, MachineId};
use crate::meta::{AbortArbitration, ControllerGroup, CtrlStatus, DecisionLog, MachineTally};
use crate::metrics::{ClusterMetrics, DbCounters, PoolMetrics};
use crate::plans::PlanCache;
use crate::pool::PoolConfig;
use tenantdb_obs::fields;
use tenantdb_sla::ResourceVector;

/// The three read-routing options of §3.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReadPolicy {
    /// Option 1: all reads for a database go to one pinned replica.
    PinnedReplica,
    /// Option 2: all reads of one transaction go to one (per-txn random)
    /// replica.
    PerTransaction,
    /// Option 3: every read picks a replica independently.
    PerOperation,
}

/// Write acknowledgement policy of §3.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WritePolicy {
    /// Wait for every replica to acknowledge before returning to the client.
    /// Serializable under all read options (Theorem 2).
    Conservative,
    /// Return after the first replica acknowledges; remaining replicas
    /// execute in the background. Serializable only under Option 1
    /// (Theorem 1) — options 2/3 can produce non-1SR executions (Table 1).
    Aggressive,
}

/// Cluster construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct ClusterConfig {
    /// How client reads are routed across replicas (§3.1 Options 1/2/3).
    pub read_policy: ReadPolicy,
    /// How many replica acks a write waits for (§3.1).
    pub write_policy: WritePolicy,
    /// Configuration for every machine's engine.
    pub engine: EngineConfig,
    /// Sizing of every machine's persistent worker pool.
    pub pool: PoolConfig,
    /// Seed for replica-choice randomness (reproducible experiments).
    pub seed: u64,
    /// Number of replicated controller nodes holding the cluster metadata
    /// (min 1). With 1 (the default) the single node self-elects and every
    /// metadata write commits instantly; with 2f+1 the metadata survives f
    /// controller crashes via leader election (DESIGN.md §12).
    pub controllers: usize,
    /// Every machine's capacity: placement fits each replica's demand into
    /// it (Algorithm 2).
    pub machine_capacity: ResourceVector,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            read_policy: ReadPolicy::PinnedReplica,
            write_policy: WritePolicy::Conservative,
            engine: EngineConfig::default(),
            pool: PoolConfig::default(),
            seed: 42,
            controllers: 1,
            machine_capacity: ResourceVector::new(1000.0, 100_000.0, 1000.0, 100_000.0),
        }
    }
}

impl ClusterConfig {
    /// Defaults with a fast-timeout engine configuration for tests.
    pub fn for_tests() -> Self {
        ClusterConfig {
            engine: EngineConfig::for_tests(),
            ..Default::default()
        }
    }

    /// Set the per-machine worker-pool sizing (builder style).
    pub fn with_pool(mut self, pool: PoolConfig) -> Self {
        self.pool = pool;
        self
    }

    /// Set the controller replica count (builder style).
    pub fn with_controllers(mut self, controllers: usize) -> Self {
        self.controllers = controllers;
        self
    }
}

/// Where a database's replicas live.
#[derive(Debug, Clone)]
pub struct Placement {
    /// Machines holding a synchronous replica.
    pub replicas: Vec<MachineId>,
    /// The replica that Option 1 pins all reads to.
    pub pinned: MachineId,
    /// What each replica demands of its machine (`ResourceVector::ZERO`
    /// when none was declared).
    pub demand: ResourceVector,
}

/// Algorithm 1 state for a database whose new replica is being created.
#[derive(Debug, Clone)]
pub struct CopyProgress {
    /// The machine being copied *to* (m′ in the paper).
    pub target: MachineId,
    /// Tables already copied (T in the paper) — writes go to all machines
    /// including the target.
    pub copied: HashSet<String>,
    /// The table currently being copied (t′) — writes are rejected.
    pub current: Option<String>,
    /// Database-level granularity: the whole database is read-locked for the
    /// duration, so every write is rejected.
    pub db_level: bool,
}

/// Result of [`ClusterController::takeover`].
#[derive(Debug, Default, PartialEq, Eq)]
pub struct TakeoverReport {
    /// Decided transactions whose COMMIT the takeover completed.
    pub completed: Vec<GTxn>,
    /// In-doubt (prepared, undecided) local transactions aborted, as
    /// (machine, count).
    pub aborted_in_doubt: Vec<(MachineId, usize)>,
}

/// The cluster controller.
pub struct ClusterController {
    pub(crate) cfg: ClusterConfig,
    machines: RwLock<BTreeMap<MachineId, Arc<Machine>>>,
    next_machine: AtomicU32,
    /// The replicated metadata group: placement map, copy table, 2PC
    /// decision log and SLA table all live here (DESIGN.md §12). Every
    /// metadata write below is a command proposed to this group's leader.
    group: ControllerGroup,
    /// Algorithm-1 routing barrier (RCU-style epoch counter). Write
    /// statements hold the read side from routing until the last replica
    /// ack, so [`Self::quiesce_routing`] can wait out every statement
    /// routed with pre-transition copy state before the replica copy dumps
    /// a table. Entering never blocks — a reader-blocking barrier would
    /// close a deadlock cycle spanning the barrier and the engines' 2PL
    /// lock tables (see [`RouteBarrier`]). See DESIGN.md §5.
    route_barrier: RouteBarrier,
    next_gtxn: AtomicU64,
    pub(crate) recorder: RwLock<Option<Arc<Recorder>>>,
    /// Per-database plan caches: SQL text → bound plan (see `plans.rs`).
    plans: PlanCache,
    /// The cluster's metrics surface: outcome counters, latency histograms
    /// and the structured event log all live here — there is no second
    /// ledger (the pre-observability controller kept its own
    /// `HashMap<String, DbCounters>`; the registry is now the only store).
    metrics: ClusterMetrics,
    /// Shared fault injector, threaded into every machine, pool and session.
    /// Disarmed (inert) unless a test arms a [`crate::fault::FaultPlan`].
    faults: Arc<FaultInjector>,
    /// Per-database SLA admission gates (§4 proactive rejection). Inert —
    /// one atomic load on the transaction entry path — until an SLA is
    /// installed via [`Self::set_sla`].
    admission: crate::admission::AdmissionTable,
    /// Cross-colo write authority: the fencing epoch at which this cluster
    /// was last authorized as a primary (0 = the initial primary). Writes
    /// are rejected once a higher epoch is observed ([`Self::fence_geo`]).
    geo_write_epoch: AtomicU64,
    /// Fast-path cache of the highest fencing epoch durably observed via
    /// [`Self::fence_geo`] / [`Self::assume_geo_epoch`]. The durable copy
    /// lives in the replicated metadata group; this cache keeps the
    /// per-write check to one relaxed atomic load.
    geo_fence_cache: AtomicU64,
}

impl ClusterController {
    /// A controller with no machines yet (add them via [`Self::add_machine`]).
    pub fn new(cfg: ClusterConfig) -> Arc<Self> {
        let faults = FaultInjector::disarmed();
        let metrics = ClusterMetrics::new();
        Arc::new(ClusterController {
            machines: RwLock::new(&CTRL_MACHINES, BTreeMap::new()),
            next_machine: AtomicU32::new(0),
            group: ControllerGroup::new(
                cfg.controllers,
                cfg.seed,
                cfg.machine_capacity,
                Arc::clone(&faults),
            ),
            route_barrier: RouteBarrier::new(),
            next_gtxn: AtomicU64::new(1),
            recorder: RwLock::new(&CTRL_RECORDER, None),
            plans: PlanCache::new(&metrics),
            metrics,
            faults,
            cfg,
            admission: crate::admission::AdmissionTable::new(),
            geo_write_epoch: AtomicU64::new(0),
            geo_fence_cache: AtomicU64::new(0),
        })
    }

    /// Convenience: a controller with `n` machines already added.
    pub fn with_machines(cfg: ClusterConfig, n: usize) -> Arc<Self> {
        let c = Self::new(cfg);
        for _ in 0..n {
            c.add_machine();
        }
        c
    }

    /// The configuration this cluster was built with.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// Attach a history recorder (Table 1 experiments). Recording adds
    /// overhead; leave unset for throughput runs.
    pub fn set_recorder(&self, rec: Option<Arc<Recorder>>) {
        *self.recorder.write() = rec;
    }

    /// Mint the next global transaction id.
    pub fn next_gtxn(&self) -> GTxn {
        // ordering: Relaxed — id minting; uniqueness needs only atomicity.
        GTxn(self.next_gtxn.fetch_add(1, Ordering::Relaxed))
    }

    // ------------------------------------------------------------ machines

    /// Add a fresh machine (from the colo's free pool) to the cluster.
    pub fn add_machine(&self) -> MachineId {
        // ordering: Relaxed — id minting; uniqueness needs only atomicity.
        let id = MachineId(self.next_machine.fetch_add(1, Ordering::Relaxed));
        let pool_metrics = PoolMetrics::resolve(self.metrics.registry(), "machine", Some(id));
        let m = Arc::new(Machine::with_instrumentation(
            id,
            self.cfg.engine,
            self.cfg.pool,
            Some(pool_metrics),
            Arc::clone(&self.faults),
        ));
        self.machines.write().insert(id, m);
        id
    }

    /// Look up a machine by id.
    pub fn machine(&self, id: MachineId) -> Result<Arc<Machine>> {
        self.machines
            .read()
            .get(&id)
            .cloned()
            .ok_or(ClusterError::NoMachines)
    }

    /// Every machine id in the cluster, ascending.
    pub fn machine_ids(&self) -> Vec<MachineId> {
        self.machines.read().keys().copied().collect()
    }

    /// Every machine in the cluster, ascending by id.
    pub fn machines(&self) -> Vec<Arc<Machine>> {
        self.machines.read().values().cloned().collect()
    }

    /// The ids of the machines that are up, ascending.
    fn alive_machine_ids(&self) -> Vec<MachineId> {
        self.machines
            .read()
            .values()
            .filter(|m| !m.is_failed())
            .map(|m| m.id)
            .collect()
    }

    /// What the placements and copies in flight put on `machine`, read
    /// from the replicated metadata.
    pub fn tally(&self, machine: MachineId) -> MachineTally {
        self.group.tally(machine)
    }

    /// Resolve the `(source, target)` machine pair for a replica copy of
    /// `db` in one short controller step: the first alive replica is the
    /// copy source. Cloning the `Arc`s out of the machine map here is what
    /// lets the bulk copy in `recovery::create_replica` run without any
    /// controller lock held (asserted there via
    /// [`crate::sync::assert_no_controller_locks`]).
    pub fn copy_endpoints(
        &self,
        db: &str,
        target: MachineId,
    ) -> Result<(Arc<Machine>, Arc<Machine>)> {
        let source_id = self
            .alive_replicas(db)?
            .first()
            .copied()
            .ok_or_else(|| ClusterError::NoReplicas(db.to_string()))?;
        Ok((self.machine(source_id)?, self.machine(target)?))
    }

    /// Fault injection: crash a machine. The controller notices through
    /// `Unavailable` errors, exactly as with a real power failure.
    ///
    /// Idempotent: failing a machine that is already failed is a no-op that
    /// returns `Ok` — the operator's view ("that box is down") is already
    /// true, and a second power failure of a dead box changes nothing. Only
    /// the alive→failed transition emits a `machine_failed` event, so the
    /// event log counts real failures, not repeated commands. Unknown
    /// machine ids still error (`NoMachines`).
    pub fn fail_machine(&self, id: MachineId) -> Result<()> {
        let m = self.machine(id)?;
        if m.is_failed() {
            return Ok(());
        }
        m.engine.crash();
        self.metrics
            .events()
            .emit("machine_failed", fields![("machine", id)]);
        Ok(())
    }

    /// The cluster's shared [`FaultInjector`]; arm a
    /// [`crate::fault::FaultPlan`] on it to schedule precise crash-point
    /// faults (see the `tenantdb-sim` crate). Disarmed by default.
    pub fn faults(&self) -> &Arc<FaultInjector> {
        &self.faults
    }

    /// Restart a crashed machine. Its engine replays the WAL, but the
    /// machine does NOT automatically rejoin replica sets — recovery decides.
    ///
    /// Before replay, in-doubt local transactions (prepared, never resolved
    /// — the machine died between its PREPARE vote and the COMMIT) are
    /// checked against the mirrored 2PC decision log: a decided commit is
    /// written to the WAL so the redo pass applies it. Without this, a
    /// client-acknowledged commit would silently vanish from a replica that
    /// crashed inside the commit window and restarted.
    pub fn restart_machine(&self, id: MachineId) -> Result<()> {
        let m = self.machine(id)?;
        let in_doubt: HashSet<TxnId> = m.engine.in_doubt().into_iter().collect();
        if !in_doubt.is_empty() {
            for (gtxn, participants) in self.group.decisions() {
                for (pm, local) in participants {
                    if pm == id && in_doubt.contains(&local) {
                        // Claim through the group before writing the local
                        // COMMIT: the claim is a replicated point of no
                        // return that a concurrent coordinator abort
                        // arbitration must observe. A claim that comes
                        // back false means the decision was arbitrated
                        // away — replay then aborts the prepared txn. If
                        // the group has no quorum the claim cannot commit,
                        // but neither can a new abort tombstone, so
                        // trusting the mirrored read is safe.
                        if self.group.claim_decision(gtxn).unwrap_or(true) {
                            m.engine.resolve_in_doubt_commit(local);
                            self.group.resolve_participant(gtxn, pm);
                        }
                    }
                }
            }
        }
        m.engine.restart();
        self.metrics
            .events()
            .emit("machine_restarted", fields![("machine", id)]);
        Ok(())
    }

    // ----------------------------------------------------------- databases

    /// Create a database with `replicas` synchronous replicas and no
    /// declared demand (see [`Self::create_database_with_demand`]).
    pub fn create_database(&self, name: &str, replicas: usize) -> Result<Vec<MachineId>> {
        self.create_database_with_demand(name, replicas, ResourceVector::ZERO)
    }

    /// Create a database with `replicas` synchronous replicas, each
    /// demanding `demand`, on the machines `ControllerGroup::choose`
    /// picks: those with room for `demand`, fewest hosted databases first.
    /// `NoMachines` when fewer than `replicas` machines have room.
    pub fn create_database_with_demand(
        &self,
        name: &str,
        replicas: usize,
        demand: ResourceVector,
    ) -> Result<Vec<MachineId>> {
        let chosen = self
            .group
            .choose(name, replicas, demand, &self.alive_machine_ids())?;
        self.create_on(name, &chosen, demand)?;
        Ok(chosen)
    }

    /// Create a database on an explicit machine set (experiments control
    /// placement directly).
    pub fn create_database_on(&self, name: &str, machine_ids: &[MachineId]) -> Result<()> {
        self.create_on(name, machine_ids, ResourceVector::ZERO)
    }

    fn create_on(
        &self,
        name: &str,
        machine_ids: &[MachineId],
        demand: ResourceVector,
    ) -> Result<()> {
        // Geo fence: creating a database is a write.
        self.check_geo_fence()?;
        if self.group.placement(name).is_some() {
            return Err(ClusterError::AlreadyExists(name.to_string()));
        }
        if machine_ids.is_empty() {
            return Err(ClusterError::NoMachines);
        }
        for &id in machine_ids {
            self.machine(id)?.engine.create_database(name)?;
        }
        // The group picks the pinned replica (fewest pins) from its applied
        // state inside the proposal, so Option-1 read traffic spreads evenly
        // even when placements race.
        let created = self.group.create_db(name, machine_ids, demand);
        if created.result.is_err() && !created.proposed {
            // The placement can never commit: take back the engine
            // databases made for it, or the next create of `name` on these
            // machines would collide with them.
            for &id in machine_ids {
                if let Ok(m) = self.machine(id) {
                    let _ = m.engine.drop_database(name);
                }
            }
        }
        created.result
    }

    /// Drop a database: remove it from every replica and the placement map.
    pub fn drop_database(&self, db: &str) -> Result<()> {
        // Geo fence: dropping a database is a write.
        self.check_geo_fence()?;
        let placement = self.group.drop_db(db)?;
        for id in placement.replicas {
            if let Ok(m) = self.machine(id) {
                let _ = m.engine.drop_database(db);
            }
        }
        self.admission.remove(db);
        self.plans.invalidate(db);
        Ok(())
    }

    /// Where a database's replicas live (error if the database is unknown).
    pub fn placement(&self, db: &str) -> Result<Placement> {
        self.group
            .placement(db)
            .ok_or_else(|| ClusterError::NoSuchDatabase(db.to_string()))
    }

    /// Every database name hosted by the cluster, sorted.
    pub fn database_names(&self) -> Vec<String> {
        self.group.database_names()
    }

    /// How many databases the cluster hosts.
    pub fn database_count(&self) -> usize {
        self.group.database_count()
    }

    /// Replicas whose machines are currently up.
    pub fn alive_replicas(&self, db: &str) -> Result<Vec<MachineId>> {
        let p = self.placement(db)?;
        Ok(self.alive_of(&p))
    }

    /// Filter a placement's replicas down to machines that are up.
    pub(crate) fn alive_of(&self, placement: &Placement) -> Vec<MachineId> {
        let machines = self.machines.read();
        placement
            .replicas
            .iter()
            .copied()
            .filter(|id| machines.get(id).is_some_and(|m| !m.is_failed()))
            .collect()
    }

    /// Placement and in-flight copy state for `db`, read atomically from
    /// one applied-state snapshot of the metadata group. Statement routing
    /// must use this (not separate `placement` + `copy_progress` calls):
    /// two reads can straddle a copy-state transition and produce a
    /// placement/copy pair that never coexisted, which mis-routes the
    /// write past the Algorithm-1 copy.
    pub(crate) fn route_info(&self, db: &str) -> Result<(Placement, Option<CopyProgress>)> {
        self.group
            .route_info(db)
            .ok_or_else(|| ClusterError::NoSuchDatabase(db.to_string()))
    }

    /// Enter the routing grace period: the guard must be held from reading
    /// [`Self::route_info`] until the statement's last replica ack, so a
    /// concurrent [`Self::quiesce_routing`] cannot complete while any
    /// statement routed with the old copy state is still in flight.
    /// Entering never blocks, even while a quiesce is draining.
    pub(crate) fn route_guard(&self) -> RouteGuard<'_> {
        self.route_barrier.enter()
    }

    /// Drain every write statement routed with pre-transition copy state
    /// (RCU-style grace period: flip the barrier's epoch and wait for the
    /// readers that entered under the previous one). The replica copy
    /// calls this after each copy-state tightening (`begin_copy`,
    /// `set_copy_current`) and **before** dumping, so any write routed to
    /// the old replica set alone has already applied — and 2PL then
    /// guarantees the dump's scan observes it or blocks on its lock until
    /// commit. Loosening transitions (`mark_copied`, `finish_copy`) need
    /// no drain: statements that read the pre-state are rejected by the
    /// copy filter rather than mis-routed.
    pub(crate) fn quiesce_routing(&self) {
        self.route_barrier.quiesce();
    }

    /// Databases that have a replica on `machine` (recovery work list).
    pub fn databases_on(&self, machine: MachineId) -> Vec<String> {
        self.group.databases_on(machine)
    }

    /// Remove a (failed) replica from a database's placement (repinning if
    /// the pinned replica was removed).
    pub fn remove_replica(&self, db: &str, machine: MachineId) {
        self.group.remove_replica(db, machine, false);
    }

    /// Failure masking: drop `db`'s replica on a machine that stopped
    /// answering. Unlike [`Self::remove_replica`] the database stays on the
    /// machine's recovery list, so `recover_machine` still re-creates it.
    pub(crate) fn drop_failed_replica(&self, db: &str, machine: MachineId) {
        self.group.remove_replica(db, machine, true);
    }

    /// Begin recovering `machine`: serve from the survivors immediately and
    /// return every database that had a replica on it when it failed.
    pub(crate) fn detach_machine(&self, machine: MachineId) -> Vec<String> {
        self.group.detach_machine(machine)
    }

    /// Add a (recovered) replica to a database's placement.
    pub fn add_replica(&self, db: &str, machine: MachineId) {
        self.group.add_replica(db, machine);
    }

    /// The plan of `sql` in `db`: from the database's plan cache, or parsed
    /// and bound now against a full replica's schema (every replica has
    /// the same one) and cached for every later session and replica.
    pub(crate) fn plan_for(&self, db: &str, sql: &str) -> Result<Arc<Plan>> {
        self.plans.get_or_bind(db, sql, || {
            let stmt = parse(sql)?;
            let (placement, copy) = self.route_info(db)?;
            // As for reads: the target of a copy is not a full replica yet.
            // With no replica up, a dead one's catalog still binds the
            // statement, and routing then reports why it cannot run (no
            // replicas, geo fence) exactly as it always did.
            let replica = self
                .alive_of(&placement)
                .into_iter()
                .find(|m| copy.as_ref().is_none_or(|c| c.target != *m))
                .or_else(|| placement.replicas.first().copied())
                .ok_or_else(|| ClusterError::NoReplicas(db.into()))?;
            Ok(tenantdb_sql::plan(
                &self.machine(replica)?.engine,
                db,
                &stmt,
            )?)
        })
    }

    /// Run a DDL statement (CREATE TABLE / CREATE INDEX) on every replica.
    pub fn ddl(&self, db: &str, sql: &str) -> Result<()> {
        let plan = self.plan_for(db, sql)?;
        if plan.class() != tenantdb_sql::StatementClass::Ddl {
            return Err(ClusterError::Sql(tenantdb_sql::SqlError::Plan(
                "ddl() accepts only CREATE TABLE / CREATE INDEX".into(),
            )));
        }
        self.apply_ddl(db, &plan)
    }

    /// The one DDL path, behind [`Self::ddl`] and a connection's DDL
    /// statements: geo fence → routing barrier → copy check → per-replica
    /// apply → drop the database's cached plans.
    pub(crate) fn apply_ddl(&self, db: &str, plan: &Plan) -> Result<()> {
        // Geo fence: DDL is a write.
        self.check_geo_fence()?;
        // DDL broadcasts like a write: hold the routing barrier across the
        // copy-state check and the per-replica apply, so a replica copy
        // cannot start dumping in between (a table created on the old
        // replicas after the dump listed tables would silently never reach
        // the copy target).
        let _route = self.route_guard();
        let (placement, copy) = self.route_info(db)?;
        let replicas = self.alive_of(&placement);
        if replicas.is_empty() {
            return Err(ClusterError::NoReplicas(db.into()));
        }
        if copy.is_some() {
            self.metrics.note_write_rejected(db, "<ddl>");
            return Err(ClusterError::WriteRejected {
                db: db.into(),
                table: "<ddl>".into(),
            });
        }
        let applied = replicas.into_iter().try_for_each(|id| {
            let machine = self.machine(id)?;
            let txn = machine.engine.begin()?;
            let r = tenantdb_sql::run(&machine.engine, txn, plan, &[]);
            machine.engine.commit(txn)?;
            r?;
            Ok(())
        });
        // After the last replica, whatever the outcome: a plan bound while
        // the DDL was applying saw a schema no older than the one cached
        // plans were bound against, and all of those are dropped here.
        self.plans.invalidate(db);
        applied
    }

    /// Open a client connection to a database.
    pub fn connect(self: &Arc<Self>, db: &str) -> Result<Connection> {
        // Validate existence eagerly so clients fail fast.
        self.placement(db)?;
        Ok(Connection::new(Arc::clone(self), db.to_string()))
    }

    // ------------------------------------------------- Algorithm 1 state

    /// Begin tracking a replica copy for `db` onto `target`, or, with none
    /// given, onto the machine `ControllerGroup::choose` picks inside the
    /// `BeginCopy` proposal. Returns the copy's target.
    pub fn begin_copy(
        &self,
        db: &str,
        target: Option<MachineId>,
        db_level: bool,
    ) -> Result<MachineId> {
        let target = self
            .group
            .begin_copy(db, target, &self.alive_machine_ids(), db_level)?;
        self.metrics.copies_in_flight.inc();
        self.metrics.events().emit(
            "copy_begin",
            fields![
                ("db", db),
                ("target", target),
                ("granularity", if db_level { "database" } else { "table" }),
            ],
        );
        Ok(target)
    }

    /// Mark the table currently being copied (t′).
    pub fn set_copy_current(&self, db: &str, table: Option<&str>) {
        self.group.set_copy_current(db, table);
        if let Some(t) = table {
            self.metrics
                .events()
                .emit("copy_table_begin", fields![("db", db), ("table", t)]);
        }
    }

    /// Move a table into the copied set (T).
    pub fn mark_copied(&self, db: &str, table: &str) {
        self.group.mark_copied(db, table);
        self.metrics
            .registry()
            .counter(crate::metrics::RECOVERY_TABLES_COPIED, &[("db", db)])
            .inc();
        self.metrics
            .events()
            .emit("copy_table_done", fields![("db", db), ("table", table)]);
    }

    /// Copy complete: the target becomes a full replica (the group's
    /// `FinishCopy` command folds the target into the replica set).
    pub fn finish_copy(&self, db: &str) {
        if let Some(c) = self.group.finish_copy(db) {
            self.metrics.copies_in_flight.dec();
            self.metrics.events().emit(
                "copy_finish",
                fields![
                    ("db", db),
                    ("target", c.target),
                    ("tables_copied", c.copied.len()),
                ],
            );
        }
    }

    /// Abandon a copy (e.g. the target failed mid-copy).
    pub fn abandon_copy(&self, db: &str) {
        if self.group.abandon_copy(db) {
            self.metrics.copies_in_flight.dec();
            self.metrics
                .events()
                .emit("copy_abandon", fields![("db", db)]);
        }
    }

    /// The Algorithm-1 copy state for `db`, if a copy is in flight.
    pub fn copy_progress(&self, db: &str) -> Option<CopyProgress> {
        self.group.copy_progress(db)
    }

    // ------------------------------------------------ replicated decisions

    /// Replicate a 2PC commit decision to the controller group.
    /// [`DecisionLog::Durable`] means the decision is on a controller
    /// quorum — only then may any participant COMMIT go out (DESIGN.md
    /// §12). The failure shapes distinguish a decision that definitively
    /// does not exist from one that may still commit.
    pub(crate) fn log_decision(
        &self,
        gtxn: GTxn,
        participants: Vec<(MachineId, TxnId)>,
    ) -> DecisionLog {
        self.group.log_decision(gtxn, participants)
    }

    /// Arbitrate an ambiguously-logged decision: propose an abort
    /// tombstone and learn whether the commit stands (see
    /// [`ControllerGroup::abort_decision`]).
    pub(crate) fn abort_decision(&self, gtxn: GTxn) -> AbortArbitration {
        self.group.abort_decision(gtxn)
    }

    /// Drop a fully-delivered commit decision (best-effort: losing the
    /// resolution only risks a harmless re-commit during takeover).
    pub(crate) fn resolve_decision(&self, gtxn: GTxn) {
        self.group.resolve_decision(gtxn);
    }

    /// Every unresolved 2PC decision with its unresolved participants —
    /// the [`Self::takeover`] work list.
    pub fn decisions(&self) -> Vec<(GTxn, Vec<(MachineId, TxnId)>)> {
        self.group.decisions()
    }

    /// Clean up the transactions a dead 2PC coordinator left in transit —
    /// the paper's §2 "process pair" takeover ("the backup ... cleans up
    /// the transactions in transit as part of its take-over processing").
    /// The pair's mirrored state is the replicated decision log (DESIGN.md
    /// §12): a commit decision is quorum-durable *before* any COMMIT goes
    /// to a participant, so whichever controller replica leads can:
    ///
    /// 1. **complete** every decided commit — participants are prepared and
    ///    must not be left in doubt;
    /// 2. **abort** every other prepared (in-doubt) local transaction on
    ///    the live machines — no decision exists, so abort is the safe
    ///    outcome.
    ///
    /// This is an explicit call, not an election side effect: in this
    /// in-process model coordinators are client threads that *survive* a
    /// controller-leader loss, and step 2 run on election would abort their
    /// live in-flight transactions. Call it once the coordinators are gone
    /// (clients then re-establish their connections).
    pub fn takeover(&self) -> TakeoverReport {
        let mut report = TakeoverReport::default();

        for (gtxn, participants) in self.group.decisions() {
            // Claim through the group before acting: a coordinator whose
            // decision ack was lost may be arbitrating an abort tombstone
            // concurrently, and the claim is the replicated point of no
            // return it must observe. A false claim means the decision was
            // arbitrated away — its prepared participants fall through to
            // the in-doubt abort pass below. Without a quorum neither a
            // claim nor a tombstone can commit, so trusting the mirrored
            // read is safe.
            if !self.group.claim_decision(gtxn).unwrap_or(true) {
                continue;
            }
            for (machine, local) in participants {
                let Ok(m) = self.machine(machine) else {
                    continue;
                };
                // Crash point: a participant can die in the instant the
                // takeover reaches for it — the commit below then fails
                // like any other down-machine commit.
                match self.faults.check(CrashPoint::TakeoverCommit, machine) {
                    Some(FaultAction::Crash) => m.engine.crash(),
                    Some(FaultAction::Delay(d)) => std::thread::sleep(d),
                    None => {}
                }
                // Errors from an already-finished local transaction are
                // ignored. A *down* participant is different: it still
                // holds the transaction prepared in its WAL and must learn
                // the decision when it restarts, so its entry stays
                // unresolved in the replicated log (restart_machine
                // resolves it) instead of being dropped here.
                if m.engine.commit(local).is_ok() || !m.is_failed() {
                    self.group.resolve_participant(gtxn, machine);
                }
            }
            report.completed.push(gtxn);
        }
        report.completed.sort();

        for machine in self.machines() {
            if machine.is_failed() {
                continue;
            }
            let aborted = machine
                .engine
                .in_doubt()
                .into_iter()
                .filter(|&txn| machine.engine.abort(txn).is_ok())
                .count();
            if aborted > 0 {
                report.aborted_in_doubt.push((machine.id, aborted));
            }
        }
        report.aborted_in_doubt.sort();
        report
    }

    // -------------------------------------------------------- SLA registry

    /// Record `db`'s SLA in the replicated metadata (§4.1 contract table).
    pub fn set_sla(&self, db: &str, sla: tenantdb_sla::Sla) -> Result<()> {
        self.group.set_sla(db, sla)?;
        self.admission.install(db, &sla);
        Ok(())
    }

    /// Turn SLA admission enforcement on or off cluster-wide. Gates (and
    /// their token state) stay installed; `false` just admits everything.
    /// The tenant-scale harness uses this to demonstrate the §4 starvation
    /// the gate exists to prevent.
    pub fn set_admission_enabled(&self, on: bool) {
        self.admission.set_enabled(on);
    }

    /// Is SLA admission enforcement currently on? (It is by default; it
    /// only matters once some database has an SLA installed.)
    pub fn admission_enabled(&self) -> bool {
        self.admission.enabled()
    }

    /// Admission-control a new transaction on `db` (§4 proactive
    /// rejection). Free when no SLA is installed. Over-rate transactions
    /// within the deferral budget are admitted after a short sleep; past it
    /// they are shed with [`ClusterError::AdmissionRejected`], which counts
    /// against the tenant's `max_rejected_frac`.
    pub(crate) fn admit(&self, db: &str) -> Result<()> {
        let Some(gate) = self.admission.gate(db) else {
            return Ok(());
        };
        match gate.decide() {
            tenantdb_sla::AdmissionDecision::Admit => {
                self.metrics.note_sla_admitted(db, &gate);
                Ok(())
            }
            tenantdb_sla::AdmissionDecision::Defer(wait) => {
                self.metrics.note_sla_deferred(db, &gate);
                tenantdb_lockdep::assert_may_block("an SLA deferral sleep");
                std::thread::sleep(wait);
                Ok(())
            }
            tenantdb_sla::AdmissionDecision::Reject => Err(self.shed(db, &gate)),
        }
    }

    /// Non-consuming admission peek for `db`: `Some(error)` if a new
    /// transaction would be shed right now. Never blocks and never consumes
    /// a token, so event loops (the net reactor's inline path) can refuse
    /// work for over-rate tenants without double-charging them; the shed is
    /// still counted. Returns `None` when no SLA is installed.
    pub fn admission_probe(&self, db: &str) -> Option<ClusterError> {
        let gate = self.admission.gate(db)?;
        if !gate.would_reject() {
            return None;
        }
        Some(self.shed(db, &gate))
    }

    /// Count a shed of `db`, at the gate and against the tenant's
    /// availability SLA, and return the refusal the client sees.
    fn shed(&self, db: &str, gate: &tenantdb_sla::AdmissionGate) -> ClusterError {
        self.metrics.note_sla_rejected(db, gate);
        let shed = ClusterError::AdmissionRejected { db: db.to_string() };
        self.metrics.note_failed(db, shed.outcome());
        shed
    }

    /// A database's recorded SLA, if one was set.
    pub fn sla(&self, db: &str) -> Option<tenantdb_sla::Sla> {
        self.group.sla(db)
    }

    // -------------------------------------------------- controller group

    /// The replicated controller metadata group: failover controls
    /// (`crash`/`isolate`/`restart`/`quiesce`), status and the safety
    /// invariant checkers live on the group itself.
    pub fn controllers(&self) -> &ControllerGroup {
        &self.group
    }

    /// Snapshot the controller group state into the `tenantdb_ctrl_*`
    /// gauges and drain fresh elections into `ctrl_elected` events + the
    /// elections counter. Called from status paths (metrics rendering, the
    /// shell) — not per-decision, the gauges are views not ledgers.
    pub fn sync_ctrl_metrics(&self) -> CtrlStatus {
        let s = self.group.status();
        self.metrics.ctrl_term.set(s.term as i64);
        self.metrics.ctrl_commit_index.set(s.commit_index as i64);
        self.metrics
            .ctrl_leader
            .set(s.leader.map(|l| l as i64).unwrap_or(-1));
        self.metrics
            .ctrl_replication_lag
            .set(s.replication_lag as i64);
        for (term, node) in self.group.take_elections() {
            self.metrics.ctrl_elections.inc();
            self.metrics
                .events()
                .emit("ctrl_elected", fields![("term", term), ("node", node)]);
        }
        s
    }

    // ------------------------------------------- cross-colo fencing (georep)

    /// This cluster's current write authority: the fencing epoch at which it
    /// was last authorized as a primary. `0` for the initial primary.
    pub fn geo_write_epoch(&self) -> u64 {
        // ordering: Relaxed — epoch reads are advisory snapshots; the
        // authoritative fence is the replicated metadata round in fence_geo().
        self.geo_write_epoch.load(Ordering::Relaxed)
    }

    /// The highest fencing epoch this cluster has durably observed (read
    /// from the replicated metadata group, not the fast-path cache).
    pub fn geo_epoch(&self) -> u64 {
        self.group.geo_epoch()
    }

    /// Fence this cluster at `epoch`: durably record (via a metadata quorum
    /// round) that a standby colo was promoted at that epoch, so every
    /// subsequent write here whose authority is older is rejected with
    /// [`ClusterError::Fenced`]. Monotonic and idempotent; returns the
    /// post-apply epoch. Fails without a controller quorum — the caller
    /// (georep promotion) treats an unreachable old primary as fenced by
    /// the epoch check on its replication stream instead.
    pub fn fence_geo(&self, epoch: u64) -> Result<u64> {
        let e = self.group.set_geo_epoch(epoch)?;
        // ordering: Relaxed — the cache only widens the fence window; the
        // durable quorum round above is the synchronization point.
        self.geo_fence_cache.fetch_max(e, Ordering::Relaxed);
        if e > self.geo_write_epoch() {
            self.metrics
                .events()
                .emit("geo_fenced", fields![("epoch", e)]);
        }
        Ok(e)
    }

    /// Take write authority at `epoch` (standby promotion): durably record
    /// the epoch, then adopt it as this cluster's write authority so its
    /// own fence check passes. Returns the adopted epoch.
    pub fn assume_geo_epoch(&self, epoch: u64) -> Result<u64> {
        let e = self.group.set_geo_epoch(epoch)?;
        // ordering: Relaxed — see geo_write_epoch(); the quorum round is the
        // synchronization point, these are its cached projections.
        self.geo_write_epoch.fetch_max(e, Ordering::Relaxed);
        self.geo_fence_cache.fetch_max(e, Ordering::Relaxed);
        self.metrics
            .events()
            .emit("geo_promoted", fields![("epoch", e)]);
        Ok(e)
    }

    /// Is this cluster currently fenced (a newer colo holds write authority)?
    pub fn is_geo_fenced(&self) -> bool {
        // ordering: Relaxed — advisory pairing of two monotonic counters.
        self.geo_fence_cache.load(Ordering::Relaxed) > self.geo_write_epoch()
    }

    /// The per-write fence check: `Err(Fenced)` once a newer epoch was
    /// observed. One relaxed atomic load on the hot path while unfenced.
    pub(crate) fn check_geo_fence(&self) -> Result<()> {
        // ordering: Relaxed — see is_geo_fenced().
        let fence = self.geo_fence_cache.load(Ordering::Relaxed);
        if fence > self.geo_write_epoch() {
            self.metrics.note_geo_fenced_write();
            return Err(ClusterError::Fenced { epoch: fence });
        }
        Ok(())
    }

    // ------------------------------------------------------------- stats

    /// The cluster's metrics surface (registry, latency handles, event log).
    pub fn metrics(&self) -> &ClusterMetrics {
        &self.metrics
    }

    /// Outcome counters for one database, read live from the registry.
    pub fn counters(&self, db: &str) -> DbCounters {
        self.metrics.db_counters(db)
    }

    /// Check a database's observed outcomes against an SLA over a window
    /// (the runtime side of §4.1). The outcomes come straight from the live
    /// metric counters — there is no separate SLA ledger to keep in sync.
    pub fn sla_compliance(
        &self,
        db: &str,
        sla: &tenantdb_sla::Sla,
        window: std::time::Duration,
    ) -> tenantdb_sla::Compliance {
        tenantdb_sla::check_compliance(sla, &self.metrics.observed_outcomes(db), window)
    }

    /// Sum of counters across all databases.
    pub fn total_counters(&self) -> DbCounters {
        self.metrics.total_counters()
    }

    /// Zero every counter and histogram and drop buffered events (gauges
    /// keep their level — queue depths and in-flight copies are still real).
    /// Benches call this between warm-up and the measured window.
    pub fn reset_counters(&self) {
        self.metrics.registry().reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machines_and_databases() {
        let c = ClusterController::with_machines(ClusterConfig::for_tests(), 4);
        assert_eq!(c.machine_ids().len(), 4);
        let placed = c.create_database("app1", 2).unwrap();
        assert_eq!(placed.len(), 2);
        // Second database lands on the least-loaded machines.
        let placed2 = c.create_database("app2", 2).unwrap();
        assert!(placed2.iter().all(|m| !placed.contains(m)));
        assert!(c.create_database("app1", 2).is_err(), "duplicate name");

        // Where the benchmark's cluster shapes put their databases today.
        // The failover workload kills machine 0, the one hosting the most:
        // a ranking change that gave it a fourth database would lengthen
        // that workload's recovery, so the table is pinned here.
        let place = |machines: usize, dbs: usize| {
            let c = ClusterController::with_machines(ClusterConfig::for_tests(), machines);
            let table: Vec<(Vec<u32>, u32)> = (0..dbs)
                .map(|i| {
                    let name = format!("tpcw{i}");
                    let replicas = c.create_database(&name, 2).unwrap();
                    let p = c.placement(&name).unwrap();
                    assert_eq!(p.replicas, replicas);
                    (replicas.iter().map(|m| m.0).collect(), p.pinned.0)
                })
                .collect();
            (c, table)
        };
        let hosted = |c: &ClusterController| -> Vec<usize> {
            c.machine_ids().iter().map(|&m| c.tally(m).hosted).collect()
        };

        let (c, table) = place(6, 8);
        let expected: Vec<(Vec<u32>, u32)> = vec![
            (vec![0, 1], 0),
            (vec![2, 3], 2),
            (vec![4, 5], 4),
            (vec![0, 1], 1),
            (vec![2, 3], 3),
            (vec![4, 5], 5),
            (vec![0, 1], 0),
            (vec![2, 3], 2),
        ];
        assert_eq!(table, expected, "6 machines, 8 databases");
        assert_eq!(hosted(&c), [3, 3, 3, 3, 2, 2]);

        let (_, table) = place(4, 4);
        let expected: Vec<(Vec<u32>, u32)> = vec![
            (vec![0, 1], 0),
            (vec![2, 3], 2),
            (vec![0, 1], 1),
            (vec![2, 3], 3),
        ];
        assert_eq!(table, expected, "4 machines, 4 databases");

        let (c, table) = place(4, 2000);
        assert_eq!(hosted(&c), [1000; 4], "4 machines, 2000 databases");
        let mut pins = [0usize; 4];
        for (_, pinned) in &table {
            pins[*pinned as usize] += 1;
        }
        assert_eq!(pins, [500; 4], "pins per machine, 2000 databases");
    }

    #[test]
    fn replication_factor_larger_than_cluster_fails() {
        let c = ClusterController::with_machines(ClusterConfig::for_tests(), 2);
        assert_eq!(
            c.create_database("big", 3).unwrap_err(),
            ClusterError::NoMachines
        );
    }

    #[test]
    fn alive_replicas_excludes_failed() {
        let c = ClusterController::with_machines(ClusterConfig::for_tests(), 3);
        let placed = c.create_database("app", 2).unwrap();
        assert_eq!(c.alive_replicas("app").unwrap().len(), 2);
        c.fail_machine(placed[0]).unwrap();
        assert_eq!(c.alive_replicas("app").unwrap(), vec![placed[1]]);
    }

    #[test]
    fn remove_replica_repins() {
        let c = ClusterController::with_machines(ClusterConfig::for_tests(), 3);
        let placed = c.create_database("app", 2).unwrap();
        assert_eq!(c.placement("app").unwrap().pinned, placed[0]);
        c.remove_replica("app", placed[0]);
        let p = c.placement("app").unwrap();
        assert_eq!(p.replicas, vec![placed[1]]);
        assert_eq!(p.pinned, placed[1]);
    }

    #[test]
    fn ddl_reaches_all_replicas() {
        let c = ClusterController::with_machines(ClusterConfig::for_tests(), 2);
        let placed = c.create_database("app", 2).unwrap();
        c.ddl("app", "CREATE TABLE t (id INT NOT NULL, PRIMARY KEY (id))")
            .unwrap();
        for id in placed {
            let m = c.machine(id).unwrap();
            assert!(m.engine.table("app", "t").is_ok());
        }
        assert!(c.ddl("app", "SELECT * FROM t").is_err(), "non-DDL rejected");
    }

    #[test]
    fn geo_fence_rejects_every_write_shape() {
        let c = ClusterController::with_machines(ClusterConfig::for_tests(), 2);
        c.create_database("app", 2).unwrap();
        c.ddl(
            "app",
            "CREATE TABLE t (id INT NOT NULL, v TEXT, PRIMARY KEY (id))",
        )
        .unwrap();
        let conn = c.connect("app").unwrap();
        conn.execute("INSERT INTO t VALUES (1, 'pre')", &[])
            .unwrap();

        // A standby colo is promoted at epoch 1: this cluster is fenced.
        assert!(!c.is_geo_fenced());
        assert_eq!(c.fence_geo(1).unwrap(), 1);
        assert!(c.is_geo_fenced());
        assert_eq!(c.geo_epoch(), 1);
        assert_eq!(c.geo_write_epoch(), 0);

        // DML, DDL and catalog writes are all rejected...
        let err = conn
            .execute("INSERT INTO t VALUES (2, 'post')", &[])
            .unwrap_err();
        assert!(err.is_fenced(), "{err}");
        assert!(c
            .ddl("app", "CREATE TABLE u (id INT NOT NULL, PRIMARY KEY (id))")
            .unwrap_err()
            .is_fenced());
        assert!(c.create_database("other", 1).unwrap_err().is_fenced());
        assert!(c.drop_database("app").unwrap_err().is_fenced());
        // ...an in-flight writing transaction cannot decide past the fence...
        let conn2 = c.connect("app").unwrap();
        // (the write itself is already rejected; a read-only txn commits fine)
        conn2.begin().unwrap();
        let r = conn2.execute("SELECT COUNT(*) FROM t", &[]).unwrap();
        assert_eq!(r.rows[0][0], tenantdb_storage::Value::Int(1));
        conn2.commit().unwrap();
        assert!(c.metrics().geo_fenced_writes.get() >= 4);

        // Re-authorizing at the fencing epoch (failback) reopens writes.
        assert_eq!(c.assume_geo_epoch(1).unwrap(), 1);
        assert!(!c.is_geo_fenced());
        conn.execute("INSERT INTO t VALUES (2, 'post')", &[])
            .unwrap();
    }

    #[test]
    fn copy_progress_lifecycle() {
        let c = ClusterController::with_machines(ClusterConfig::for_tests(), 3);
        let placed = c.create_database("app", 2).unwrap();
        let target = c
            .machine_ids()
            .into_iter()
            .find(|m| !placed.contains(m))
            .unwrap();
        c.machine(target)
            .unwrap()
            .engine
            .create_database("app")
            .unwrap();
        c.begin_copy("app", Some(target), false).unwrap();
        c.set_copy_current("app", Some("t1"));
        let p = c.copy_progress("app").unwrap();
        assert_eq!(p.current.as_deref(), Some("t1"));
        c.mark_copied("app", "t1");
        let p = c.copy_progress("app").unwrap();
        assert!(p.current.is_none());
        assert!(p.copied.contains("t1"));
        c.finish_copy("app");
        assert!(c.copy_progress("app").is_none());
        assert!(c.placement("app").unwrap().replicas.contains(&target));
    }

    #[test]
    fn counters_accumulate() {
        let c = ClusterController::with_machines(ClusterConfig::for_tests(), 1);
        c.create_database("a", 1).unwrap();
        c.metrics().note_committed("a");
        c.metrics().note_committed("a");
        c.metrics().note_failed("a", crate::Outcome::Rejected);
        c.metrics().note_failed("a", crate::Outcome::Deadlock);
        let k = c.counters("a");
        assert_eq!(k.committed, 2);
        assert_eq!(k.rejected, 1);
        assert_eq!(k.deadlocks, 1);
        assert_eq!(c.total_counters().committed, 2);
        c.reset_counters();
        assert_eq!(c.counters("a"), DbCounters::default());
    }

    #[test]
    fn databases_on_machine() {
        let c = ClusterController::with_machines(ClusterConfig::for_tests(), 2);
        c.create_database_on("a", &[MachineId(0), MachineId(1)])
            .unwrap();
        c.create_database_on("b", &[MachineId(1)]).unwrap();
        let mut on1 = c.databases_on(MachineId(1));
        on1.sort();
        assert_eq!(on1, vec!["a", "b"]);
        assert_eq!(c.databases_on(MachineId(0)), vec!["a"]);
    }
}

#[cfg(test)]
mod sla_tests {
    use super::*;
    use std::time::Duration;
    use tenantdb_sla::Sla;

    #[test]
    fn compliance_bridges_counters() {
        let c = ClusterController::with_machines(ClusterConfig::for_tests(), 1);
        c.create_database("a", 1).unwrap();
        for _ in 0..120 {
            c.metrics().note_committed("a");
        }
        c.metrics().note_failed("a", crate::Outcome::Rejected);
        let sla = Sla::new(1.0, 0.05, Duration::from_secs(3600));
        let comp = c.sla_compliance("a", &sla, Duration::from_secs(60));
        assert!(comp.ok(), "{comp:?}");
        // Tighter availability bound breaches.
        let tight = Sla::new(1.0, 0.001, Duration::from_secs(3600));
        assert!(!c.sla_compliance("a", &tight, Duration::from_secs(60)).ok());
    }
}

#[cfg(test)]
mod drop_tests {
    use super::*;

    #[test]
    fn drop_database_cleans_everything() {
        let c = ClusterController::with_machines(ClusterConfig::for_tests(), 2);
        let placed = c.create_database("gone", 2).unwrap();
        c.ddl("gone", "CREATE TABLE t (id INT NOT NULL, PRIMARY KEY (id))")
            .unwrap();
        c.drop_database("gone").unwrap();
        assert!(c.placement("gone").is_err());
        for id in placed {
            assert!(!c.machine(id).unwrap().engine.has_database("gone"));
        }
        assert!(c.drop_database("gone").is_err(), "double drop");
        // The name can be reused.
        c.create_database("gone", 2).unwrap();
    }
}

#[cfg(test)]
mod takeover_tests {
    use super::*;
    use crate::fault::{CrashPoint, FaultAction, FaultPlan, Trigger, CONTROLLER};
    use tenantdb_storage::Value;

    fn cluster() -> Arc<ClusterController> {
        let c = ClusterController::with_machines(ClusterConfig::for_tests(), 2);
        c.create_database("app", 2).unwrap();
        c.ddl(
            "app",
            "CREATE TABLE t (id INT NOT NULL, v TEXT, PRIMARY KEY (id))",
        )
        .unwrap();
        c
    }

    #[test]
    fn takeover_completes_decided_commit() {
        let c = cluster();
        let conn = c.connect("app").unwrap();
        conn.begin().unwrap();
        conn.execute("INSERT INTO t VALUES (1, 'decided')", &[])
            .unwrap();
        let gtxn = conn.current_gtxn().unwrap();
        // The coordinator crashes after the decision, before sending COMMITs.
        c.faults().arm(FaultPlan::new(vec![Trigger {
            point: CrashPoint::CommitDecision,
            machine: Some(CONTROLLER),
            after_hits: 0,
            action: FaultAction::Crash,
        }]));
        conn.commit().unwrap();
        c.faults().disarm();
        assert_eq!(c.decisions().len(), 1);

        let report = c.takeover();
        assert_eq!(report.completed, vec![gtxn]);
        assert!(c.decisions().is_empty());

        // The write is durably committed on every replica.
        for id in c.alive_replicas("app").unwrap() {
            let m = c.machine(id).unwrap();
            let t = m.engine.begin().unwrap();
            assert_eq!(
                m.engine.scan(t, "app", "t").unwrap().len(),
                1,
                "replica {id}"
            );
            m.engine.commit(t).unwrap();
        }
    }

    #[test]
    fn takeover_aborts_undecided_prepared_txns() {
        let c = cluster();

        // Manually drive a transaction to prepared-everywhere with no
        // decision (as if the coordinator died between PREPARE and decision).
        for id in c.alive_replicas("app").unwrap() {
            let m = c.machine(id).unwrap();
            let t = m.engine.begin().unwrap();
            m.engine
                .insert(
                    t,
                    "app",
                    "t",
                    vec![Value::Int(9), Value::Text("doomed".into())],
                )
                .unwrap();
            m.engine.prepare(t).unwrap();
        }

        let report = c.takeover();
        assert!(report.completed.is_empty());
        assert_eq!(report.aborted_in_doubt.len(), 2);

        // The write vanished everywhere.
        for id in c.alive_replicas("app").unwrap() {
            let m = c.machine(id).unwrap();
            let t = m.engine.begin().unwrap();
            assert_eq!(m.engine.scan(t, "app", "t").unwrap().len(), 0);
            m.engine.commit(t).unwrap();
        }
    }

    #[test]
    fn takeover_on_clean_state_is_a_noop() {
        let c = cluster();
        let conn = c.connect("app").unwrap();
        conn.execute("INSERT INTO t VALUES (1, 'x')", &[]).unwrap();
        assert_eq!(c.takeover(), TakeoverReport::default());
        // Committed data untouched.
        let r = conn.execute("SELECT COUNT(*) FROM t", &[]).unwrap();
        assert_eq!(r.rows[0][0], Value::Int(1));
    }
}
