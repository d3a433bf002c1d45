//! Cluster metric names and cached hot-path handles (backed by
//! [`tenantdb_obs`]).
//!
//! One [`ClusterMetrics`] lives inside every
//! [`crate::controller::ClusterController`] and is the *single* store for
//! runtime counters — the controller's former private
//! `HashMap<String, DbCounters>` outcome ledger is gone, replaced by
//! labelled registry counters that the SLA monitor, the benches, the shell's
//! `\metrics` command, and the tests all read from the same place.
//!
//! Handles for unlabelled hot-path series (2PC phase latencies, straggler
//! acks) are resolved once at construction; per-database and per-route
//! series are resolved through small handle caches so the steady-state cost
//! of an increment is one `HashMap` probe plus one relaxed atomic add.

use std::collections::HashMap;
use std::sync::Arc;

use crate::sync::{Mutex, METRICS_PER_DB, METRICS_READ_ROUTES, METRICS_SLA};

use tenantdb_obs::{Counter, EventLog, Gauge, Histogram, MetricsRegistry};

use crate::controller::ReadPolicy;
use crate::error::Outcome;
use crate::machine::MachineId;

/// Transactions begun (`db` label): every `BEGIN`, explicit or implicit.
pub const TXN_BEGUN: &str = "tenantdb_txn_begun_total";
/// Transaction outcomes (`db` and `outcome` labels; outcome is one of
/// `committed`, `deadlock`, `rejected`, `aborted`).
pub const TXN_OUTCOMES: &str = "tenantdb_txn_outcomes_total";
/// Read-statement latency histogram (µs), connection-observed.
pub const STMT_READ_LATENCY: &str = "tenantdb_stmt_read_latency_us";
/// Write-statement latency histogram (µs), including replica fan-out.
pub const STMT_WRITE_LATENCY: &str = "tenantdb_stmt_write_latency_us";
/// 2PC phase-1 (PREPARE broadcast to all votes collected) latency (µs).
pub const TWOPC_PREPARE_LATENCY: &str = "tenantdb_2pc_prepare_latency_us";
/// 2PC phase-2 (COMMIT broadcast to all acks collected) latency (µs).
pub const TWOPC_COMMIT_LATENCY: &str = "tenantdb_2pc_commit_latency_us";
/// Whole-commit latency (µs) with a `mode` label: `2pc` when the
/// transaction wrote, `readonly` for the one-phase path.
pub const COMMIT_LATENCY: &str = "tenantdb_commit_latency_us";
/// Read routing decisions (`policy` and `machine` labels).
pub const READ_ROUTES: &str = "tenantdb_read_route_total";
/// Aggressive-mode straggler acks: background replica replies discarded as
/// stale by the connection's reply loop.
pub const STRAGGLER_ACKS: &str = "tenantdb_straggler_acks_total";
/// Statements served from their database's plan cache (counter).
pub const PLAN_CACHE_HITS: &str = "tenantdb_plan_cache_hits_total";
/// Statements parsed and bound because their SQL text was not cached
/// (counter; DDL and failed binds count here and cache nothing).
pub const PLAN_CACHE_MISSES: &str = "tenantdb_plan_cache_misses_total";
/// Plans dropped because a database's cache reached its bound (counter;
/// invalidation by DDL is not an eviction).
pub const PLAN_CACHE_EVICTIONS: &str = "tenantdb_plan_cache_evictions_total";
/// Writes rejected by Algorithm 1 while a replica copy is in flight
/// (`db` label).
pub const WRITE_REJECTIONS: &str = "tenantdb_write_rejected_total";
/// Worker-pool queue depth gauge (`pool` label, plus `machine` for
/// machine pools).
pub const POOL_QUEUE_DEPTH: &str = "tenantdb_pool_queue_depth";
/// Worker-pool live-thread gauge (same labels as the queue depth).
pub const POOL_LIVE_THREADS: &str = "tenantdb_pool_live_threads";
/// Worker threads spawned, resident and grown (same labels).
pub const POOL_THREADS_SPAWNED: &str = "tenantdb_pool_threads_spawned_total";
/// Session-lane turns run on the calling thread instead of as a pool job
/// (same labels).
pub const POOL_CALLER_TURNS: &str = "tenantdb_pool_caller_turns_total";
/// Tables copied during replica re-creation (`db` label).
pub const RECOVERY_TABLES_COPIED: &str = "tenantdb_recovery_tables_copied_total";
/// Replica copies currently in flight (cluster-wide gauge).
pub const RECOVERY_COPIES_IN_FLIGHT: &str = "tenantdb_recovery_copies_in_flight";
/// Whole replica-copy latency histogram (µs).
pub const RECOVERY_COPY_LATENCY: &str = "tenantdb_recovery_copy_latency_us";
/// Current Raft term of the replicated controller group (gauge).
pub const CTRL_TERM: &str = "tenantdb_ctrl_term";
/// Highest committed metadata-log index in the controller group (gauge).
pub const CTRL_COMMIT_INDEX: &str = "tenantdb_ctrl_commit_index";
/// Current controller leader replica id, or -1 while leaderless (gauge).
pub const CTRL_LEADER: &str = "tenantdb_ctrl_leader";
/// Max applied-index spread across alive controller replicas (gauge).
pub const CTRL_REPLICATION_LAG: &str = "tenantdb_ctrl_replication_lag";
/// Controller elections won since the cluster was built (counter).
pub const CTRL_ELECTIONS: &str = "tenantdb_ctrl_elections_total";
/// Transactions admitted by the SLA gate (`db` label). Only materialized
/// for databases that have an SLA installed — SLA-free tenants never create
/// these series.
pub const SLA_ADMITTED: &str = "tenantdb_sla_admitted_total";
/// Transactions briefly deferred by the SLA gate before admission
/// (`db` label).
pub const SLA_DEFERRED: &str = "tenantdb_sla_deferred_total";
/// Transactions shed by the SLA gate — §4 proactive rejections caused by
/// admission control (`db` label). A subset of the `rejected` outcome.
pub const SLA_REJECTED: &str = "tenantdb_sla_rejected_total";
/// How far past on-rate a tenant's gate currently is, in microseconds
/// (`db` label). Sampled on admission events; capped at
/// [`MAX_SLA_GAUGES`] databases so a 50k-tenant cluster does not carry 50k
/// gauge series.
pub const SLA_GATE_DEBT: &str = "tenantdb_sla_gate_debt_us";

/// Writes rejected because this cluster is geo-fenced — a standby colo was
/// promoted at a newer epoch, so this cluster lost write authority
/// (counter; the split-brain guard of the georep promotion protocol).
pub const GEOREP_FENCED_WRITES: &str = "tenantdb_georep_fenced_writes_total";

/// Upper bound on per-database [`SLA_GATE_DEBT`] gauge series. Counters are
/// cheap and stay per-database at any scale; gauges are samples and the
/// first `MAX_SLA_GAUGES` databases to hit their gate win the slots.
pub const MAX_SLA_GAUGES: usize = 64;

/// Per-database outcome totals, read live from the metrics registry.
///
/// This is a point-in-time *view*, not storage: the counters live in the
/// registry (see [`TXN_OUTCOMES`]) and this struct only exists so callers
/// keep a stable, field-addressable snapshot API.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DbCounters {
    /// Successfully committed transactions.
    pub committed: u64,
    /// Transactions aborted by deadlock or lock timeout (workload-inherent,
    /// *not* counted against the SLA).
    pub deadlocks: u64,
    /// Proactively rejected transactions (machine failure, copy rejection) —
    /// the §4.1 SLA numerator.
    pub rejected: u64,
    /// Other aborts (client rollback, statement errors).
    pub aborted: u64,
}

/// Live SLA admission totals for one database (see [`SLA_ADMITTED`],
/// [`SLA_DEFERRED`], [`SLA_REJECTED`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionCounters {
    /// Transactions admitted immediately.
    pub admitted: u64,
    /// Transactions admitted after a short deferral.
    pub deferred: u64,
    /// Transactions shed (proactively rejected) by the gate.
    pub rejected: u64,
}

impl AdmissionCounters {
    /// Every decision the gate made for this database.
    pub fn total(&self) -> u64 {
        self.admitted + self.deferred + self.rejected
    }
}

/// Cached per-database SLA admission handles. Created lazily on the first
/// admission event, so databases without SLAs stay absent from the registry.
struct SlaHandles {
    admitted: Arc<Counter>,
    deferred: Arc<Counter>,
    rejected: Arc<Counter>,
    /// `None` once [`MAX_SLA_GAUGES`] databases already carry a debt gauge.
    debt: Option<Arc<Gauge>>,
}

/// Cached per-database outcome counter handles (one probe per increment).
struct DbHandles {
    committed: Arc<Counter>,
    deadlocks: Arc<Counter>,
    rejected: Arc<Counter>,
    aborted: Arc<Counter>,
    begun: Arc<Counter>,
    write_rejections: Arc<Counter>,
}

/// The cluster's metrics surface: the registry plus pre-resolved handles
/// for every unlabelled hot-path series.
pub struct ClusterMetrics {
    registry: Arc<MetricsRegistry>,
    /// Read-statement latency (connection-observed).
    pub stmt_read_latency: Arc<Histogram>,
    /// Write-statement latency (fan-out included).
    pub stmt_write_latency: Arc<Histogram>,
    /// 2PC phase 1 latency.
    pub twopc_prepare_latency: Arc<Histogram>,
    /// 2PC phase 2 latency.
    pub twopc_commit_latency: Arc<Histogram>,
    /// Commit latency for writing transactions.
    pub commit_latency_2pc: Arc<Histogram>,
    /// Commit latency for the read-only one-phase path.
    pub commit_latency_readonly: Arc<Histogram>,
    /// Stale aggressive-mode replica acks discarded by the reply loop.
    pub straggler_acks: Arc<Counter>,
    /// Statements served from a plan cache.
    pub plan_cache_hits: Arc<Counter>,
    /// Statements parsed and bound (not cached, or not cacheable).
    pub plan_cache_misses: Arc<Counter>,
    /// Plans dropped at a plan cache's bound.
    pub plan_cache_evictions: Arc<Counter>,
    /// Replica copies in flight (recovery/migration).
    pub copies_in_flight: Arc<Gauge>,
    /// Whole replica-copy latency.
    pub copy_latency: Arc<Histogram>,
    /// Controller group: current Raft term.
    pub ctrl_term: Arc<Gauge>,
    /// Controller group: highest committed metadata-log index.
    pub ctrl_commit_index: Arc<Gauge>,
    /// Controller group: leader replica id (-1 while leaderless).
    pub ctrl_leader: Arc<Gauge>,
    /// Controller group: applied-index spread across alive replicas.
    pub ctrl_replication_lag: Arc<Gauge>,
    /// Controller group: elections won.
    pub ctrl_elections: Arc<Counter>,
    /// Writes rejected because this cluster lost geo write authority.
    pub geo_fenced_writes: Arc<Counter>,
    per_db: Mutex<HashMap<String, Arc<DbHandles>>>,
    read_routes: Mutex<HashMap<(ReadPolicy, MachineId), Arc<Counter>>>,
    sla: Mutex<HashMap<String, Arc<SlaHandles>>>,
}

impl ClusterMetrics {
    /// Build the cluster's metric families on a fresh registry.
    pub fn new() -> Self {
        let registry = Arc::new(MetricsRegistry::new());
        registry.describe(TXN_BEGUN, "Transactions begun, per database.");
        registry.describe(
            TXN_OUTCOMES,
            "Transaction outcomes per database (outcome = committed | deadlock | rejected | aborted).",
        );
        registry.describe(STMT_READ_LATENCY, "Read statement latency in microseconds.");
        registry.describe(
            STMT_WRITE_LATENCY,
            "Write statement latency in microseconds (write-all fan-out included).",
        );
        registry.describe(
            TWOPC_PREPARE_LATENCY,
            "2PC phase 1: PREPARE broadcast until every vote is in, microseconds.",
        );
        registry.describe(
            TWOPC_COMMIT_LATENCY,
            "2PC phase 2: COMMIT broadcast until every ack is in, microseconds.",
        );
        registry.describe(
            COMMIT_LATENCY,
            "Whole commit latency in microseconds (mode = 2pc | readonly).",
        );
        registry.describe(
            READ_ROUTES,
            "Read routing decisions per (read policy, chosen machine).",
        );
        registry.describe(
            STRAGGLER_ACKS,
            "Aggressive-mode background replica acks discarded as stale.",
        );
        registry.describe(
            WRITE_REJECTIONS,
            "Writes rejected by Algorithm 1 during replica copies, per database.",
        );
        registry.describe(
            RECOVERY_TABLES_COPIED,
            "Tables copied while re-creating replicas, per database.",
        );
        registry.describe(
            RECOVERY_COPIES_IN_FLIGHT,
            "Replica copies currently in flight.",
        );
        registry.describe(
            RECOVERY_COPY_LATENCY,
            "Whole replica-copy duration in microseconds.",
        );
        registry.describe(CTRL_TERM, "Current Raft term of the controller group.");
        registry.describe(
            CTRL_COMMIT_INDEX,
            "Highest committed metadata-log index in the controller group.",
        );
        registry.describe(
            CTRL_LEADER,
            "Current controller leader replica id (-1 while leaderless).",
        );
        registry.describe(
            CTRL_REPLICATION_LAG,
            "Max applied-index spread across alive controller replicas.",
        );
        registry.describe(
            CTRL_ELECTIONS,
            "Controller elections won since the cluster was built.",
        );
        registry.describe(SLA_ADMITTED, "Transactions admitted by the SLA gate.");
        registry.describe(
            SLA_DEFERRED,
            "Transactions briefly deferred by the SLA gate before admission.",
        );
        registry.describe(
            SLA_REJECTED,
            "Transactions shed by SLA admission control (proactive rejections).",
        );
        registry.describe(
            SLA_GATE_DEBT,
            "Microseconds past on-rate for a tenant's admission gate (sampled).",
        );
        registry.describe(
            PLAN_CACHE_HITS,
            "Statements served from their database's plan cache.",
        );
        registry.describe(
            PLAN_CACHE_MISSES,
            "Statements parsed and bound: SQL text not in the database's plan cache.",
        );
        registry.describe(
            PLAN_CACHE_EVICTIONS,
            "Plans dropped because a database's plan cache reached its bound.",
        );
        registry.describe(
            GEOREP_FENCED_WRITES,
            "Writes rejected because this cluster was geo-fenced by a newer promotion epoch.",
        );

        ClusterMetrics {
            stmt_read_latency: registry.histogram(STMT_READ_LATENCY, &[]),
            stmt_write_latency: registry.histogram(STMT_WRITE_LATENCY, &[]),
            twopc_prepare_latency: registry.histogram(TWOPC_PREPARE_LATENCY, &[]),
            twopc_commit_latency: registry.histogram(TWOPC_COMMIT_LATENCY, &[]),
            commit_latency_2pc: registry.histogram(COMMIT_LATENCY, &[("mode", "2pc")]),
            commit_latency_readonly: registry.histogram(COMMIT_LATENCY, &[("mode", "readonly")]),
            straggler_acks: registry.counter(STRAGGLER_ACKS, &[]),
            plan_cache_hits: registry.counter(PLAN_CACHE_HITS, &[]),
            plan_cache_misses: registry.counter(PLAN_CACHE_MISSES, &[]),
            plan_cache_evictions: registry.counter(PLAN_CACHE_EVICTIONS, &[]),
            copies_in_flight: registry.gauge(RECOVERY_COPIES_IN_FLIGHT, &[]),
            copy_latency: registry.histogram(RECOVERY_COPY_LATENCY, &[]),
            ctrl_term: registry.gauge(CTRL_TERM, &[]),
            ctrl_commit_index: registry.gauge(CTRL_COMMIT_INDEX, &[]),
            ctrl_leader: registry.gauge(CTRL_LEADER, &[]),
            ctrl_replication_lag: registry.gauge(CTRL_REPLICATION_LAG, &[]),
            ctrl_elections: registry.counter(CTRL_ELECTIONS, &[]),
            geo_fenced_writes: registry.counter(GEOREP_FENCED_WRITES, &[]),
            per_db: Mutex::new(&METRICS_PER_DB, HashMap::new()),
            read_routes: Mutex::new(&METRICS_READ_ROUTES, HashMap::new()),
            sla: Mutex::new(&METRICS_SLA, HashMap::new()),
            registry,
        }
    }

    /// The backing registry (rendering, snapshots, ad-hoc series).
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// The structured event log (copy progress, rejections, pool growth).
    pub fn events(&self) -> &EventLog {
        self.registry.events()
    }

    fn db_handles(&self, db: &str) -> Arc<DbHandles> {
        if let Some(h) = self.per_db.lock().get(db) {
            return Arc::clone(h);
        }
        let handles = Arc::new(DbHandles {
            committed: self
                .registry
                .counter(TXN_OUTCOMES, &[("db", db), ("outcome", "committed")]),
            deadlocks: self
                .registry
                .counter(TXN_OUTCOMES, &[("db", db), ("outcome", "deadlock")]),
            rejected: self
                .registry
                .counter(TXN_OUTCOMES, &[("db", db), ("outcome", "rejected")]),
            aborted: self
                .registry
                .counter(TXN_OUTCOMES, &[("db", db), ("outcome", "aborted")]),
            begun: self.registry.counter(TXN_BEGUN, &[("db", db)]),
            write_rejections: self.registry.counter(WRITE_REJECTIONS, &[("db", db)]),
        });
        self.per_db
            .lock()
            .entry(db.to_string())
            .or_insert(handles)
            .clone()
    }

    /// Count a `BEGIN` for `db`.
    pub fn note_begun(&self, db: &str) {
        self.db_handles(db).begun.inc();
    }

    /// Count a committed transaction for `db`.
    pub fn note_committed(&self, db: &str) {
        self.db_handles(db).committed.inc();
    }

    /// Count a write rejected by the geo fence (cluster lost write
    /// authority to a promoted standby colo).
    pub fn note_geo_fenced_write(&self) {
        self.geo_fenced_writes.inc();
    }

    /// Count a transaction of `db` that did not commit, under `outcome`.
    pub fn note_failed(&self, db: &str, outcome: Outcome) {
        let h = self.db_handles(db);
        match outcome {
            Outcome::Deadlock => h.deadlocks.inc(),
            Outcome::Rejected => h.rejected.inc(),
            Outcome::Aborted => h.aborted.inc(),
        }
    }

    /// Count an Algorithm-1 write rejection for `db` and log the event.
    pub fn note_write_rejected(&self, db: &str, table: &str) {
        self.db_handles(db).write_rejections.inc();
        self.registry.events().emit(
            "write_rejected",
            vec![("db", db.to_string()), ("table", table.to_string())],
        );
    }

    /// Count one read routed to `machine` under `policy`.
    pub fn note_read_route(&self, policy: ReadPolicy, machine: MachineId) {
        if let Some(c) = self.read_routes.lock().get(&(policy, machine)) {
            c.inc();
            return;
        }
        let counter = self.registry.counter(
            READ_ROUTES,
            &[
                ("policy", policy_label(policy)),
                ("machine", &machine.to_string()),
            ],
        );
        counter.inc();
        self.read_routes.lock().insert((policy, machine), counter);
    }

    /// Live outcome totals for one database.
    pub fn db_counters(&self, db: &str) -> DbCounters {
        let h = self.db_handles(db);
        DbCounters {
            committed: h.committed.get(),
            deadlocks: h.deadlocks.get(),
            rejected: h.rejected.get(),
            aborted: h.aborted.get(),
        }
    }

    /// Live outcome totals summed over every database.
    pub fn total_counters(&self) -> DbCounters {
        DbCounters {
            committed: self
                .registry
                .counter_sum(TXN_OUTCOMES, &[("outcome", "committed")]),
            deadlocks: self
                .registry
                .counter_sum(TXN_OUTCOMES, &[("outcome", "deadlock")]),
            rejected: self
                .registry
                .counter_sum(TXN_OUTCOMES, &[("outcome", "rejected")]),
            aborted: self
                .registry
                .counter_sum(TXN_OUTCOMES, &[("outcome", "aborted")]),
        }
    }

    fn sla_handles(&self, db: &str) -> Arc<SlaHandles> {
        if let Some(h) = self.sla.lock().get(db) {
            return Arc::clone(h);
        }
        let debt = if self.sla.lock().len() < MAX_SLA_GAUGES {
            Some(self.registry.gauge(SLA_GATE_DEBT, &[("db", db)]))
        } else {
            None
        };
        let handles = Arc::new(SlaHandles {
            admitted: self.registry.counter(SLA_ADMITTED, &[("db", db)]),
            deferred: self.registry.counter(SLA_DEFERRED, &[("db", db)]),
            rejected: self.registry.counter(SLA_REJECTED, &[("db", db)]),
            debt,
        });
        self.sla
            .lock()
            .entry(db.to_string())
            .or_insert(handles)
            .clone()
    }

    /// Count an immediate SLA admission for `db` and sample the gate debt.
    pub fn note_sla_admitted(&self, db: &str, gate: &tenantdb_sla::AdmissionGate) {
        let h = self.sla_handles(db);
        h.admitted.inc();
        if let Some(g) = &h.debt {
            g.set(gate.debt_us() as i64);
        }
    }

    /// Count a deferred SLA admission for `db` and sample the gate debt.
    pub fn note_sla_deferred(&self, db: &str, gate: &tenantdb_sla::AdmissionGate) {
        let h = self.sla_handles(db);
        h.deferred.inc();
        if let Some(g) = &h.debt {
            g.set(gate.debt_us() as i64);
        }
    }

    /// Count an admission shed for `db` and sample the gate debt. The
    /// caller separately counts the §4.1 `rejected` outcome.
    pub fn note_sla_rejected(&self, db: &str, gate: &tenantdb_sla::AdmissionGate) {
        let h = self.sla_handles(db);
        h.rejected.inc();
        if let Some(g) = &h.debt {
            g.set(gate.debt_us() as i64);
        }
    }

    /// Live SLA admission totals for one database. Zero for databases whose
    /// gate never fired (including databases without SLAs).
    pub fn sla_admission_counters(&self, db: &str) -> AdmissionCounters {
        // Read through the registry rather than `sla_handles` so the query
        // itself does not materialize the series for an untouched database.
        AdmissionCounters {
            admitted: self.registry.counter_value(SLA_ADMITTED, &[("db", db)]),
            deferred: self.registry.counter_value(SLA_DEFERRED, &[("db", db)]),
            rejected: self.registry.counter_value(SLA_REJECTED, &[("db", db)]),
        }
    }

    /// Transactions begun on `db` (explicit and implicit `BEGIN`s). The
    /// no-starvation checker combines this with the admission-shed count to
    /// estimate a tenant's *offered* load.
    pub fn db_begun(&self, db: &str) -> u64 {
        self.registry.counter_value(TXN_BEGUN, &[("db", db)])
    }

    /// One database's outcomes in the SLA monitor's input shape — the live
    /// registry *is* the source; no hand-built structs in between.
    pub fn observed_outcomes(&self, db: &str) -> tenantdb_sla::ObservedOutcomes {
        let c = self.db_counters(db);
        tenantdb_sla::ObservedOutcomes {
            committed: c.committed,
            rejected: c.rejected,
            workload_aborts: c.deadlocks + c.aborted,
        }
    }
}

impl Default for ClusterMetrics {
    fn default() -> Self {
        Self::new()
    }
}

/// Pre-resolved handles for one worker pool's scheduling series, cloned into
/// the pool so the submit/drain hot path never touches the registry maps.
#[derive(Clone)]
pub struct PoolMetrics {
    /// Jobs queued right now ([`POOL_QUEUE_DEPTH`]).
    pub queue_depth: Arc<Gauge>,
    /// Worker threads alive ([`POOL_LIVE_THREADS`]).
    pub live_threads: Arc<Gauge>,
    /// Threads ever spawned ([`POOL_THREADS_SPAWNED`]).
    pub spawned: Arc<Counter>,
    /// Lane turns taken by callers ([`POOL_CALLER_TURNS`]).
    pub caller_turns: Arc<Counter>,
}

impl PoolMetrics {
    /// Resolve the four pool series for `pool`, with a `machine` label when
    /// the pool belongs to one machine. Describes the four families on
    /// `registry` (pools live on the cluster's registry and on the serving
    /// tier's own).
    pub fn resolve(registry: &MetricsRegistry, pool: &str, machine: Option<MachineId>) -> Self {
        registry.describe(POOL_QUEUE_DEPTH, "Jobs queued in a worker pool right now.");
        registry.describe(POOL_LIVE_THREADS, "Worker threads alive in a pool.");
        registry.describe(
            POOL_THREADS_SPAWNED,
            "Worker threads ever spawned by a pool (resident + on-demand growth).",
        );
        registry.describe(
            POOL_CALLER_TURNS,
            "Session-lane turns a caller ran on its own thread (no pool job, no hand-off).",
        );
        let m = machine.map(|m| m.to_string());
        let mut labels: Vec<(&'static str, &str)> = vec![("pool", pool)];
        if let Some(m) = m.as_deref() {
            labels.push(("machine", m));
        }
        PoolMetrics {
            queue_depth: registry.gauge(POOL_QUEUE_DEPTH, &labels),
            live_threads: registry.gauge(POOL_LIVE_THREADS, &labels),
            spawned: registry.counter(POOL_THREADS_SPAWNED, &labels),
            caller_turns: registry.counter(POOL_CALLER_TURNS, &labels),
        }
    }
}

/// Stable label value for a read policy.
pub fn policy_label(p: ReadPolicy) -> &'static str {
    match p {
        ReadPolicy::PinnedReplica => "pinned",
        ReadPolicy::PerTransaction => "per_txn",
        ReadPolicy::PerOperation => "per_op",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_counters_round_trip_through_the_registry() {
        let m = ClusterMetrics::new();
        m.note_begun("a");
        m.note_committed("a");
        m.note_committed("a");
        m.note_failed("a", Outcome::Deadlock);
        m.note_failed("a", Outcome::Rejected);
        m.note_failed("b", Outcome::Aborted);
        let a = m.db_counters("a");
        assert_eq!(a.committed, 2);
        assert_eq!(a.deadlocks, 1);
        assert_eq!(a.rejected, 1);
        assert_eq!(a.aborted, 0);
        let total = m.total_counters();
        assert_eq!(total.committed, 2);
        assert_eq!(total.aborted, 1);
        assert_eq!(m.registry().counter_value(TXN_BEGUN, &[("db", "a")]), 1);
    }

    #[test]
    fn observed_outcomes_come_from_live_counters() {
        let m = ClusterMetrics::new();
        for _ in 0..10 {
            m.note_committed("db1");
        }
        m.note_failed("db1", Outcome::Rejected);
        m.note_failed("db1", Outcome::Deadlock);
        m.note_failed("db1", Outcome::Aborted);
        let o = m.observed_outcomes("db1");
        assert_eq!(o.committed, 10);
        assert_eq!(o.rejected, 1);
        assert_eq!(o.workload_aborts, 2);
    }

    #[test]
    fn read_routes_label_policy_and_machine() {
        let m = ClusterMetrics::new();
        m.note_read_route(ReadPolicy::PinnedReplica, MachineId(0));
        m.note_read_route(ReadPolicy::PinnedReplica, MachineId(0));
        m.note_read_route(ReadPolicy::PerOperation, MachineId(1));
        assert_eq!(
            m.registry()
                .counter_value(READ_ROUTES, &[("policy", "pinned"), ("machine", "m0")]),
            2
        );
        assert_eq!(
            m.registry()
                .counter_value(READ_ROUTES, &[("policy", "per_op"), ("machine", "m1")]),
            1
        );
    }

    #[test]
    fn sla_admission_series_are_lazy_and_render() {
        let m = ClusterMetrics::new();
        // Ordinary traffic on an SLA-free database must not materialize any
        // admission series (the absent-cost contract).
        m.note_begun("plain");
        m.note_committed("plain");
        let text = m.registry().render_text();
        assert!(
            !text.contains("tenantdb_sla_"),
            "admission series leaked into an SLA-free registry:\n{text}"
        );
        assert_eq!(
            m.sla_admission_counters("plain"),
            AdmissionCounters::default()
        );

        // The first admission event creates the series and the debt gauge.
        let gate = tenantdb_sla::AdmissionGate::new(tenantdb_sla::AdmissionParams::from_sla(
            &tenantdb_sla::Sla::new(5.0, 0.1, std::time::Duration::from_secs(60)),
        ));
        m.note_sla_admitted("gated", &gate);
        m.note_sla_deferred("gated", &gate);
        m.note_sla_rejected("gated", &gate);
        let c = m.sla_admission_counters("gated");
        assert_eq!(c.admitted, 1);
        assert_eq!(c.deferred, 1);
        assert_eq!(c.rejected, 1);
        assert_eq!(c.total(), 3);
        let text = m.registry().render_text();
        for series in [SLA_ADMITTED, SLA_DEFERRED, SLA_REJECTED, SLA_GATE_DEBT] {
            assert!(text.contains(series), "{series} missing from:\n{text}");
        }
    }

    #[test]
    fn sla_debt_gauges_are_capped() {
        let m = ClusterMetrics::new();
        let gate = tenantdb_sla::AdmissionGate::new(tenantdb_sla::AdmissionParams::unlimited());
        for i in 0..(MAX_SLA_GAUGES + 10) {
            m.note_sla_admitted(&format!("db{i}"), &gate);
        }
        let text = m.registry().render_text();
        let gauges = text
            .lines()
            .filter(|l| l.starts_with(SLA_GATE_DEBT) && l.contains("db"))
            .count();
        assert_eq!(gauges, MAX_SLA_GAUGES, "debt gauges exceeded the cap");
        // Counters stay per-database past the cap.
        assert_eq!(
            m.sla_admission_counters(&format!("db{}", MAX_SLA_GAUGES + 5))
                .admitted,
            1
        );
    }

    #[test]
    fn write_rejection_counts_and_logs() {
        let m = ClusterMetrics::new();
        m.note_write_rejected("app", "orders");
        assert_eq!(
            m.registry()
                .counter_value(WRITE_REJECTIONS, &[("db", "app")]),
            1
        );
        let evs = m.events().all();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].kind, "write_rejected");
        assert_eq!(evs[0].field("table"), Some("orders"));
    }
}
