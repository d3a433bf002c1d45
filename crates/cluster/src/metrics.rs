//! Cluster metric names and cached hot-path handles (backed by
//! [`tenantdb_obs`]).
//!
//! One [`ClusterMetrics`] lives inside every
//! [`crate::controller::ClusterController`] and is the *single* store for
//! runtime counters: the SLA monitor, the benches, the shell's `\metrics`
//! command and the tests all read the same labelled registry counters.
//!
//! Handles for unlabelled hot-path series (2PC phase latencies, straggler
//! acks) are resolved once at construction; a database's outcome and SLA
//! series are resolved once into its controller entry, and a replica's
//! read-route series once into each connection's cached route, so the
//! steady-state cost of an increment is one relaxed atomic add. Reads by
//! name ([`ClusterMetrics::db_counters`] and friends) never create a series.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use crate::sync::{Mutex, METRICS_READ_ROUTES};

use tenantdb_obs::{Counter, EventLog, Gauge, Histogram, MetricsRegistry};
use tenantdb_sla::{AdmissionDecision, AdmissionGate};

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

/// Per-database outcome totals, read live from the registry's
/// [`TXN_OUTCOMES`] series.
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

/// One database's SLA admission series (kept by its controller entry,
/// resolved at its first admission event, so databases without SLAs stay
/// absent from the registry).
pub(crate) struct SlaHandles {
    admitted: Arc<Counter>,
    deferred: Arc<Counter>,
    rejected: Arc<Counter>,
    /// `None` when [`MAX_SLA_GAUGES`] other databases already carry a debt
    /// gauge.
    debt: Option<Arc<Gauge>>,
}

impl SlaHandles {
    /// Count one gate decision and sample the gate's debt.
    pub(crate) fn note(&self, decision: AdmissionDecision, gate: &AdmissionGate) {
        match decision {
            AdmissionDecision::Admit => &self.admitted,
            AdmissionDecision::Defer(_) => &self.deferred,
            AdmissionDecision::Reject => &self.rejected,
        }
        .inc();
        if let Some(g) = &self.debt {
            g.set(gate.debt_us() as i64);
        }
    }
}

/// One database's outcome series (kept by its controller entry). Each is
/// resolved at its own first event, so a tenant that only begins and
/// commits carries those two series and no zeros.
pub(crate) struct DbHandles {
    registry: Arc<MetricsRegistry>,
    db: Box<str>,
    begun: OnceLock<Arc<Counter>>,
    committed: OnceLock<Arc<Counter>>,
    deadlocks: OnceLock<Arc<Counter>>,
    rejected: OnceLock<Arc<Counter>>,
    aborted: OnceLock<Arc<Counter>>,
    write_rejections: OnceLock<Arc<Counter>>,
}

impl DbHandles {
    /// Count one event on `series`, resolving it as `name` (with `outcome`
    /// as its outcome label, if any) at its first event.
    fn inc(&self, series: &OnceLock<Arc<Counter>>, name: &'static str, outcome: Option<&str>) {
        let db = ("db", &*self.db);
        series
            .get_or_init(|| match outcome {
                Some(o) => self.registry.counter(name, &[db, ("outcome", o)]),
                None => self.registry.counter(name, &[db]),
            })
            .inc();
    }

    /// Count a begun transaction.
    pub(crate) fn begun(&self) {
        self.inc(&self.begun, TXN_BEGUN, None);
    }

    /// Count a committed transaction.
    pub(crate) fn committed(&self) {
        self.inc(&self.committed, TXN_OUTCOMES, Some("committed"));
    }

    /// Count a transaction that did not commit, under `outcome`.
    pub(crate) fn failed(&self, outcome: Outcome) {
        match outcome {
            Outcome::Deadlock => self.inc(&self.deadlocks, TXN_OUTCOMES, Some("deadlock")),
            Outcome::Rejected => self.inc(&self.rejected, TXN_OUTCOMES, Some("rejected")),
            Outcome::Aborted => self.inc(&self.aborted, TXN_OUTCOMES, Some("aborted")),
        }
    }
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
    read_routes: Mutex<HashMap<(ReadPolicy, MachineId), Arc<Counter>>>,
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
            read_routes: Mutex::new(&METRICS_READ_ROUTES, HashMap::new()),
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

    /// `db`'s outcome series, each made at its first event.
    pub(crate) fn db_handles(&self, db: &str) -> DbHandles {
        DbHandles {
            registry: Arc::clone(&self.registry),
            db: db.into(),
            begun: OnceLock::new(),
            committed: OnceLock::new(),
            deadlocks: OnceLock::new(),
            rejected: OnceLock::new(),
            aborted: OnceLock::new(),
            write_rejections: OnceLock::new(),
        }
    }

    /// Resolve `db`'s copied-tables counter (made now if absent).
    pub(crate) fn tables_copied(&self, db: &str) -> Arc<Counter> {
        self.registry.counter(RECOVERY_TABLES_COPIED, &[("db", db)])
    }

    /// Count an Algorithm-1 write rejection on `db`'s resolved `counters`
    /// and log the event.
    pub(crate) fn write_rejected(&self, counters: &DbHandles, db: &str, table: &str) {
        counters.inc(&counters.write_rejections, WRITE_REJECTIONS, None);
        self.registry.events().emit(
            "write_rejected",
            vec![("db", db.to_string()), ("table", table.to_string())],
        );
    }

    /// The counter of reads routed to `machine` under `policy`.
    pub(crate) fn read_route(&self, policy: ReadPolicy, machine: MachineId) -> Arc<Counter> {
        if let Some(c) = self.read_routes.lock().get(&(policy, machine)) {
            return Arc::clone(c);
        }
        let counter = self.registry.counter(
            READ_ROUTES,
            &[
                ("policy", policy_label(policy)),
                ("machine", &machine.to_string()),
            ],
        );
        let mut routes = self.read_routes.lock();
        Arc::clone(routes.entry((policy, machine)).or_insert(counter))
    }

    /// Live outcome totals for one database (zero for one with none).
    pub fn db_counters(&self, db: &str) -> DbCounters {
        let outcome = |o| {
            self.registry
                .counter_value(TXN_OUTCOMES, &[("db", db), ("outcome", o)])
        };
        DbCounters {
            committed: outcome("committed"),
            deadlocks: outcome("deadlock"),
            rejected: outcome("rejected"),
            aborted: outcome("aborted"),
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

    /// Resolve `db`'s SLA admission series (made now if absent). A debt
    /// gauge is made only while fewer than [`MAX_SLA_GAUGES`] exist; a
    /// database re-created under a name finds the gauge it already had.
    pub(crate) fn sla_handles(&self, db: &str) -> SlaHandles {
        let r = &self.registry;
        SlaHandles {
            admitted: r.counter(SLA_ADMITTED, &[("db", db)]),
            deferred: r.counter(SLA_DEFERRED, &[("db", db)]),
            rejected: r.counter(SLA_REJECTED, &[("db", db)]),
            debt: r.gauge_capped(SLA_GATE_DEBT, &[("db", db)], MAX_SLA_GAUGES),
        }
    }

    /// Live SLA admission totals for one database. Zero for databases whose
    /// gate never fired (including databases without SLAs).
    pub fn sla_admission_counters(&self, db: &str) -> AdmissionCounters {
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
        let (a, b) = (m.db_handles("a"), m.db_handles("b"));
        a.begun();
        a.committed();
        a.committed();
        a.failed(Outcome::Deadlock);
        a.failed(Outcome::Rejected);
        b.failed(Outcome::Aborted);
        let a = m.db_counters("a");
        assert_eq!(a.committed, 2);
        assert_eq!(a.deadlocks, 1);
        assert_eq!(a.rejected, 1);
        assert_eq!(a.aborted, 0);
        let total = m.total_counters();
        assert_eq!(total.committed, 2);
        assert_eq!(total.aborted, 1);
        assert_eq!(m.db_begun("a"), 1);
    }

    #[test]
    fn observed_outcomes_come_from_live_counters() {
        let m = ClusterMetrics::new();
        let h = m.db_handles("db1");
        for _ in 0..10 {
            h.committed();
        }
        h.failed(Outcome::Rejected);
        h.failed(Outcome::Deadlock);
        h.failed(Outcome::Aborted);
        let o = m.observed_outcomes("db1");
        assert_eq!(o.committed, 10);
        assert_eq!(o.rejected, 1);
        assert_eq!(o.workload_aborts, 2);
    }

    #[test]
    fn read_routes_label_policy_and_machine() {
        let m = ClusterMetrics::new();
        m.read_route(ReadPolicy::PinnedReplica, MachineId(0)).inc();
        m.read_route(ReadPolicy::PinnedReplica, MachineId(0)).inc();
        m.read_route(ReadPolicy::PerOperation, MachineId(1)).inc();
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
        let plain = m.db_handles("plain");
        plain.begun();
        plain.committed();
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
        let gate = AdmissionGate::new(tenantdb_sla::AdmissionParams::from_sla(
            &tenantdb_sla::Sla::new(5.0, 0.1, std::time::Duration::from_secs(60)),
        ));
        let gated = m.sla_handles("gated");
        gated.note(AdmissionDecision::Admit, &gate);
        gated.note(AdmissionDecision::Defer(Default::default()), &gate);
        gated.note(AdmissionDecision::Reject, &gate);
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
    fn write_rejection_counts_and_logs() {
        let m = ClusterMetrics::new();
        m.write_rejected(&m.db_handles("app"), "app", "orders");
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
