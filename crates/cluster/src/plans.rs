//! The per-database entry: the one controller-owned object a database's
//! derived state hangs off — its plans (SQL text → [`Plan`]), SLA gate and
//! metric series, each series made at its first use — resolved once per
//! connection.
//!
//! The paper's tenants are tens of thousands of small applications that
//! each replay the same handful of statements, and what a statement binds
//! to — tables, column offsets, access paths — is fixed by (schema, SQL
//! text). So the database is the unit, and what invalidated by name keeps
//! its meaning:
//! - **DDL** clears the plans and moves their generation; a plan bound
//!   across the move is served once, not cached. So no plan bound before a
//!   DDL is served after it.
//! - **Routing**: the controller group bumps one routing epoch
//!   ([`Dbs::epoch`]) whenever an applied command changes any database's
//!   placement or copy state. It never restarts, so a route cached for a
//!   dropped database is never current for the one re-created under its
//!   name.
//! - **`drop_database`** takes the entry out of the table and marks it
//!   dropped; its connections then look the name up again.
//!
//! A plan that a statement obtained just before its database was dropped
//! and re-created is refused by the executor itself (the table's shape
//! fingerprint), so the entry does not have to exclude that race.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use tenantdb_obs::Counter;
use tenantdb_sla::AdmissionGate;
use tenantdb_sql::{Plan, StatementClass};

use crate::error::{ClusterError, Result};
use crate::metrics::{ClusterMetrics, DbHandles, SlaHandles};
use crate::sync::{RwLock, CTRL_ADMISSION, CTRL_DBS, CTRL_PLANS_DB};

/// Plans kept per database. An application replays tens of statement
/// texts (TPC-W: ~30); one that splices literals into its SQL mints a new
/// text per call and, at the bound, drops its cache and starts over —
/// bounded memory, and no worse than planning every call.
const MAX_PLANS_PER_DB: usize = 256;

/// One database's plans. `generation` counts invalidations.
#[derive(Default)]
struct Plans {
    by_sql: HashMap<Box<str>, Arc<Plan>>,
    generation: u64,
}

/// See the module docs.
pub(crate) struct DbEntry {
    name: Box<str>,
    /// Set once the database is dropped.
    dropped: AtomicBool,
    plans: RwLock<Plans>,
    /// The SLA admission gate, once an SLA is installed.
    gate: RwLock<Option<Arc<AdmissionGate>>>,
    counters: OnceLock<DbHandles>,
    sla: OnceLock<SlaHandles>,
    tables_copied: OnceLock<Arc<Counter>>,
}

impl DbEntry {
    fn new(name: &str) -> Self {
        DbEntry {
            name: name.into(),
            dropped: AtomicBool::new(false),
            plans: RwLock::new(&CTRL_PLANS_DB, Plans::default()),
            gate: RwLock::new(&CTRL_ADMISSION, None),
            counters: OnceLock::new(),
            sla: OnceLock::new(),
            tables_copied: OnceLock::new(),
        }
    }

    /// The database's name.
    pub(crate) fn name(&self) -> &str {
        &self.name
    }

    /// True once the database was dropped.
    pub(crate) fn dropped(&self) -> bool {
        // ordering: Acquire pairs with `Dbs::remove`'s Release store: a
        // reader that sees the mark sees the entry already out of the table.
        self.dropped.load(Ordering::Acquire)
    }

    /// The outcome counters, resolved from `metrics` on first use.
    pub(crate) fn counters(&self, metrics: &ClusterMetrics) -> &DbHandles {
        self.counters.get_or_init(|| metrics.db_handles(&self.name))
    }

    /// The SLA admission series, resolved at the first admission event.
    pub(crate) fn sla(&self, metrics: &ClusterMetrics) -> &SlaHandles {
        self.sla.get_or_init(|| metrics.sla_handles(&self.name))
    }

    /// Tables copied onto new replicas, resolved at the first copy.
    pub(crate) fn tables_copied(&self, metrics: &ClusterMetrics) -> &Counter {
        self.tables_copied
            .get_or_init(|| metrics.tables_copied(&self.name))
    }

    /// The installed SLA gate, if any.
    pub(crate) fn gate(&self) -> Option<Arc<AdmissionGate>> {
        self.gate.read().clone()
    }

    pub(crate) fn set_gate(&self, gate: Option<Arc<AdmissionGate>>) {
        *self.gate.write() = gate;
    }

    /// The cached plan of `sql`, or the one `bind` makes — which is then
    /// cached, unless it is DDL (whose execution clears the plans) or the
    /// plans were cleared while it was bound.
    pub(crate) fn plan(
        &self,
        metrics: &ClusterMetrics,
        sql: &str,
        bind: impl FnOnce() -> Result<Plan>,
    ) -> Result<Arc<Plan>> {
        let generation = {
            let plans = self.plans.read();
            if let Some(plan) = plans.by_sql.get(sql) {
                metrics.plan_cache_hits.inc();
                return Ok(Arc::clone(plan));
            }
            plans.generation
        };
        metrics.plan_cache_misses.inc();
        let plan = Arc::new(bind()?);
        if plan.class() == StatementClass::Ddl {
            return Ok(plan);
        }
        let mut plans = self.plans.write();
        if plans.generation != generation {
            // The schema may have changed under `bind`: serve the plan
            // once, cache nothing.
            return Ok(plan);
        }
        if plans.by_sql.len() >= MAX_PLANS_PER_DB {
            metrics.plan_cache_evictions.add(plans.by_sql.len() as u64);
            plans.by_sql.clear();
        }
        plans.by_sql.insert(sql.into(), Arc::clone(&plan));
        Ok(plan)
    }

    /// Forget every plan (the schema changed, or the database is gone).
    pub(crate) fn invalidate_plans(&self) {
        let mut plans = self.plans.write();
        plans.by_sql.clear();
        plans.generation += 1;
    }

    /// Plans currently cached.
    #[cfg(test)]
    fn cached(&self) -> usize {
        self.plans.read().by_sql.len()
    }
}

/// Every database's entry, by name, and the routing epoch.
pub(crate) struct Dbs {
    map: RwLock<HashMap<String, Arc<DbEntry>>>,
    epoch: AtomicU64,
}

impl Default for Dbs {
    fn default() -> Self {
        Dbs {
            map: RwLock::new(&CTRL_DBS, HashMap::new()),
            epoch: AtomicU64::new(0),
        }
    }
}

impl Dbs {
    /// `db`'s entry. Only a create and a connect make one, so a name that
    /// was never created, or was dropped, has none: `NoSuchDatabase`.
    pub(crate) fn get(&self, db: &str) -> Result<Arc<DbEntry>> {
        let entry = self.map.read().get(db).cloned();
        entry.ok_or_else(|| ClusterError::NoSuchDatabase(db.to_string()))
    }

    /// `db`'s entry, made now if it has none (a create and a connect).
    pub(crate) fn entry(&self, db: &str) -> Arc<DbEntry> {
        if let Ok(e) = self.get(db) {
            return e;
        }
        let mut map = self.map.write();
        let fresh = || Arc::new(DbEntry::new(db));
        Arc::clone(map.entry(db.to_string()).or_insert_with(fresh))
    }

    /// `db` was dropped: its entry leaves the table marked dropped, with
    /// no plans and no gate.
    pub(crate) fn remove(&self, db: &str) {
        let Some(e) = self.map.write().remove(db) else {
            return;
        };
        e.invalidate_plans();
        e.set_gate(None);
        // ordering: Release, after the removal; see `DbEntry::dropped`.
        e.dropped.store(true, Ordering::Release);
    }

    /// The routing epoch: moves whenever what `route_info` answers for
    /// some database may have changed.
    pub(crate) fn epoch(&self) -> u64 {
        // ordering: Acquire pairs with `bump`'s SeqCst RMW: an epoch that
        // shows a bump shows the applied command behind it (see
        // `ClusterController::quiesce_routing` for the write-side argument).
        self.epoch.load(Ordering::Acquire)
    }

    /// Some database's routing changed.
    pub(crate) fn bump(&self) {
        // ordering: SeqCst — sequenced before the routing barrier's epoch
        // flip on the thread that applied the command; see `epoch`.
        self.epoch.fetch_add(1, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tenantdb_sql::{parse, plan};
    use tenantdb_storage::{Engine, EngineConfig};

    fn engine() -> Engine {
        let e = Engine::new(EngineConfig::for_tests());
        e.create_database("app").unwrap();
        e.with_txn(|t| {
            tenantdb_sql::execute(&e, t, "app", "CREATE TABLE t (k INT, v INT)", &[])
                .map_err(|_| tenantdb_storage::StorageError::Unavailable)
        })
        .unwrap();
        e
    }

    /// `[hits, misses, evictions]`.
    fn counts(m: &ClusterMetrics) -> [u64; 3] {
        [
            &m.plan_cache_hits,
            &m.plan_cache_misses,
            &m.plan_cache_evictions,
        ]
        .map(|c| c.get())
    }

    #[test]
    fn binds_once_per_text_and_counts() {
        let (e, metrics, dbs) = (engine(), ClusterMetrics::new(), Dbs::default());
        let sql = "SELECT v FROM t WHERE k = ?";
        let bind = || Ok(plan(&e, "app", &parse(sql)?)?);
        let app = dbs.entry("app");
        let first = app.plan(&metrics, sql, bind).unwrap();
        let again = dbs
            .entry("app")
            .plan(&metrics, sql, || panic!("a hit binds nothing"))
            .unwrap();
        assert!(Arc::ptr_eq(&first, &again));
        assert_eq!(counts(&metrics), [1, 1, 0]);
        // Another database shares nothing.
        dbs.entry("other").plan(&metrics, sql, bind).unwrap();
        assert_eq!(counts(&metrics), [1, 2, 0]);
    }

    #[test]
    fn errors_and_ddl_are_not_cached() {
        let (e, metrics) = (engine(), ClusterMetrics::new());
        let app = DbEntry::new("app");
        let e = &e;
        let bind = |sql: &'static str| move || Ok(plan(e, "app", &parse(sql)?)?);
        assert!(app
            .plan(&metrics, "SELECT 1 FROM nope", bind("SELECT 1 FROM nope"))
            .is_err());
        let ddl = "CREATE INDEX by_v ON t (v)";
        app.plan(&metrics, ddl, bind(ddl)).unwrap();
        assert_eq!(app.cached(), 0);
        assert_eq!(counts(&metrics), [0, 2, 0]);
    }

    #[test]
    fn invalidation_and_drop_clear_the_plans_and_mark_the_entry() {
        let (e, metrics, dbs) = (engine(), ClusterMetrics::new(), Dbs::default());
        let sql = "SELECT v FROM t";
        let bind = || Ok(plan(&e, "app", &parse(sql)?)?);
        let (app, other) = (dbs.entry("app"), dbs.entry("other"));
        app.plan(&metrics, sql, bind).unwrap();
        other.plan(&metrics, sql, bind).unwrap();
        app.invalidate_plans();
        assert_eq!((app.cached(), other.cached()), (0, 1));
        // A plan bound across an invalidation is served, not cached.
        app.plan(&metrics, sql, || {
            app.invalidate_plans();
            bind()
        })
        .unwrap();
        assert_eq!(app.cached(), 0);
        // The routing epoch only moves forward; a drop marks and detaches.
        let epoch = dbs.epoch();
        dbs.bump();
        assert_eq!(dbs.epoch(), epoch + 1);
        dbs.remove("other");
        assert!(other.dropped() && !app.dropped());
        assert_eq!(other.cached(), 0);
        assert!(dbs.get("other").is_err());
        assert!(!Arc::ptr_eq(&dbs.entry("other"), &other));
    }

    #[test]
    fn the_bound_is_enforced_by_starting_over() {
        let (e, metrics) = (engine(), ClusterMetrics::new());
        let app = DbEntry::new("app");
        for i in 0..=MAX_PLANS_PER_DB {
            let sql = format!("SELECT v FROM t WHERE k = {i}");
            app.plan(&metrics, &sql, || Ok(plan(&e, "app", &parse(&sql)?)?))
                .unwrap();
        }
        assert_eq!(app.cached(), 1);
        assert_eq!(
            counts(&metrics),
            [0, MAX_PLANS_PER_DB as u64 + 1, MAX_PLANS_PER_DB as u64]
        );
    }
}
