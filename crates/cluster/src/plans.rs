//! The per-database plan cache: SQL text → [`Plan`], owned by the cluster
//! controller.
//!
//! The paper's tenants are tens of thousands of small applications that
//! each replay the same handful of statements, and what a statement binds
//! to — tables, column offsets, access paths — is fixed by (schema, SQL
//! text). So the database is the unit the derived state hangs off: one
//! cache entry per database, shared by all its connections and shipped to
//! every replica, dropped wholesale whenever that database's schema can
//! have changed (any DDL against it, and `drop_database`).
//!
//! Invalidation *detaches* the database's entry instead of emptying it: a
//! statement that looked the entry up before the schema change files its
//! plan into the detached object, which nobody will look into again. (A
//! database's *first* plan has no entry to file into yet; the generation
//! counter refuses to create one across an invalidation.) Either way no
//! plan bound before a DDL is served after it.
//!
//! A plan that a statement obtained just before its database was dropped
//! and re-created is refused by the executor itself (the table's shape
//! fingerprint), so the cache does not have to exclude that race.

use std::collections::HashMap;
use std::sync::Arc;

use tenantdb_obs::Counter;
use tenantdb_sql::{Plan, StatementClass};

use crate::error::Result;
use crate::metrics::ClusterMetrics;
use crate::sync::{RwLock, CTRL_PLANS, CTRL_PLANS_DB};

/// Plans kept per database. An application replays tens of statement
/// texts (TPC-W: ~30); one that splices literals into its SQL mints a new
/// text per call and, at the bound, drops its cache and starts over —
/// bounded memory, and no worse than planning every call.
const MAX_PLANS_PER_DB: usize = 256;

/// One database's plans, by SQL text.
#[derive(Default)]
struct DbPlans {
    by_sql: HashMap<Box<str>, Arc<Plan>>,
}

/// The registered entries. `generation` counts invalidations.
#[derive(Default)]
struct Entries {
    dbs: HashMap<String, Arc<RwLock<DbPlans>>>,
    generation: u64,
}

/// See the module docs.
pub(crate) struct PlanCache {
    entries: RwLock<Entries>,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    evictions: Arc<Counter>,
}

impl PlanCache {
    /// An empty cache counting into `metrics`' `tenantdb_plan_cache_*`.
    pub(crate) fn new(metrics: &ClusterMetrics) -> Self {
        PlanCache {
            entries: RwLock::new(&CTRL_PLANS, Entries::default()),
            hits: Arc::clone(&metrics.plan_cache_hits),
            misses: Arc::clone(&metrics.plan_cache_misses),
            evictions: Arc::clone(&metrics.plan_cache_evictions),
        }
    }

    /// The cached plan of `sql` in `db`, or the one `bind` makes — which is
    /// then cached, unless it is DDL (whose execution drops the cache).
    pub(crate) fn get_or_bind(
        &self,
        db: &str,
        sql: &str,
        bind: impl FnOnce() -> Result<Plan>,
    ) -> Result<Arc<Plan>> {
        let (entry, generation) = {
            let entries = self.entries.read();
            (entries.dbs.get(db).cloned(), entries.generation)
        };
        if let Some(plan) = entry
            .as_ref()
            .and_then(|e| e.read().by_sql.get(sql).cloned())
        {
            self.hits.inc();
            return Ok(plan);
        }
        self.misses.inc();
        let plan = Arc::new(bind()?);
        if plan.class() == StatementClass::Ddl {
            return Ok(plan);
        }
        let entry = match entry {
            Some(entry) => entry,
            None => {
                let mut entries = self.entries.write();
                if entries.generation != generation {
                    // The schema may have changed under `bind`: serve the
                    // plan once, cache nothing.
                    return Ok(plan);
                }
                let fresh = || Arc::new(RwLock::new(&CTRL_PLANS_DB, DbPlans::default()));
                Arc::clone(entries.dbs.entry(db.to_string()).or_insert_with(fresh))
            }
        };
        let mut plans = entry.write();
        if plans.by_sql.len() >= MAX_PLANS_PER_DB {
            self.evictions.add(plans.by_sql.len() as u64);
            plans.by_sql.clear();
        }
        plans.by_sql.insert(sql.into(), Arc::clone(&plan));
        Ok(plan)
    }

    /// Forget every plan of `db` (its schema changed, or it is gone).
    pub(crate) fn invalidate(&self, db: &str) {
        let mut entries = self.entries.write();
        entries.dbs.remove(db);
        entries.generation += 1;
    }

    /// Plans currently cached for `db`.
    #[cfg(test)]
    pub(crate) fn cached(&self, db: &str) -> usize {
        let entry = self.entries.read().dbs.get(db).cloned();
        entry.map_or(0, |e| e.read().by_sql.len())
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
        let (e, metrics) = (engine(), ClusterMetrics::new());
        let cache = PlanCache::new(&metrics);
        let sql = "SELECT v FROM t WHERE k = ?";
        let bind = || Ok(plan(&e, "app", &parse(sql)?)?);
        let first = cache.get_or_bind("app", sql, bind).unwrap();
        let again = cache
            .get_or_bind("app", sql, || panic!("a hit binds nothing"))
            .unwrap();
        assert!(Arc::ptr_eq(&first, &again));
        assert_eq!(counts(&metrics), [1, 1, 0]);
        // Another database shares nothing.
        cache.get_or_bind("other", sql, bind).unwrap();
        assert_eq!(counts(&metrics), [1, 2, 0]);
    }

    #[test]
    fn errors_and_ddl_are_not_cached() {
        let (e, metrics) = (engine(), ClusterMetrics::new());
        let cache = PlanCache::new(&metrics);
        let e = &e;
        let bind = |sql: &'static str| move || Ok(plan(e, "app", &parse(sql)?)?);
        assert!(cache
            .get_or_bind("app", "SELECT 1 FROM nope", bind("SELECT 1 FROM nope"))
            .is_err());
        let ddl = "CREATE INDEX by_v ON t (v)";
        cache.get_or_bind("app", ddl, bind(ddl)).unwrap();
        assert_eq!(cache.cached("app"), 0);
        assert_eq!(counts(&metrics), [0, 2, 0]);
    }

    #[test]
    fn invalidation_drops_the_database_wholesale() {
        let (e, metrics) = (engine(), ClusterMetrics::new());
        let cache = PlanCache::new(&metrics);
        let sql = "SELECT v FROM t";
        let bind = || Ok(plan(&e, "app", &parse(sql)?)?);
        cache.get_or_bind("app", sql, bind).unwrap();
        cache.get_or_bind("other", sql, bind).unwrap();
        cache.invalidate("app");
        assert_eq!((cache.cached("app"), cache.cached("other")), (0, 1));
        // A first plan bound across an invalidation is served, not cached.
        cache.invalidate("fresh");
        cache
            .get_or_bind("fresh", sql, || {
                cache.invalidate("fresh");
                bind()
            })
            .unwrap();
        assert_eq!(cache.cached("fresh"), 0);
    }

    #[test]
    fn the_bound_is_enforced_by_starting_over() {
        let (e, metrics) = (engine(), ClusterMetrics::new());
        let cache = PlanCache::new(&metrics);
        for i in 0..=MAX_PLANS_PER_DB {
            let sql = format!("SELECT v FROM t WHERE k = {i}");
            cache
                .get_or_bind("app", &sql, || Ok(plan(&e, "app", &parse(&sql)?)?))
                .unwrap();
        }
        assert_eq!(cache.cached("app"), 1);
        assert_eq!(
            counts(&metrics),
            [0, MAX_PLANS_PER_DB as u64 + 1, MAX_PLANS_PER_DB as u64]
        );
    }
}
