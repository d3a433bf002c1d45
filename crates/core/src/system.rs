//! The system controller and the platform-level client API (§2).
//!
//! The system controller owns the database directory: it places a
//! database's primary in the colo nearest its owner, reserves a standby in
//! the nearest *other* colo, and routes `connect()` calls to whichever colo
//! is currently primary. It moves no data. Within a colo the guarantees are
//! strong (synchronous replication + 2PC); across colos the standby is fed
//! asynchronously by a `tenantdb-georep` WAL stream the caller builds
//! between `colo(primary).cluster_for(db)` and
//! `colo(secondary).cluster_for(db)` — a colo failover can lose the
//! unshipped tail, which the paper accepts for low latency.

use std::collections::HashMap;
use std::sync::Arc;

use tenantdb_cluster::sync::{LockClass, RwLock};
use tenantdb_cluster::{ClusterConfig, ClusterError, Connection};
use tenantdb_sla::{ResourceVector, Sla};

use crate::colo::{Colo, ColoId};

/// Platform construction parameters.
#[derive(Debug, Clone)]
pub struct PlatformConfig {
    pub cluster: ClusterConfig,
    pub clusters_per_colo: usize,
    pub machines_per_cluster: usize,
}

impl Default for PlatformConfig {
    fn default() -> Self {
        PlatformConfig {
            cluster: ClusterConfig::default(),
            clusters_per_colo: 2,
            machines_per_cluster: 4,
        }
    }
}

impl PlatformConfig {
    pub fn for_tests() -> Self {
        PlatformConfig {
            cluster: ClusterConfig::for_tests(),
            ..Default::default()
        }
    }
}

/// Options for `create_database`.
#[derive(Debug, Clone)]
pub struct CreateOptions {
    /// Synchronous replicas within the primary colo's cluster.
    pub replicas: usize,
    /// The SLA contract (stored; placement uses `demand`).
    pub sla: Sla,
    /// Observed/estimated resource demand, enabling SLA-driven placement.
    pub demand: Option<ResourceVector>,
    /// Reserve and place a disaster-recovery standby in a second colo (fed
    /// by a `tenantdb-georep` stream; see [`SystemController::secondary_colo`]).
    pub cross_colo: bool,
}

impl Default for CreateOptions {
    fn default() -> Self {
        CreateOptions {
            replicas: 2,
            sla: Sla::default(),
            demand: None,
            cross_colo: true,
        }
    }
}

#[derive(Clone, Copy)]
struct DbEntry {
    primary: ColoId,
    secondary: Option<ColoId>,
    sla: Sla,
}

/// `SystemController::directory`. The platform's locks (7..9) sit between
/// the serving tier's and the cluster's, and nothing is acquired under them.
static PLATFORM_DIRECTORY: LockClass = LockClass::new("platform.system.directory", 7);
/// `SystemController::extra_metrics`.
static PLATFORM_METRICS: LockClass = LockClass::new("platform.system.extra_metrics", 9);

/// The system controller: the top of the §2 hierarchy.
pub struct SystemController {
    colos: Vec<Arc<Colo>>,
    directory: RwLock<HashMap<String, DbEntry>>,
    /// Additional metric registries included in [`Self::render_metrics`]:
    /// serving frontends and georep links register theirs here so one
    /// scrape covers the platform, its network tier and its DR streams.
    extra_metrics: RwLock<Vec<(String, Arc<tenantdb_obs::MetricsRegistry>)>>,
}

impl SystemController {
    /// Build a platform with colos at the given named locations.
    pub fn new(cfg: PlatformConfig, colos: &[(&str, (f64, f64))]) -> Arc<Self> {
        let colos = colos
            .iter()
            .enumerate()
            .map(|(i, (name, loc))| {
                Arc::new(Colo::new(
                    ColoId(i as u32),
                    *name,
                    *loc,
                    cfg.cluster,
                    cfg.clusters_per_colo,
                    cfg.machines_per_cluster,
                ))
            })
            .collect();
        Arc::new(SystemController {
            colos,
            directory: RwLock::new(&PLATFORM_DIRECTORY, HashMap::new()),
            extra_metrics: RwLock::new(&PLATFORM_METRICS, Vec::new()),
        })
    }

    pub fn colo(&self, id: ColoId) -> Option<&Arc<Colo>> {
        self.colos.iter().find(|c| c.id == id)
    }

    pub fn colos(&self) -> &[Arc<Colo>] {
        &self.colos
    }

    fn nearest_colo(&self, from: (f64, f64), exclude: Option<ColoId>) -> Option<&Arc<Colo>> {
        self.colos
            .iter()
            .filter(|c| !c.is_failed() && Some(c.id) != exclude)
            .min_by(|a, b| dist(a.location, from).total_cmp(&dist(b.location, from)))
    }

    /// Create a database with an SLA (§2 API point 1). The primary colo is
    /// the nearest to `owner_location`; the DR secondary (if requested) is
    /// the nearest *other* colo.
    pub fn create_database(
        &self,
        name: &str,
        owner_location: (f64, f64),
        opts: CreateOptions,
    ) -> Result<ColoId, ClusterError> {
        if self.directory.read().contains_key(name) {
            return Err(ClusterError::AlreadyExists(name.to_string()));
        }
        let primary = self
            .nearest_colo(owner_location, None)
            .ok_or(ClusterError::NoMachines)?;
        primary.create_database(name, opts.replicas, opts.demand)?;
        let secondary = if opts.cross_colo {
            match self.nearest_colo(owner_location, Some(primary.id)) {
                Some(colo) => {
                    // The DR standby is a single replica.
                    colo.create_database(name, 1, opts.demand)?;
                    Some(colo.id)
                }
                None => None,
            }
        } else {
            None
        };
        self.directory.write().insert(
            name.to_string(),
            DbEntry {
                primary: primary.id,
                secondary,
                sla: opts.sla,
            },
        );
        Ok(primary.id)
    }

    pub fn sla(&self, db: &str) -> Option<Sla> {
        self.directory.read().get(db).map(|e| e.sla)
    }

    pub fn primary_colo(&self, db: &str) -> Option<ColoId> {
        self.directory.read().get(db).map(|e| e.primary)
    }

    /// The colo holding `db`'s DR standby, if one was reserved at creation
    /// and no failover has consumed it. A georep link runs from
    /// `colo(primary_colo).cluster_for(db)` to this colo's `cluster_for(db)`.
    pub fn secondary_colo(&self, db: &str) -> Option<ColoId> {
        self.directory.read().get(db).and_then(|e| e.secondary)
    }

    fn entry(&self, db: &str) -> Result<DbEntry, ClusterError> {
        self.directory
            .read()
            .get(db)
            .copied()
            .ok_or_else(|| ClusterError::NoSuchDatabase(db.to_string()))
    }

    /// Connect to a database (§2 API point 2). Routed to the primary colo's
    /// hosting cluster; `client_location` is used only to pick among
    /// replicas of equal standing (here: validation + future use).
    pub fn connect(
        &self,
        db: &str,
        _client_location: (f64, f64),
    ) -> Result<Connection, ClusterError> {
        let entry = self.entry(db)?;
        let colo = self
            .colo(entry.primary)
            .filter(|c| !c.is_failed())
            .ok_or(ClusterError::NoMachines)?;
        let cluster = colo
            .cluster_for(db)
            .ok_or_else(|| ClusterError::NoSuchDatabase(db.to_string()))?;
        cluster.connect(db)
    }

    /// Disaster failover, the routing half: point `db`'s directory entry at
    /// its secondary colo (returned), so new `connect()` calls land there.
    /// Call it after `tenantdb_georep::promote` has fenced the old primary
    /// and opened the standby; the standby slot is consumed.
    pub fn failover(&self, db: &str) -> Result<ColoId, ClusterError> {
        let mut dir = self.directory.write();
        let entry = dir
            .get_mut(db)
            .ok_or_else(|| ClusterError::NoSuchDatabase(db.to_string()))?;
        let secondary = entry.secondary.take().ok_or(ClusterError::NoMachines)?;
        entry.primary = secondary;
        Ok(secondary)
    }

    /// Platform-wide metrics scrape: every cluster's text exposition,
    /// grouped under a comment header naming its colo and cluster index.
    /// Each cluster keeps its own registry, so series from different
    /// clusters never collide even when label sets match.
    pub fn render_metrics(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for colo in &self.colos {
            for (i, cluster) in colo.clusters().iter().enumerate() {
                let _ = writeln!(out, "# ==== {} ({}) cluster {}", colo.name, colo.id, i);
                // Refresh the tenantdb_ctrl_* gauges (and drain pending
                // ctrl_elected events) — they are views of the consensus
                // group, not ledgers, so a scrape is the natural sync point.
                cluster.sync_ctrl_metrics();
                out.push_str(&cluster.metrics().registry().render_text());
            }
        }
        for (label, reg) in self.extra_metrics.read().iter() {
            let _ = writeln!(out, "# ==== {label}");
            out.push_str(&reg.render_text());
        }
        out
    }

    /// Include an external metric registry in [`Self::render_metrics`]
    /// scrapes under a `# ==== <label>` header. Serving frontends pass
    /// `net <addr>`, georep links `georep <db>`, so wire and DR metrics
    /// appear alongside the clusters they front.
    pub fn register_metrics_source(
        &self,
        label: impl Into<String>,
        registry: Arc<tenantdb_obs::MetricsRegistry>,
    ) {
        self.extra_metrics.write().push((label.into(), registry));
    }

    /// Live §4.1 compliance verdict for `db` over `window`, checked against
    /// its stored SLA using the primary colo's live outcome counters.
    /// `None` when the database is unknown or its primary colo is down.
    pub fn sla_compliance(
        &self,
        db: &str,
        window: std::time::Duration,
    ) -> Option<tenantdb_sla::Compliance> {
        let entry = self.entry(db).ok()?;
        let colo = self.colo(entry.primary).filter(|c| !c.is_failed())?;
        let cluster = colo.cluster_for(db)?;
        Some(cluster.sla_compliance(db, &entry.sla, window))
    }
}

fn dist(a: (f64, f64), b: (f64, f64)) -> f64 {
    let (dx, dy) = (a.0 - b.0, a.1 - b.1);
    (dx * dx + dy * dy).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tenantdb_storage::Value;

    const WEST: (f64, f64) = (0.0, 0.0);
    const EAST: (f64, f64) = (100.0, 0.0);

    fn platform() -> Arc<SystemController> {
        SystemController::new(
            PlatformConfig::for_tests(),
            &[("west", WEST), ("east", EAST)],
        )
    }

    #[test]
    fn primary_is_nearest_colo() {
        let p = platform();
        p.create_database("app", (10.0, 0.0), CreateOptions::default())
            .unwrap();
        assert_eq!(p.primary_colo("app"), Some(ColoId(0)));
        assert_eq!(p.secondary_colo("app"), Some(ColoId(1)));
        p.create_database("app2", (90.0, 0.0), CreateOptions::default())
            .unwrap();
        assert_eq!(p.primary_colo("app2"), Some(ColoId(1)));
    }

    #[test]
    fn end_to_end_sql_through_platform() {
        let p = platform();
        p.create_database("notes", WEST, CreateOptions::default())
            .unwrap();
        let conn = p.connect("notes", WEST).unwrap();
        conn.execute(
            "CREATE TABLE n (id INT NOT NULL, body TEXT, PRIMARY KEY (id))",
            &[],
        )
        .unwrap();
        conn.begin().unwrap();
        conn.execute("INSERT INTO n VALUES (1, 'hello')", &[])
            .unwrap();
        conn.commit().unwrap();
        let r = conn
            .execute("SELECT body FROM n WHERE id = 1", &[])
            .unwrap();
        assert_eq!(r.rows[0][0], Value::from("hello"));
    }

    #[test]
    fn connect_to_failed_primary_errors_until_failover() {
        let p = platform();
        p.create_database("app", WEST, CreateOptions::default())
            .unwrap();
        p.colo(ColoId(0)).unwrap().fail();
        assert!(p.connect("app", WEST).is_err());
        p.failover("app").unwrap();
        assert!(p.connect("app", WEST).is_ok());
    }

    #[test]
    fn platform_metrics_and_compliance_come_from_live_clusters() {
        let p = platform();
        let sla = Sla::new(0.01, 0.01, std::time::Duration::from_secs(60));
        p.create_database(
            "app",
            WEST,
            CreateOptions {
                sla,
                ..Default::default()
            },
        )
        .unwrap();
        let conn = p.connect("app", WEST).unwrap();
        conn.execute("CREATE TABLE t (id INT NOT NULL, PRIMARY KEY (id))", &[])
            .unwrap();
        conn.execute("INSERT INTO t VALUES (1)", &[]).unwrap();

        // The scrape covers every cluster in every colo, and the primary's
        // committed counter reflects the work just done.
        let text = p.render_metrics();
        assert!(text.contains("# ==== west (colo0) cluster 0"), "{text}");
        assert!(text.contains("# ==== east (colo1) cluster 0"));
        assert!(
            text.contains("tenantdb_txn_outcomes_total{db=\"app\",outcome=\"committed\"}"),
            "{text}"
        );

        // Compliance reads the same counters: ≥1 commit in 60s ≥ 0.01 TPS.
        let c = p.sla_compliance("app", std::time::Duration::from_secs(60));
        assert!(c.expect("known db").ok());
        assert!(p
            .sla_compliance("nope", std::time::Duration::from_secs(60))
            .is_none());

        // After the primary colo fails there is no live registry to judge.
        p.colo(ColoId(0)).unwrap().fail();
        assert!(p
            .sla_compliance("app", std::time::Duration::from_secs(60))
            .is_none());
    }

    #[test]
    fn sla_is_stored() {
        let p = platform();
        let sla = Sla::new(5.0, 0.001, std::time::Duration::from_secs(60));
        p.create_database(
            "app",
            WEST,
            CreateOptions {
                sla,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(p.sla("app"), Some(sla));
        assert_eq!(p.sla("nope"), None);
    }
}
