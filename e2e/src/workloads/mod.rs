//! The four workloads and what they share.
//!
//! | name | short | shape |
//! |---|---|---|
//! | `tpcw_browse_inproc` | A | TPC-W browsing mix, working set fits, in-process |
//! | `tpcw_order_tcp` | B | TPC-W ordering mix, pool smaller than data, over TCP |
//! | `tenants_zipf_open` | C | thousands of tiny tenants, open loop, SLA gate armed |
//! | `tpcw_shop_failover` | D | TPC-W shopping mix through machine loss, controller loss and colo promotion |
//!
//! README.md in this package says why each exists.

pub mod browse;
pub mod failover;
pub mod order;
pub mod tenants;

use std::sync::Arc;
use std::time::{Duration, Instant};

use tenantdb_cluster::{
    testkit, ClusterConfig, ClusterController, ClusterError, ReadPolicy, WritePolicy,
};
use tenantdb_platform::{CreateOptions, PlatformConfig, SystemController};
use tenantdb_storage::EngineConfig;
use tenantdb_tpcw::{IdCounters, Scale};

use crate::drivers::{Window, WindowSummary};
use crate::proc;
use crate::report::{Check, MetricSet, RunOutput};
use crate::stats;
use crate::trace;

/// Generator threads in every workload: the reference host has two cores,
/// and load never comes from more threads than cores.
pub const SESSIONS: usize = 2;

/// How often the untraced run builds its system from scratch; `setup_s` is
/// the median.
const SETUP_REPS: usize = 3;

/// Parameters of one run.
#[derive(Debug, Clone, Copy)]
pub struct RunCfg {
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    pub traced: bool,
    /// Scale data and rates down to a tenth (smoke runs; never comparable
    /// with full runs).
    pub quick: bool,
}

impl RunCfg {
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    /// Warm-up: a tenth of the window, same stream shape, different salt.
    /// A fixed wall time, hence not part of `setup_s` (a constant would
    /// only dilute the bound).
    pub fn warmup(&self) -> Duration {
        Duration::from_secs_f64((self.seconds * 0.1).max(0.2))
    }

    /// The traced run measures two short windows on the same system — one
    /// untraced, one traced — a quarter of the window each; the rest of its
    /// time goes to the ladder and the direct probes.
    pub fn short_window(&self) -> Duration {
        Duration::from_secs_f64((self.seconds * 0.25).max(0.5))
    }

    /// A quantity scaled to the quick profile.
    pub fn scaled(&self, full: usize) -> usize {
        if self.quick {
            (full / 10).max(1)
        } else {
            full
        }
    }

    /// Operations for a fixed-count probe sized so it takes about `share`
    /// of the window at `per_op`.
    pub fn ops_for(&self, share: f64, per_op: Duration) -> u64 {
        ((self.seconds * share / per_op.as_secs_f64()) as u64).max(200)
    }
}

pub const NAMES: [&str; 4] = [browse::NAME, order::NAME, tenants::NAME, failover::NAME];

/// Run one workload by name.
pub fn run(name: &str, cfg: &RunCfg) -> Option<RunOutput> {
    if cfg.traced {
        // The main thread makes the control-plane calls (create, DDL, SLA,
        // connect, promote); they are spanned like everything else.
        trace::enable();
    }
    match name {
        browse::NAME => Some(browse::run(cfg)),
        order::NAME => Some(order::run(cfg)),
        tenants::NAME => Some(tenants::run(cfg)),
        failover::NAME => Some(failover::run(cfg)),
        _ => None,
    }
}

/// Build the system `reps` times, keep the last, and return the median
/// build time. The earlier builds are dropped before the next starts, so
/// peak memory stays that of one system.
pub fn timed_setup<E>(cfg: &RunCfg, build: impl Fn() -> E) -> (E, f64) {
    let reps = if cfg.traced { 1 } else { SETUP_REPS };
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(build());
        times.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("at least one build"), stats::median(&times))
}

/// The cluster settings every workload and every ladder rung runs with:
/// reads pinned to one replica, conservative write-all.
pub fn cluster_config(engine: EngineConfig, seed: u64) -> ClusterConfig {
    ClusterConfig {
        read_policy: ReadPolicy::PinnedReplica,
        write_policy: WritePolicy::Conservative,
        engine,
        seed,
        ..Default::default()
    }
}

/// Where every database's owner sits; the platform has one colo.
const HERE: (f64, f64) = (0.0, 0.0);

/// A platform of one colo holding one cluster of `machines`: what a
/// `tenantdb-net` server fronts.
pub fn single_cluster_system(
    engine: EngineConfig,
    seed: u64,
    machines: usize,
) -> Arc<SystemController> {
    SystemController::new(
        PlatformConfig {
            cluster: cluster_config(engine, seed),
            clusters_per_colo: 1,
            machines_per_cluster: machines,
            ..Default::default()
        },
        &[("local", HERE)],
    )
}

/// Create `name` on `system` with `replicas` replicas and load TPC-W into
/// it; returns the hosting cluster with the loaded database.
pub fn create_tpcw_on_system(
    system: &SystemController,
    name: &str,
    replicas: usize,
    scale: Scale,
    seed: u64,
) -> Result<(Arc<ClusterController>, LoadedDb), ClusterError> {
    trace::spanned("cluster.create_database", || {
        system.create_database(
            name,
            HERE,
            CreateOptions {
                replicas,
                cross_colo: false,
                ..CreateOptions::default()
            },
        )
    })?;
    let cluster = system.colos()[0]
        .cluster_for(name)
        .expect("the colo that created the database hosts it");
    let db = load_tpcw_into(&cluster, name, scale, seed)?;
    Ok((cluster, db))
}

/// A TPC-W database loaded on a cluster.
pub struct LoadedDb {
    pub name: String,
    pub ids: Arc<IdCounters>,
}

/// Create `n_dbs` TPC-W databases (`tpcw0`…) with `replicas` replicas each
/// and load them at `scale`. The control-plane calls are spanned, so the
/// traced run prices `create_database` and `ddl`.
pub fn load_tpcw(
    cluster: &Arc<ClusterController>,
    n_dbs: usize,
    replicas: usize,
    scale: Scale,
    seed: u64,
) -> Result<Vec<LoadedDb>, ClusterError> {
    let mut out = Vec::with_capacity(n_dbs);
    for i in 0..n_dbs {
        let name = format!("tpcw{i}");
        trace::spanned("cluster.create_database", || {
            cluster.create_database(&name, replicas)
        })?;
        out.push(load_tpcw_into(cluster, &name, scale, seed + i as u64)?);
    }
    Ok(out)
}

/// Schema + rows for one already-created database.
pub fn load_tpcw_into(
    cluster: &Arc<ClusterController>,
    name: &str,
    scale: Scale,
    seed: u64,
) -> Result<LoadedDb, ClusterError> {
    for sql in tenantdb_tpcw::schema::DDL {
        trace::spanned("cluster.ddl", || cluster.ddl(name, sql))?;
    }
    let conn = trace::spanned("cluster.connect", || cluster.connect(name))?;
    let space = tenantdb_tpcw::populate(&conn, scale, seed)?;
    Ok(LoadedDb {
        name: name.to_string(),
        ids: IdCounters::from_space(space),
    })
}

/// `testkit::replicas_converged` for every database of `cluster`, as one
/// check.
pub fn check_converged(cluster: &ClusterController, label: &str) -> Check {
    let mut dbs = cluster.database_names();
    dbs.sort();
    let verdict = dbs
        .iter()
        .try_for_each(|db| testkit::replicas_converged(cluster, db))
        // The full divergence dump can be megabytes; the head names the db.
        .map_err(|e| e.chars().take(400).collect());
    Check {
        name: format!("replicas_converged[{label}] ({} dbs)", dbs.len()),
        verdict,
    }
}

pub fn check(name: impl Into<String>, ok: bool, why: impl FnOnce() -> String) -> Check {
    Check {
        name: name.into(),
        verdict: if ok { Ok(()) } else { Err(why()) },
    }
}

/// Compare a stream's fingerprint with the recorded one.
pub fn check_fingerprint(workload: &str, got: u64, recorded: u64) -> Check {
    check(
        format!("stream_fingerprint[{workload}]"),
        got == recorded,
        || {
            format!(
                "the seeded stream changed: fingerprint {got:#018x}, recorded {recorded:#018x}. \
             If tenantdb-tpcw's generator was changed on purpose, re-record it in its own PR \
             (README.md, \"Changing the benchmark\") and re-measure the baseline."
            )
        },
    )
}

/// Fill the end-to-end metrics from the untraced window.
pub fn fill_end_to_end(m: &mut MetricSet, setup_s: f64, s: &WindowSummary) {
    m.set("setup_s", setup_s);
    m.set_summary("txn_per_s", s.txn_per_s);
    m.set_summary("cpu_us_per_txn", s.cpu_us_per_txn);
    m.set_summary("read_p50_us", s.read_p50_us);
    m.set_summary("write_p50_us", s.write_p50_us);
    m.set("rss_mb", proc::peak_rss_mib().unwrap_or(0.0));
}

/// The same for a window that is not stationary by design (workload D):
/// its figures are taken over the whole window, see
/// [`crate::drivers::WholeWindow`].
pub fn fill_end_to_end_whole(m: &mut MetricSet, setup_s: f64, s: &WindowSummary) {
    m.set("setup_s", setup_s);
    m.set("txn_per_s", s.whole.txn_per_s);
    m.set("cpu_us_per_txn", s.whole.cpu_us_per_txn);
    m.set("read_p50_us", s.whole.read_p50_us);
    m.set("write_p50_us", s.whole.write_p50_us);
    m.set("rss_mb", proc::peak_rss_mib().unwrap_or(0.0));
}

/// Notes every run prints about a window.
pub fn window_notes(label: &str, w: &Window, s: &WindowSummary) -> Vec<String> {
    let fmt = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.0}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let mut notes = vec![
        format!(
            "{label}: {:.1}s, {} operations, {} committed, {} refused attempts \
             (deadlock {}, timeout {}, rejected {}, other {}), mean service {:.1}us",
            s.wall_s,
            s.attempted,
            s.committed,
            s.refused_attempts,
            w.failures.deadlock,
            w.failures.timeout,
            w.failures.rejected,
            w.failures.other,
            s.mean_service_us,
        ),
        format!(
            "{label}: tails over the whole window: read p{:.0} {:.1}us of {} samples, \
             write p{:.0} {:.1}us of {} samples",
            s.read_tail.q * 100.0,
            s.read_tail.us,
            s.read_tail.n,
            s.write_tail.q * 100.0,
            s.write_tail.us,
            s.write_tail.n,
        ),
        format!(
            "{label}: per segment txn/s [{}], cpu us/txn [{}]",
            fmt(&s.seg_tps),
            fmt(&s.seg_cpu_us)
        ),
    ];
    for e in &w.failures.examples {
        notes.push(format!("{label}: refused with: {e}"));
    }
    notes
}

/// Where run artefacts go: `<target>/e2e/`, inside the build directory, so
/// no tracked file is ever written.
pub fn artefact_dir() -> std::path::PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| "target".into());
    target.join("e2e")
}
