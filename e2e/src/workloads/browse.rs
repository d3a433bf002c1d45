//! A — `tpcw_browse_inproc`: the read path in isolation.
//!
//! TPC-W browsing mix (≈95 % read-only) on 4 machines, 4 databases × 2
//! replicas, 1 000 items each, a 16 384-page buffer pool per machine (the
//! working set fits) with free page costs, pinned-replica reads and
//! conservative writes, through in-process `Connection`s. Closed loop, two
//! sessions, each with one connection per database.
//!
//! `sql` parse + execution and `storage` reads do most of the work here;
//! `net`, 2PC, `consensus` and the WAL do almost none. It is the bypass
//! workload for every write-path, wire or replication optimisation: the
//! prediction for those is "no change here".

use std::sync::Arc;
use std::time::Duration;

use tenantdb_cluster::{ClusterController, Connection};
use tenantdb_storage::{CostModel, EngineConfig};
use tenantdb_tpcw::{Scale, BROWSING};

use super::{
    check_converged, check_fingerprint, cluster_config, fill_end_to_end, load_tpcw, timed_setup,
    LoadedDb, RunCfg, SESSIONS,
};
use crate::checks;
use crate::layers;
use crate::report::{MetricSet, RunOutput};
use crate::stream::{tpcw_fingerprint, TpcwSource};
use crate::trace::Traced;

pub const NAME: &str = "tpcw_browse_inproc";

pub const MACHINES: usize = 4;
pub const DBS: usize = 4;
pub const REPLICAS: usize = 2;
const ITEMS: usize = 1000;
const BUFFER_PAGES: usize = 16_384;

/// Fingerprint of the stream for seed 1 (full profile), see `stream.rs`.
pub const FINGERPRINT: u64 = 0x7c0c_e2f5_be36_1b82;

pub fn fingerprint() -> u64 {
    tpcw_fingerprint(DBS, Scale::with_items(ITEMS), &BROWSING)
}

pub fn scale(cfg: &RunCfg) -> Scale {
    Scale::with_items(cfg.scaled(ITEMS).max(100))
}

pub fn engine_config() -> EngineConfig {
    EngineConfig {
        buffer_pages: BUFFER_PAGES,
        cost: CostModel::free(),
        lock_timeout: Duration::from_millis(300),
    }
}

pub struct Env {
    pub cluster: Arc<ClusterController>,
    pub dbs: Vec<LoadedDb>,
}

pub fn build(cfg: &RunCfg) -> Env {
    let cluster =
        ClusterController::with_machines(cluster_config(engine_config(), cfg.seed), MACHINES);
    let dbs = load_tpcw(&cluster, DBS, REPLICAS, scale(cfg), cfg.seed).expect("load TPC-W");
    Env { cluster, dbs }
}

/// One session per generator thread, each with its own connection to every
/// database.
pub fn sources<T: tenantdb_cluster::Transport + Send>(
    env: &Env,
    cfg: &RunCfg,
    wrap: impl Fn(Connection) -> T,
) -> Vec<TpcwSource<T>> {
    (0..SESSIONS)
        .map(|i| {
            let conns = env
                .dbs
                .iter()
                .map(|d| {
                    let conn =
                        crate::trace::spanned("cluster.connect", || env.cluster.connect(&d.name))
                            .expect("connect");
                    (wrap(conn), Arc::clone(&d.ids))
                })
                .collect();
            TpcwSource::new(conns, scale(cfg), &BROWSING, cfg.seed, i)
        })
        .collect()
}

pub fn run(cfg: &RunCfg) -> RunOutput {
    let mut checks = vec![check_fingerprint(NAME, fingerprint(), FINGERPRINT)];
    let mut metrics = MetricSet::default();
    let mut notes = Vec::new();

    let (env, setup_s) = timed_setup(cfg, || build(cfg));
    let (attempted, failed);
    if !cfg.traced {
        let mut src = sources(&env, cfg, |c| c);
        let s = layers::warmed_window(
            cfg,
            &mut src,
            layers::Loop::Closed,
            cfg.window(),
            "window",
            &mut notes,
        );
        fill_end_to_end(&mut metrics, setup_s, &s);
        (attempted, failed) = (s.attempted, s.failed());
    } else {
        let mut src = sources(&env, cfg, Traced::in_process);
        let t = layers::traced_windows(
            cfg,
            &mut src,
            layers::Loop::Closed,
            &mut metrics,
            &mut notes,
            || layers::Counters::take(&[&env.cluster], None),
        );
        (attempted, failed) = (t.attempted, t.failed);
        layers::control_plane_spans(&mut metrics);
        layers::tpcw_ladder(
            cfg,
            layers::LadderShape {
                scale: scale(cfg),
                mix: &BROWSING,
                engine: engine_config(),
                io_costs: false,
                with_wire: false,
            },
            t.untraced_us_per_op,
            &mut metrics,
            &mut notes,
        );
        layers::storage_probes(cfg, &mut metrics);
        layers::write_trace(NAME, &mut notes);
    }
    checks.push(check_converged(&env.cluster, "primary"));
    checks.push(checks::transport_identity(&BROWSING, cfg.seed));
    RunOutput {
        workload: NAME,
        seed: cfg.seed,
        seconds: cfg.seconds,
        traced: cfg.traced,
        attempted,
        failed,
        checks,
        metrics,
        notes,
    }
}
