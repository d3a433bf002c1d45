//! B — `tpcw_order_tcp`: the full production write path.
//!
//! TPC-W ordering mix (≈50 % writes) on the same cluster shape as A but
//! with 2 000 items per database and the Figure 2–4 auto-sized buffer pool
//! (`approx_rows / 200` pages per machine — smaller than the two replicas
//! resident on each machine), with the default page-cost model switched on
//! once loading is done. Clients are `NetClient`s over loopback to a
//! `tenantdb-net` server in this process, sending protocol-v2 batch frames
//! exactly as `tpcw::run_txn` issues them. Closed loop, two sessions, each
//! with one connection per database.
//!
//! Wire decode → admission probe → routing barrier → executor handoff →
//! write-all → 2PC prepare / consensus decision / commit → WAL →
//! encode/flush: `net`, `cluster` 2PC and `consensus` do most of the work
//! here and little in A. `sql` and `storage` are the same layers as in A,
//! used for writes under cache pressure, so a read-path gain that costs
//! writes shows up here.

use std::sync::Arc;
use std::time::Duration;

use tenantdb_cluster::{ClusterController, Transport};
use tenantdb_net::{ConnectOptions, NetClient, Server, ServerConfig};
use tenantdb_platform::SystemController;
use tenantdb_storage::{CostModel, EngineConfig};
use tenantdb_tpcw::{Scale, ORDERING};

use super::{
    check_converged, check_fingerprint, create_tpcw_on_system, fill_end_to_end,
    single_cluster_system, timed_setup, LoadedDb, RunCfg, SESSIONS,
};
use crate::checks;
use crate::layers;
use crate::report::{MetricSet, RunOutput};
use crate::stream::{tpcw_fingerprint, TpcwSource};
use crate::trace::{self, Traced};

pub const NAME: &str = "tpcw_order_tcp";

const MACHINES: usize = 4;
const DBS: usize = 4;
const REPLICAS: usize = 2;
const ITEMS: usize = 2000;

/// Fingerprint of the stream for seed 1 (full profile), see `stream.rs`.
pub const FINGERPRINT: u64 = 0x5693_9297_f3df_a576;

pub fn fingerprint() -> u64 {
    tpcw_fingerprint(DBS, Scale::with_items(ITEMS), &ORDERING)
}

fn scale(cfg: &RunCfg) -> Scale {
    Scale::with_items(cfg.scaled(ITEMS).max(200))
}

/// The Figure 2–4 sizing: about one database's hot read set per machine.
fn engine_config(scale: Scale) -> EngineConfig {
    EngineConfig {
        buffer_pages: (scale.approx_rows() / 200).clamp(48, 4096),
        // Loading runs with free page costs; `build` switches the default
        // model on for everything that follows.
        cost: CostModel::free(),
        // Write-all lets two sessions lock the same row on two replicas in
        // opposite order; only the timeout breaks that, and until it does
        // both sessions stand still. That happened 5–11 times per 15 s
        // window: at the old harness's 300 ms it was a tenth of the window
        // and most of the run-to-run spread of `txn_per_s`. Transactions
        // here take ~1 ms, so 100 ms is still only ever a deadlock.
        lock_timeout: Duration::from_millis(100),
    }
}

pub struct Env {
    // Declared before `server` so client sockets close before it drains.
    pub system: Arc<SystemController>,
    pub cluster: Arc<ClusterController>,
    pub dbs: Vec<LoadedDb>,
    pub server: Server,
}

pub fn build(cfg: &RunCfg) -> Env {
    let scale = scale(cfg);
    let system = single_cluster_system(engine_config(scale), cfg.seed, MACHINES);
    let mut dbs = Vec::with_capacity(DBS);
    let mut cluster = None;
    for i in 0..DBS {
        let (c, db) = create_tpcw_on_system(
            &system,
            &format!("tpcw{i}"),
            REPLICAS,
            scale,
            cfg.seed + i as u64,
        )
        .expect("create and load TPC-W");
        dbs.push(db);
        cluster = Some(c);
    }
    let cluster = cluster.expect("at least one database");
    layers::switch_on_io_costs(&cluster);
    let server = Server::start("127.0.0.1:0", Arc::clone(&system), ServerConfig::default())
        .expect("start server");
    Env {
        system,
        cluster,
        dbs,
        server,
    }
}

fn sources<T: Transport + Send>(
    env: &Env,
    cfg: &RunCfg,
    wrap: impl Fn(NetClient) -> T,
) -> Vec<TpcwSource<T>> {
    (0..SESSIONS)
        .map(|i| {
            let conns = env
                .dbs
                .iter()
                .map(|d| {
                    let client = trace::spanned("net.connect", || {
                        NetClient::connect(
                            env.server.local_addr(),
                            &d.name,
                            ConnectOptions::default(),
                        )
                    })
                    .expect("connect over loopback");
                    (wrap(client), Arc::clone(&d.ids))
                })
                .collect();
            TpcwSource::new(conns, scale(cfg), &ORDERING, cfg.seed, i)
        })
        .collect()
}

pub fn run(cfg: &RunCfg) -> RunOutput {
    let mut checks = vec![check_fingerprint(NAME, fingerprint(), FINGERPRINT)];
    let mut metrics = MetricSet::default();
    let mut notes = Vec::new();

    let (env, setup_s) = timed_setup(cfg, || build(cfg));
    notes.push(format!(
        "buffer pool {} pages per machine, {} rows per database",
        engine_config(scale(cfg)).buffer_pages,
        scale(cfg).approx_rows()
    ));
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
        let mut src = sources(&env, cfg, Traced::wire);
        let net = env.server.metrics();
        let t = layers::traced_windows(
            cfg,
            &mut src,
            layers::Loop::Closed,
            &mut metrics,
            &mut notes,
            || layers::Counters::take(&[&env.cluster], Some(&net)),
        );
        (attempted, failed) = (t.attempted, t.failed);
        drop(src);
        layers::control_plane_spans(&mut metrics);
        layers::tpcw_ladder(
            cfg,
            layers::LadderShape {
                scale: scale(cfg),
                mix: &ORDERING,
                engine: engine_config(scale(cfg)),
                io_costs: true,
                with_wire: true,
            },
            t.untraced_us_per_op,
            &mut metrics,
            &mut notes,
        );
        layers::storage_probes(cfg, &mut metrics);
        layers::net_probes(
            cfg,
            &env.system,
            env.server.local_addr(),
            &env.dbs[0].name,
            &mut metrics,
        );
        layers::consensus_probe(cfg, &mut metrics);
        layers::write_trace(NAME, &mut notes);
    }
    checks.push(check_converged(&env.cluster, "primary"));
    checks.push(checks::transport_identity(&ORDERING, cfg.seed));
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
