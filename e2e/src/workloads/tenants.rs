//! C — `tenants_zipf_open`: a large number of small applications.
//!
//! 2 000 tiny tenants (`CREATE TABLE t (k INT PRIMARY KEY, v TEXT)`, 8
//! seeded rows) × 2 replicas on 4 machines. Every tenant has an SLA whose
//! floor is far above anything it is offered, so the admission gate is
//! armed on every `begin` and expected to shed nothing. Tenant drawn
//! Zipf(1.1), key uniform; 80 % `BEGIN; SELECT; COMMIT`, 20 % `BEGIN;
//! UPDATE; COMMIT` through plain `Transport::execute` — the SQL text is
//! parsed on every call, as a small application's would be — in process.
//!
//! **Open loop**: two generator threads on a fixed schedule of 4 000
//! transactions per second in total (about a quarter of closed-loop
//! capacity on the reference host; a constant, never auto-tuned).
//! Independent small applications do not wait for each other. Latency runs
//! from the due time.
//!
//! Per-transaction fixed costs dominate here: the `sla` gate, the
//! placement / route lookup among 2 000 entries, one machine's shared lock
//! table and log under 1 000 co-resident tenants, re-parsing one-line SQL,
//! per-tenant metric cardinality, memory per tenant. `setup_s` is tenant
//! onboarding: three replicated metadata operations per tenant. TPC-W
//! statements are too heavy to show any of this.

use std::sync::Arc;
use std::time::Duration;

use tenantdb_cluster::{ClusterController, ClusterError, Connection, Transport};
use tenantdb_sla::Sla;
use tenantdb_storage::{CostModel, EngineConfig, Value};

use super::{
    check, check_converged, check_fingerprint, cluster_config, fill_end_to_end, timed_setup,
    RunCfg, SESSIONS,
};
use crate::layers;
use crate::report::{MetricSet, RunOutput};
use crate::stream::{
    tenant_fingerprint, tenant_name, TenantSource, Zipf, TENANT_DDL, TENANT_ROWS, TENANT_ZIPF_S,
};
use crate::trace::{self, Traced};

pub const NAME: &str = "tenants_zipf_open";

const MACHINES: usize = 4;
const REPLICAS: usize = 2;
const TENANTS: usize = 2000;
/// Offered load, transactions per second over all tenants. Fixed.
const RATE_PER_S: f64 = 4000.0;
/// SLA floor per tenant. The most popular of 2 000 Zipf(1.1) tenants draws
/// under a fifth of the load (< 800/s); the gate provisions twice the
/// floor, so nothing is ever shed.
const SLA_MIN_TPS: f64 = 10_000.0;

/// Fingerprint of the stream for seed 1 (full profile), see `stream.rs`.
pub const FINGERPRINT: u64 = 0xd7b7_dca3_833f_3312;

pub fn fingerprint() -> u64 {
    tenant_fingerprint(TENANTS)
}

fn tenants(cfg: &RunCfg) -> usize {
    cfg.scaled(TENANTS)
}

fn rate(cfg: &RunCfg) -> f64 {
    if cfg.quick {
        RATE_PER_S / 10.0
    } else {
        RATE_PER_S
    }
}

pub fn engine_config() -> EngineConfig {
    EngineConfig {
        buffer_pages: 16_384,
        cost: CostModel::free(),
        lock_timeout: Duration::from_millis(300),
    }
}

pub struct Env {
    pub cluster: Arc<ClusterController>,
}

/// The SLA every tenant of the workload gets.
fn tenant_sla() -> Sla {
    Sla::new(SLA_MIN_TPS, 0.9, Duration::from_secs(60))
}

/// Onboard one tenant: database, table, SLA (if any), seed rows.
pub fn onboard(
    cluster: &Arc<ClusterController>,
    name: &str,
    replicas: usize,
    sla: Option<Sla>,
) -> Result<(), ClusterError> {
    trace::spanned("cluster.create_database", || {
        cluster.create_database(name, replicas)
    })?;
    trace::spanned("cluster.ddl", || cluster.ddl(name, TENANT_DDL))?;
    if let Some(sla) = sla {
        trace::spanned("cluster.set_sla", || cluster.set_sla(name, sla))?;
    }
    let conn = trace::spanned("cluster.connect", || cluster.connect(name))?;
    conn.begin()?;
    for k in 0..TENANT_ROWS {
        conn.execute(
            "INSERT INTO t VALUES (?, ?)",
            &[Value::Int(k), Value::Text(format!("seed{k}"))],
        )?;
    }
    conn.commit()
}

pub fn build(cfg: &RunCfg) -> Env {
    let cluster =
        ClusterController::with_machines(cluster_config(engine_config(), cfg.seed), MACHINES);
    for i in 0..tenants(cfg) {
        onboard(&cluster, &tenant_name(i), REPLICAS, Some(tenant_sla())).expect("onboard tenant");
    }
    Env { cluster }
}

fn sources<T: Transport + Send + 'static>(
    env: &Env,
    cfg: &RunCfg,
    wrap: fn(Connection) -> T,
) -> Vec<TenantSource<T>> {
    let zipf = Arc::new(Zipf::new(tenants(cfg), TENANT_ZIPF_S));
    (0..SESSIONS)
        .map(|i| {
            let cluster = Arc::clone(&env.cluster);
            TenantSource::new(
                tenants(cfg),
                Arc::clone(&zipf),
                cfg.seed,
                i,
                Box::new(move |db| {
                    trace::spanned("cluster.connect", || cluster.connect(db)).map(wrap)
                }),
            )
        })
        .collect()
}

pub fn run(cfg: &RunCfg) -> RunOutput {
    let mut checks = vec![check_fingerprint(NAME, fingerprint(), FINGERPRINT)];
    let mut metrics = MetricSet::default();
    let mut notes = vec![format!(
        "{} tenants, open loop at {} txn/s over {SESSIONS} generator threads",
        tenants(cfg),
        rate(cfg)
    )];

    let (env, setup_s) = timed_setup(cfg, || build(cfg));
    let (attempted, failed);
    if !cfg.traced {
        let mut src = sources(&env, cfg, |c| c);
        let s = layers::warmed_window(
            cfg,
            &mut src,
            layers::Loop::Open(rate(cfg)),
            cfg.window(),
            "window",
            &mut notes,
        );
        notes.push(format!(
            "late sends {} of {} ({:.4}); connections opened {}",
            s.late,
            s.attempted,
            s.late_frac(),
            src.iter()
                .map(TenantSource::open_connections)
                .sum::<usize>()
        ));
        fill_end_to_end(&mut metrics, setup_s, &s);
        (attempted, failed) = (s.attempted, s.failed());
    } else {
        let mut src = sources(&env, cfg, Traced::in_process);
        let t = layers::traced_windows(
            cfg,
            &mut src,
            layers::Loop::Open(rate(cfg)),
            &mut metrics,
            &mut notes,
            || layers::Counters::take(&[&env.cluster], None),
        );
        (attempted, failed) = (t.attempted, t.failed);
        layers::control_plane_spans(&mut metrics);
        layers::tenant_ladder(
            cfg,
            tenants(cfg).min(400),
            t.untraced_us_per_op,
            &mut metrics,
            &mut notes,
        );
        layers::storage_probes(cfg, &mut metrics);
        layers::sla_probes(cfg, tenants(cfg), &mut metrics);
        layers::consensus_probe(cfg, &mut metrics);
        layers::obs_probe(&env.cluster, &mut metrics);
        layers::write_trace(NAME, &mut notes);
    }
    let shed = env
        .cluster
        .metrics()
        .registry()
        .counter_sum("tenantdb_sla_rejected_total", &[]);
    checks.push(check("sla_rejected_is_zero", shed == 0, || {
        format!("the admission gate shed {shed} transactions; the offered load is far under every floor")
    }));
    checks.push(check_converged(&env.cluster, "primary"));
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
