//! The per-layer budget, measured from outside the program.
//!
//! Three instruments, all in the benchmark's own files:
//!
//! 1. **Spans** ([`crate::trace`]) around every call into a layer during the
//!    traced window, and around the control-plane and fault calls.
//! 2. **A ladder**: the same seeded stream replayed through successively
//!    taller stacks, each rung a direct call into a lower layer's public
//!    functions. The *difference* between two rungs is the cost of the
//!    layer that was added, so the rungs sum to the top one by
//!    construction.
//! 3. **Counts**: deltas across the traced window of counters the layers
//!    already expose through public accessors, divided by commits.
//!
//! Timings always come from the benchmark's clock, never from the
//! program's own histograms.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tenantdb_cluster::{ClusterConfig, ClusterController, ClusterError, Connection, Transport};
use tenantdb_net::{wire, ConnectOptions, Frame, NetClient, Server, ServerConfig};
use tenantdb_obs::MetricsRegistry;
use tenantdb_platform::SystemController;
use tenantdb_sla::{
    AdmissionDecision, AdmissionGate, AdmissionParams, DatabaseSpec, FirstFitPlacer, Placer,
    ResourceVector, Sla,
};
use tenantdb_sql::{QueryResult, Statement};
use tenantdb_storage::{
    ColumnDef, CostModel, DataType, Engine, EngineConfig, TableSchema, TxnId, Value, Wal, WalEntry,
};
use tenantdb_tpcw::{IdCounters, Mix, Scale};

use crate::drivers::{closed_loop, open_loop, summarize, Window, WindowSummary};
use crate::report::MetricSet;
use crate::stats;
use crate::stream::{
    null_tpcw_source, tenant_name, NullTransport, TenantSource, TpcwSource, TxnSource, Zipf,
    SALT_MEASURE, SALT_TRACED, SALT_WARMUP, TENANT_SELECT, TENANT_UPDATE, TENANT_ZIPF_S,
};
use crate::trace;
use crate::workloads::{self, RunCfg};

/// Salt of the ladder's stream: every rung replays the same one.
const SALT_LADDER: u64 = 0x1ADD;

// ---------------------------------------------------------------- windows

/// How a workload offers its load.
#[derive(Debug, Clone, Copy)]
pub enum Loop {
    Closed,
    /// Open loop at this many transactions per second in total.
    Open(f64),
}

fn run_loop<S: TxnSource>(src: &mut [S], lp: Loop, dur: Duration, traced: bool) -> Window {
    match lp {
        Loop::Closed => closed_loop(src, dur, traced),
        Loop::Open(rate) => open_loop(src, rate, dur, traced),
    }
}

/// Counters the layers expose, summed over clusters and machines.
#[derive(Default)]
pub struct Counters {
    lock_acquisitions: u64,
    lock_waits: u64,
    deadlocks: u64,
    lock_timeouts: u64,
    buffer_hits: u64,
    buffer_misses: u64,
    wal_len: u64,
    twopc: u64,
    straggler_acks: u64,
    pool_threads_spawned: u64,
    write_rejected: u64,
    sla_admitted: u64,
    sla_deferred: u64,
    sla_rejected: u64,
    ctrl_commit_index: u64,
    net_frames: u64,
    net_bytes: u64,
}

impl Counters {
    pub fn take(clusters: &[&Arc<ClusterController>], net: Option<&Arc<MetricsRegistry>>) -> Self {
        let mut c = Counters::default();
        for cluster in clusters {
            for m in cluster.machines() {
                let l = m.engine.locks().stats();
                c.lock_acquisitions += l.acquisitions;
                c.lock_waits += l.waits;
                c.deadlocks += l.deadlocks;
                c.lock_timeouts += l.timeouts;
                let b = m.engine.buffer().stats();
                c.buffer_hits += b.hits;
                c.buffer_misses += b.misses;
                c.wal_len += m.engine.wal().len() as u64;
            }
            let reg = cluster.metrics().registry();
            c.twopc += reg
                .histogram("tenantdb_commit_latency_us", &[("mode", "2pc")])
                .count();
            c.straggler_acks += reg.counter_sum("tenantdb_straggler_acks_total", &[]);
            c.pool_threads_spawned += reg.counter_sum("tenantdb_pool_threads_spawned_total", &[]);
            c.write_rejected += reg.counter_sum("tenantdb_write_rejected_total", &[]);
            c.sla_admitted += reg.counter_sum("tenantdb_sla_admitted_total", &[]);
            c.sla_deferred += reg.counter_sum("tenantdb_sla_deferred_total", &[]);
            c.sla_rejected += reg.counter_sum("tenantdb_sla_rejected_total", &[]);
            c.ctrl_commit_index += cluster.controllers().status().commit_index;
        }
        if let Some(reg) = net {
            c.net_frames = reg.counter_sum("tenantdb_net_frames_total", &[]);
            c.net_bytes = reg.counter_sum("tenantdb_net_bytes_in_total", &[])
                + reg.counter_sum("tenantdb_net_bytes_out_total", &[]);
        }
        c
    }
}

/// What the traced run's windows hand back to the workload.
pub struct TracedOutcome {
    pub attempted: u64,
    pub failed: u64,
    /// What one operation costs end to end in the untraced baseline
    /// window, the figure the ladder's top rung is compared with: in a
    /// closed loop the sessions keep the one CPU saturated, so it is wall
    /// time per commit (1 / throughput); in an open loop it is the mean
    /// service time (send to commit).
    pub untraced_us_per_op: f64,
    /// Throughput of the traced window's segments.
    pub traced_seg_tps: Vec<f64>,
}

/// Warm up, then measure one untraced window of `dur`: the measured window
/// of an untraced run, or the baseline a traced window is compared with.
pub fn warmed_window<S: TxnSource>(
    cfg: &RunCfg,
    src: &mut [S],
    lp: Loop,
    dur: Duration,
    label: &str,
    notes: &mut Vec<String>,
) -> WindowSummary {
    warm_up(cfg, src, lp);
    let w = run_loop(src, lp, dur, false);
    let s = summarize(&w);
    notes.extend(workloads::window_notes(label, &w, &s));
    s
}

/// Run the warm-up stream, then rewind the sources to the measured one.
pub fn warm_up<S: TxnSource>(cfg: &RunCfg, src: &mut [S], lp: Loop) {
    src.iter_mut().for_each(|s| s.reseed(SALT_WARMUP));
    run_loop(src, lp, cfg.warmup(), false);
    src.iter_mut().for_each(|s| s.reseed(SALT_MEASURE));
}

fn p50_us(values: Option<&Vec<u64>>) -> f64 {
    let Some(v) = values else { return 0.0 };
    let v: Vec<f64> = v.iter().map(|&ns| ns as f64 / 1e3).collect();
    stats::median(&v)
}

fn mean_us(values: Option<&Vec<u64>>) -> f64 {
    match values {
        Some(v) if !v.is_empty() => v.iter().sum::<u64>() as f64 / 1e3 / v.len() as f64,
        _ => 0.0,
    }
}

/// Fill the client view, the counts and the span-derived timings from a
/// traced window and the counter snapshots around it.
pub fn fill_from_traced(
    lp: Loop,
    base: &WindowSummary,
    w: &Window,
    before: &Counters,
    after: &Counters,
    m: &mut MetricSet,
    notes: &mut Vec<String>,
) -> TracedOutcome {
    let s = summarize(w);
    notes.extend(workloads::window_notes("traced window", w, &s));
    let txns = s.committed.max(1) as f64;

    m.set("client.refused_frac", s.refused_frac());
    m.set("client.late_frac", s.late_frac());
    m.set("client.segment_spread_pct", s.worst_spread() * 100.0);
    // In a closed loop tracing costs throughput; in an open loop the rate
    // is fixed and it costs latency.
    let overhead = match lp {
        Loop::Closed => (base.txn_per_s.median - s.txn_per_s.median) / base.txn_per_s.median,
        Loop::Open(_) => (s.mean_service_us - base.mean_service_us) / base.mean_service_us,
    };
    m.set("client.trace_overhead_pct", overhead * 100.0);
    // The tails the gate does not carry (too noisy on this host to bound),
    // from the untraced window.
    m.set("client.read_p99_us", base.read_tail.us);
    m.set("client.write_p99_us", base.write_tail.us);

    let d = |a: u64, b: u64| a.saturating_sub(b) as f64;
    let accesses = d(
        after.buffer_hits + after.buffer_misses,
        before.buffer_hits + before.buffer_misses,
    );
    m.set("storage.page_accesses_per_txn", accesses / txns);
    m.set(
        "storage.buffer_hit_rate",
        d(after.buffer_hits, before.buffer_hits) / accesses.max(1.0),
    );
    m.set(
        "storage.lock_acq_per_txn",
        d(after.lock_acquisitions, before.lock_acquisitions) / txns,
    );
    m.set(
        "storage.lock_waits_per_ktxn",
        d(after.lock_waits, before.lock_waits) / txns * 1e3,
    );
    m.set(
        "storage.deadlocks_per_ktxn",
        d(after.deadlocks, before.deadlocks) / txns * 1e3,
    );
    m.set(
        "storage.lock_timeouts",
        d(after.lock_timeouts, before.lock_timeouts),
    );
    m.set(
        "storage.wal_records_per_txn",
        d(after.wal_len, before.wal_len) / txns,
    );
    m.set("storage.wal_len_end", after.wal_len as f64);
    m.set("cluster.twopc_per_txn", d(after.twopc, before.twopc) / txns);
    m.set(
        "cluster.straggler_acks",
        d(after.straggler_acks, before.straggler_acks),
    );
    m.set(
        "cluster.pool_threads_spawned",
        d(after.pool_threads_spawned, before.pool_threads_spawned),
    );
    m.set(
        "cluster.write_rejected",
        d(after.write_rejected, before.write_rejected),
    );
    m.set("sla.admitted", d(after.sla_admitted, before.sla_admitted));
    m.set("sla.deferred", d(after.sla_deferred, before.sla_deferred));
    m.set("sla.rejected", d(after.sla_rejected, before.sla_rejected));
    m.set(
        "consensus.proposals_per_txn",
        d(after.ctrl_commit_index, before.ctrl_commit_index) / txns,
    );
    m.set(
        "net.frames_per_txn",
        d(after.net_frames, before.net_frames) / txns,
    );
    m.set(
        "net.bytes_per_txn",
        d(after.net_bytes, before.net_bytes) / txns,
    );

    trace::with_spans(|spans| {
        let selfs = trace::self_times(spans);
        m.set("cluster.begin_us", p50_us(selfs.get("cluster.begin")));
        m.set("cluster.execute_us", p50_us(selfs.get("cluster.execute")));
        m.set("cluster.commit_us", p50_us(selfs.get("cluster.commit")));
        let durs = trace::durations(spans);
        m.set("client.service_p50_us", p50_us(durs.get("client.txn")));
        let net_calls: Vec<u64> = [
            "net.begin",
            "net.execute",
            "net.execute_batch",
            "net.commit",
            "net.rollback",
        ]
        .iter()
        .filter_map(|n| durs.get(n))
        .flatten()
        .copied()
        .collect();
        m.set("net.call_us", p50_us(Some(&net_calls)));
    });

    TracedOutcome {
        attempted: s.attempted,
        failed: s.failed(),
        untraced_us_per_op: match lp {
            Loop::Closed => 1e6 / base.txn_per_s.median.max(1e-9),
            Loop::Open(_) => base.mean_service_us,
        },
        traced_seg_tps: s.seg_tps,
    }
}

/// The traced run's two windows for a workload without a fault schedule:
/// warm-up, untraced baseline, traced window.
pub fn traced_windows<S: TxnSource>(
    cfg: &RunCfg,
    src: &mut [S],
    lp: Loop,
    m: &mut MetricSet,
    notes: &mut Vec<String>,
    counters: impl Fn() -> Counters,
) -> TracedOutcome {
    let base = warmed_window(cfg, src, lp, cfg.short_window(), "untraced baseline", notes);
    src.iter_mut().for_each(|s| s.reseed(SALT_TRACED));
    let before = counters();
    let w = run_loop(src, lp, cfg.short_window(), true);
    let after = counters();
    fill_from_traced(lp, &base, &w, &before, &after, m, notes)
}

/// Price the control-plane calls spanned on the main thread (set-up,
/// connects, promotion), then stop recording on it: the ladder and the
/// probes that follow build systems of their own, which are not the
/// workload's.
pub fn control_plane_spans(m: &mut MetricSet) {
    trace::flush_thread();
    trace::disable();
    trace::with_spans(|spans| {
        let durs = trace::durations(spans);
        m.set(
            "cluster.create_db_us",
            mean_us(durs.get("cluster.create_database")),
        );
        m.set("cluster.ddl_us", mean_us(durs.get("cluster.ddl")));
        m.set("cluster.set_sla_us", mean_us(durs.get("cluster.set_sla")));
        m.set("cluster.connect_us", mean_us(durs.get("cluster.connect")));
    });
}

/// Write every span recorded so far to `<target>/e2e/trace-<workload>.jsonl`.
pub fn write_trace(workload: &str, notes: &mut Vec<String>) {
    trace::flush_thread();
    let path = workloads::artefact_dir().join(format!("trace-{workload}.jsonl"));
    let (n, dropped) = trace::with_spans(|spans| {
        (
            spans.len(),
            trace::write_jsonl(&path, spans).map_err(|e| e.to_string()),
        )
    });
    match dropped {
        Ok(()) => notes.push(format!(
            "{n} spans written to {} ({} dropped at the per-thread cap)",
            path.display(),
            trace::dropped()
        )),
        Err(e) => notes.push(format!("could not write {}: {e}", path.display())),
    }
}

// ----------------------------------------------------------------- ladder

/// A transport straight onto one bare `Engine`: `begin`/`commit` are the
/// engine's, `execute` is `tenantdb_sql::parse` + `execute_stmt`. No
/// routing, no worker hand-off, no replication — rung 1 of the ladder. It
/// also times the `execute_stmt` calls, split by statement kind.
pub struct EngineTransport {
    engine: Arc<Engine>,
    db: String,
    txn: Cell<Option<TxnId>>,
    exec: Arc<ExecClock>,
}

/// Time spent inside `execute_stmt`, by statement kind. Shared by the
/// transports of one session; atomics only because a `TxnSource` must be
/// `Send` (ordering: Relaxed throughout — statistics, read after the run).
#[derive(Default)]
pub struct ExecClock {
    read_ns: AtomicU64,
    reads: AtomicU64,
    write_ns: AtomicU64,
    writes: AtomicU64,
}

impl ExecClock {
    fn read_us_per_stmt(&self) -> f64 {
        self.read_ns.load(Relaxed) as f64 / 1e3 / self.reads.load(Relaxed).max(1) as f64
    }

    fn write_us_per_stmt(&self) -> f64 {
        self.write_ns.load(Relaxed) as f64 / 1e3 / self.writes.load(Relaxed).max(1) as f64
    }
}

impl EngineTransport {
    fn new(engine: Arc<Engine>, db: &str, exec: Arc<ExecClock>) -> Self {
        EngineTransport {
            engine,
            db: db.to_string(),
            txn: Cell::new(None),
            exec,
        }
    }

    fn run(&self, txn: TxnId, sql: &str, params: &[Value]) -> Result<QueryResult, ClusterError> {
        let stmt = tenantdb_sql::parse(sql)?;
        let t0 = Instant::now();
        let r = tenantdb_sql::execute_stmt(&self.engine, txn, &self.db, &stmt, params);
        let ns = t0.elapsed().as_nanos() as u64;
        if matches!(stmt, Statement::Select { .. }) {
            self.exec.read_ns.fetch_add(ns, Relaxed);
            self.exec.reads.fetch_add(1, Relaxed);
        } else {
            self.exec.write_ns.fetch_add(ns, Relaxed);
            self.exec.writes.fetch_add(1, Relaxed);
        }
        Ok(r?)
    }
}

impl Transport for EngineTransport {
    fn begin(&self) -> Result<(), ClusterError> {
        self.txn.set(Some(self.engine.begin()?));
        Ok(())
    }

    fn execute(&self, sql: &str, params: &[Value]) -> Result<QueryResult, ClusterError> {
        match self.txn.get() {
            Some(txn) => self.run(txn, sql, params),
            None => {
                let txn = self.engine.begin()?;
                match self.run(txn, sql, params) {
                    Ok(r) => {
                        self.engine.commit(txn)?;
                        Ok(r)
                    }
                    Err(e) => {
                        let _ = self.engine.abort(txn);
                        Err(e)
                    }
                }
            }
        }
    }

    fn commit(&self) -> Result<(), ClusterError> {
        let txn = self.txn.take().ok_or(ClusterError::NoActiveTxn)?;
        Ok(self.engine.commit(txn)?)
    }

    fn rollback(&self) -> Result<(), ClusterError> {
        let txn = self.txn.take().ok_or(ClusterError::NoActiveTxn)?;
        Ok(self.engine.abort(txn)?)
    }

    fn in_txn(&self) -> bool {
        self.txn.get().is_some()
    }
}

/// Replay `n` operations of the ladder stream through `src` on the calling
/// thread; µs per operation. A tenth as many run first, untimed.
fn time_rung<S: TxnSource>(src: &mut S, n: u64, notes: &mut Vec<String>, rung: &str) -> f64 {
    let mut refused = 0u64;
    let mut go = |src: &mut S, n: u64| {
        for _ in 0..n {
            let (op, _) = src.draw();
            if src.attempt(op).is_err() {
                refused += 1;
            }
        }
    };
    src.reseed(SALT_WARMUP);
    go(src, n / 10);
    src.reseed(SALT_LADDER);
    let t0 = Instant::now();
    go(src, n);
    let us = t0.elapsed().as_secs_f64() * 1e6 / n as f64;
    if refused > 0 {
        notes.push(format!(
            "ladder {rung}: {refused} attempts refused (single session: unexpected)"
        ));
    }
    us
}

/// Operations per rung: about 5 % of the window at the workload's own
/// measured cost per operation, the same count on every rung.
fn rung_ops(cfg: &RunCfg, e2e_us_per_op: f64) -> u64 {
    let per_op = Duration::from_secs_f64(e2e_us_per_op.max(5.0) / 1e6);
    cfg.ops_for(0.05, per_op).min(40_000)
}

fn rung_cluster(engine: EngineConfig, machines: usize, seed: u64) -> Arc<ClusterController> {
    ClusterController::with_machines(workloads::cluster_config(engine, seed), machines)
}

/// Switch the default page-cost model on (data is loaded with free costs).
pub fn switch_on_io_costs(cluster: &ClusterController) {
    for m in cluster.machines() {
        m.engine.set_page_costs(CostModel::default_model());
    }
}

/// A generous SLA: arms the gate without ever shedding.
fn generous_sla() -> Sla {
    Sla::new(1_000_000.0, 0.9, Duration::from_secs(60))
}

/// The shape of a TPC-W workload's ladder.
pub struct LadderShape {
    pub scale: Scale,
    pub mix: &'static Mix,
    pub engine: EngineConfig,
    /// Switch the default page-cost model on after loading (workload B).
    pub io_costs: bool,
    /// Add rung 4, `NetClient` over loopback (workload B).
    pub with_wire: bool,
}

/// One TPC-W database on a fresh cluster of `replicas` machines.
fn tpcw_rung_cluster(
    shape: &LadderShape,
    replicas: usize,
    seed: u64,
) -> (Arc<ClusterController>, Arc<IdCounters>) {
    let cluster = rung_cluster(shape.engine, replicas, seed);
    cluster
        .create_database("rung", replicas)
        .expect("create rung db");
    let db = workloads::load_tpcw_into(&cluster, "rung", shape.scale, seed).expect("load rung db");
    if shape.io_costs {
        switch_on_io_costs(&cluster);
    }
    (cluster, db.ids)
}

/// The ladder for a TPC-W workload. Every rung replays the same
/// single-session stream against one freshly loaded database:
///
/// | rung | stack | difference to the rung below |
/// |---|---|---|
/// | gen | a transport that executes nothing | `tpcw.gen_us_per_txn` |
/// | 0 | `tenantdb_sql::parse` over the stream's statements | `sql.parse_ns_per_stmt` |
/// | 1 | `execute_stmt` on one bare `Engine` | `sql.exec_*_us_per_stmt` |
/// | 2 | `Connection`, 1 replica | `cluster.dispatch_us_per_txn` |
/// | 3 | `Connection`, 2 replicas | `cluster.repl_2pc_us_per_txn` |
/// | 3s | rung 3 with an SLA installed | `sla.gate_us_per_txn` |
/// | 4 | `NetClient`, 2 replicas (B only) | `net.wire_us_per_txn` |
pub fn tpcw_ladder(
    cfg: &RunCfg,
    shape: LadderShape,
    e2e_us_per_op: f64,
    m: &mut MetricSet,
    notes: &mut Vec<String>,
) {
    let n = rung_ops(cfg, e2e_us_per_op);
    let seed = cfg.seed;

    // The generator alone, and the statements it emits.
    let mut null = null_tpcw_source(1, shape.scale, shape.mix, seed, NullTransport::logging);
    let gen_us = time_rung(&mut null, n, notes, "gen");
    m.set("tpcw.gen_us_per_txn", gen_us);
    let stmts = null.take_logs();
    let stmts_per_txn = stmts.len() as f64 / (n + n / 10) as f64;
    let t0 = Instant::now();
    for sql in &stmts {
        std::hint::black_box(tenantdb_sql::parse(std::hint::black_box(sql)).is_ok());
    }
    let parse_ns = t0.elapsed().as_secs_f64() * 1e9 / stmts.len().max(1) as f64;
    m.set("sql.parse_ns_per_stmt", parse_ns);

    // Rung 1 and 2 share a shape (one machine, one replica) but not a
    // database: each rung loads its own, so every rung starts from the
    // same rows.
    let (c1, ids1) = tpcw_rung_cluster(&shape, 1, seed);
    let engine = Arc::clone(&c1.machines()[0].engine);
    let clock = Arc::new(ExecClock::default());
    let mut src1 = TpcwSource::new(
        vec![(
            EngineTransport::new(engine, "rung", Arc::clone(&clock)),
            ids1,
        )],
        shape.scale,
        shape.mix,
        seed,
        0,
    );
    let r1 = time_rung(&mut src1, n, notes, "1");
    m.set("sql.exec_read_us_per_stmt", clock.read_us_per_stmt());
    m.set("sql.exec_write_us_per_stmt", clock.write_us_per_stmt());
    drop(src1);
    drop(c1);

    let connection_rung = |replicas: usize, sla: bool, notes: &mut Vec<String>, rung: &str| {
        let (c, ids) = tpcw_rung_cluster(&shape, replicas, seed);
        if sla {
            c.set_sla("rung", generous_sla()).expect("arm gate");
        }
        let conn: Connection = c.connect("rung").expect("connect");
        let mut src = TpcwSource::new(vec![(conn, ids)], shape.scale, shape.mix, seed, 0);
        time_rung(&mut src, n, notes, rung)
    };
    let r2 = connection_rung(1, false, notes, "2");
    let r3 = connection_rung(2, false, notes, "3");
    let r3s = connection_rung(2, true, notes, "3s");
    m.set("cluster.dispatch_us_per_txn", r2 - r1);
    m.set("cluster.repl_2pc_us_per_txn", r3 - r2);
    m.set("sla.gate_us_per_txn", r3s - r3);

    let mut top = r3;
    let mut r4 = None;
    if shape.with_wire {
        let system = workloads::single_cluster_system(shape.engine, seed, 2);
        let (c, db) = workloads::create_tpcw_on_system(&system, "rung", 2, shape.scale, seed)
            .expect("create and load rung db");
        if shape.io_costs {
            switch_on_io_costs(&c);
        }
        let server = Server::start("127.0.0.1:0", Arc::clone(&system), ServerConfig::default())
            .expect("start server");
        let client = NetClient::connect(server.local_addr(), "rung", ConnectOptions::default())
            .expect("connect");
        let mut src = TpcwSource::new(vec![(client, db.ids)], shape.scale, shape.mix, seed, 0);
        let us = time_rung(&mut src, n, notes, "4");
        drop(src);
        server.shutdown();
        m.set("net.wire_us_per_txn", us - r3);
        top = us;
        r4 = Some(us);
    }
    m.set(
        "sql.parse_share_pct",
        parse_ns / 1e3 * stmts_per_txn / top * 100.0,
    );
    if e2e_us_per_op > 0.0 {
        m.set(
            "client.ladder_residual_pct",
            (top - e2e_us_per_op).abs() / e2e_us_per_op * 100.0,
        );
    }
    notes.push(format!(
        "ladder ({n} ops per rung, {stmts_per_txn:.2} stmts/txn): gen {gen_us:.2}us, rung1 {r1:.2}us, \
         rung2 {r2:.2}us, rung3 {r3:.2}us, rung3s {r3s:.2}us, rung4 {}; untraced two-session cost per operation {e2e_us_per_op:.2}us",
        r4.map_or("n/a".into(), |v| format!("{v:.2}us"))
    ));
}

/// The ladder for the tenant workload, over `tenants` tiny databases.
/// Rungs as in [`tpcw_ladder`], without the wire.
pub fn tenant_ladder(
    cfg: &RunCfg,
    tenants: usize,
    e2e_us_per_op: f64,
    m: &mut MetricSet,
    notes: &mut Vec<String>,
) {
    let n = rung_ops(cfg, e2e_us_per_op);
    let seed = cfg.seed;
    let zipf = Arc::new(Zipf::new(tenants, TENANT_ZIPF_S));
    let engine_cfg = workloads::tenants::engine_config();

    // The generator alone; then the two statements the stream is made of.
    let mut null: TenantSource<NullTransport> = TenantSource::new(
        tenants,
        Arc::clone(&zipf),
        seed,
        0,
        Box::new(|_| Ok(NullTransport::default())),
    );
    let gen_us = time_rung(&mut null, n, notes, "gen");
    m.set("tpcw.gen_us_per_txn", gen_us);
    let t0 = Instant::now();
    for i in 0..n {
        // The stream's own 80/20 split.
        let sql = if i % 5 == 4 {
            TENANT_UPDATE
        } else {
            TENANT_SELECT
        };
        std::hint::black_box(tenantdb_sql::parse(std::hint::black_box(sql)).is_ok());
    }
    let parse_ns = t0.elapsed().as_secs_f64() * 1e9 / n as f64;
    m.set("sql.parse_ns_per_stmt", parse_ns);

    let onboard_all = |replicas: usize, sla: bool| {
        let c = rung_cluster(engine_cfg, replicas, seed);
        for i in 0..tenants {
            workloads::tenants::onboard(&c, &tenant_name(i), replicas, sla.then(generous_sla))
                .expect("onboard tenant");
        }
        c
    };

    let c1 = onboard_all(1, false);
    let engine = Arc::clone(&c1.machines()[0].engine);
    let clock = Arc::new(ExecClock::default());
    let mut src1 = {
        let clock = Arc::clone(&clock);
        TenantSource::new(
            tenants,
            Arc::clone(&zipf),
            seed,
            0,
            Box::new(move |db| {
                Ok(EngineTransport::new(
                    Arc::clone(&engine),
                    db,
                    Arc::clone(&clock),
                ))
            }),
        )
    };
    let r1 = time_rung(&mut src1, n, notes, "1");
    m.set("sql.exec_read_us_per_stmt", clock.read_us_per_stmt());
    m.set("sql.exec_write_us_per_stmt", clock.write_us_per_stmt());
    drop(src1);
    drop(c1);

    let connection_rung = |replicas: usize, sla: bool, notes: &mut Vec<String>, rung: &str| {
        let c = onboard_all(replicas, sla);
        let mut src: TenantSource<Connection> = TenantSource::new(
            tenants,
            Arc::clone(&zipf),
            seed,
            0,
            Box::new(move |db| c.connect(db)),
        );
        time_rung(&mut src, n, notes, rung)
    };
    let r2 = connection_rung(1, false, notes, "2");
    let r3 = connection_rung(2, false, notes, "3");
    let r3s = connection_rung(2, true, notes, "3s");
    m.set("cluster.dispatch_us_per_txn", r2 - r1);
    m.set("cluster.repl_2pc_us_per_txn", r3 - r2);
    m.set("sla.gate_us_per_txn", r3s - r3);
    // One statement per transaction; the top rung has the gate armed, as
    // the workload does.
    m.set("sql.parse_share_pct", parse_ns / 1e3 / r3s * 100.0);
    if e2e_us_per_op > 0.0 {
        m.set(
            "client.ladder_residual_pct",
            (r3s - e2e_us_per_op).abs() / e2e_us_per_op * 100.0,
        );
    }
    notes.push(format!(
        "ladder ({n} ops per rung over {tenants} tenants): gen {gen_us:.2}us, rung1 {r1:.2}us, rung2 {r2:.2}us, \
         rung3 {r3:.2}us, rung3s {r3s:.2}us; untraced mean service time {e2e_us_per_op:.2}us"
    ));
}

// ----------------------------------------------------------------- probes

fn per_op(t0: Instant, n: u64, unit: f64) -> f64 {
    t0.elapsed().as_secs_f64() * unit / n as f64
}

/// Direct calls into one stand-alone `Engine` and one stand-alone `Wal`.
pub fn storage_probes(cfg: &RunCfg, m: &mut MetricSet) {
    let n = cfg.ops_for(0.01, Duration::from_micros(2)).min(50_000);
    let engine = Engine::new(EngineConfig {
        buffer_pages: 1 << 16,
        cost: CostModel::free(),
        lock_timeout: Duration::from_secs(5),
    });
    engine.create_database("db").expect("create db");
    engine
        .create_table(
            "db",
            TableSchema::new(
                "t",
                vec![
                    ColumnDef::new("id", DataType::Int).not_null(),
                    ColumnDef::new("payload", DataType::Text),
                ],
            )
            .with_primary_key(&["id"]),
        )
        .expect("create table");

    // Inserts in transactions of 100, timing the insert calls alone.
    let mut insert = Duration::ZERO;
    let mut id = 0i64;
    while (id as u64) < n {
        let txn = engine.begin().expect("begin");
        for _ in 0..100 {
            let row = vec![Value::Int(id), Value::Text(format!("row-{id}"))];
            let t0 = Instant::now();
            engine.insert(txn, "db", "t", row).expect("insert");
            insert += t0.elapsed();
            id += 1;
        }
        engine.commit(txn).expect("commit");
    }
    m.set("storage.insert_us", insert.as_secs_f64() * 1e6 / id as f64);

    // Point reads through the primary-key index, 100 per transaction.
    let mut read = Duration::ZERO;
    let mut k = 0i64;
    while (k as u64) < n {
        let txn = engine.begin().expect("begin");
        for _ in 0..100 {
            let key = [Value::Int((k * 7919) % id)];
            let t0 = Instant::now();
            let rows = engine
                .index_lookup(txn, "db", "t", "pk", &key, false)
                .expect("lookup");
            read += t0.elapsed();
            std::hint::black_box(rows);
            k += 1;
        }
        engine.commit(txn).expect("commit");
    }
    m.set("storage.point_read_us", read.as_secs_f64() * 1e6 / k as f64);

    // The transaction envelope with nothing inside it.
    let t0 = Instant::now();
    for _ in 0..n {
        let txn = engine.begin().expect("begin");
        engine.prepare(txn).expect("prepare");
        engine.commit(txn).expect("commit");
    }
    m.set("storage.txn_envelope_us", per_op(t0, n, 1e6));

    let wal = Wal::default();
    let t0 = Instant::now();
    for i in 0..n {
        std::hint::black_box(wal.append(TxnId(i + 1), WalEntry::Commit));
    }
    m.set("storage.wal_append_ns", per_op(t0, n, 1e9));
}

/// Crash one engine of `cluster` and time its restart from the log.
pub fn restart_probe(cluster: &ClusterController, m: &mut MetricSet) {
    let Some(machine) = cluster.machines().into_iter().next() else {
        return;
    };
    machine.engine.crash();
    let t0 = Instant::now();
    std::hint::black_box(machine.engine.restart());
    m.set(
        "storage.restart_replay_ms",
        t0.elapsed().as_secs_f64() * 1e3,
    );
}

/// Direct calls into the admission gate and the first-fit placer.
pub fn sla_probes(cfg: &RunCfg, tenants: usize, m: &mut MetricSet) {
    let n = cfg.ops_for(0.005, Duration::from_nanos(50)).min(1_000_000);
    let admit = AdmissionGate::new(AdmissionParams::from_sla(&generous_sla()));
    let t0 = Instant::now();
    for _ in 0..n {
        std::hint::black_box(admit.decide());
    }
    m.set("sla.decide_ns", per_op(t0, n, 1e9));

    // One transaction per second, no burst, no deferral: everything after
    // the first is refused.
    let reject = AdmissionGate::new(AdmissionParams {
        rate_tps: 1.0,
        burst: 1.0,
        max_defer: Duration::ZERO,
    });
    while reject.decide() != AdmissionDecision::Reject {}
    let t0 = Instant::now();
    for _ in 0..n {
        std::hint::black_box(reject.decide());
    }
    m.set("sla.reject_ns", per_op(t0, n, 1e9));

    let mut placer = FirstFitPlacer::new(ResourceVector::new(12.0, 2000.0, 12.0, 2000.0));
    let specs: Vec<DatabaseSpec> = (0..tenants)
        .map(|i| {
            let size = 200.0 + (i % 17) as f64 * 40.0;
            let tps = 0.1 + (i % 11) as f64 * 0.3;
            DatabaseSpec::new(
                tenant_name(i),
                ResourceVector::new(tps, size / 2.0, tps / 2.0, size),
                2,
            )
        })
        .collect();
    let t0 = Instant::now();
    for s in &specs {
        std::hint::black_box(placer.place(s).is_ok());
    }
    m.set(
        "sla.place_us_per_db",
        per_op(t0, specs.len().max(1) as u64, 1e6),
    );
}

/// One replicated metadata operation (`set_sla`) on a three-replica
/// controller group.
pub fn consensus_probe(cfg: &RunCfg, m: &mut MetricSet) {
    let n = cfg.ops_for(0.01, Duration::from_micros(30)).min(5_000);
    let cluster = ClusterController::with_machines(
        ClusterConfig {
            engine: EngineConfig::for_tests(),
            controllers: 3,
            seed: cfg.seed,
            ..Default::default()
        },
        1,
    );
    cluster
        .create_database("probe", 1)
        .expect("create probe db");
    let t0 = Instant::now();
    for i in 0..n {
        cluster
            .set_sla(
                "probe",
                Sla::new(1000.0 + i as f64, 0.9, Duration::from_secs(60)),
            )
            .expect("set_sla");
    }
    m.set("consensus.submit_us", per_op(t0, n, 1e6));
}

/// The wire's floor and codec, and the platform's connect.
pub fn net_probes(
    cfg: &RunCfg,
    system: &Arc<SystemController>,
    addr: std::net::SocketAddr,
    db: &str,
    m: &mut MetricSet,
) {
    let n = cfg.ops_for(0.01, Duration::from_micros(15)).min(20_000);
    let client = NetClient::connect(addr, db, ConnectOptions::default()).expect("connect");
    for t in 0..n / 10 {
        client.ping(t).expect("ping");
    }
    let t0 = Instant::now();
    for t in 0..n {
        client.ping(t).expect("ping");
    }
    m.set("net.ping_rtt_us", per_op(t0, n, 1e6));

    // The workload's own most common frame: a whole-transaction batch (the
    // Home interaction: one customer select and five item selects).
    let mut stmts = vec![tenantdb_cluster::BatchStmt::new(
        "SELECT c_fname, c_lname, c_discount FROM customer WHERE c_id = ?",
        vec![Value::Int(17)],
    )];
    for i in 0..5 {
        stmts.push(tenantdb_cluster::BatchStmt::new(
            "SELECT i_title, i_cost FROM item WHERE i_id = ?",
            vec![Value::Int(100 + i)],
        ));
    }
    let frame = Frame::Batch {
        seq: 1,
        mode: tenantdb_cluster::BatchMode::WholeTxn,
        stmts,
    };
    let mut buf = Vec::with_capacity(1024);
    let t0 = Instant::now();
    for _ in 0..n {
        buf.clear();
        frame.encode_into(&mut buf);
        std::hint::black_box(&buf);
    }
    m.set("net.encode_ns_per_frame", per_op(t0, n, 1e9));
    let bytes = wire::encode_batch_request(
        1,
        tenantdb_cluster::BatchMode::WholeTxn,
        match &frame {
            Frame::Batch { stmts, .. } => stmts,
            _ => unreachable!("built above"),
        },
    );
    let body = &bytes[4..];
    let t0 = Instant::now();
    for _ in 0..n {
        std::hint::black_box(Frame::decode(std::hint::black_box(body)).is_ok());
    }
    m.set("net.decode_ns_per_frame", per_op(t0, n, 1e9));

    let connects = (n / 20).max(50);
    let t0 = Instant::now();
    for _ in 0..connects {
        std::hint::black_box(system.connect(db, (0.0, 0.0)).is_ok());
    }
    m.set("platform.connect_us", per_op(t0, connects, 1e6));
}

/// One scrape of the cluster's registry: how long, how many series.
pub fn obs_probe(cluster: &ClusterController, m: &mut MetricSet) {
    let t0 = Instant::now();
    let text = cluster.metrics().registry().render_text();
    m.set("obs.render_ms", t0.elapsed().as_secs_f64() * 1e3);
    let series = text
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .count();
    m.set("obs.series", series as f64);
}
