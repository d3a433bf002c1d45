//! D — `tpcw_shop_failover`: everything the paper does for fault
//! tolerance, on the clock.
//!
//! TPC-W shopping mix on 6 machines, 8 databases × 2 replicas, 300 items
//! (the Figure 8/9 shape), three controller replicas, in process. Every
//! database has a `tenantdb-georep` stream, hand-pumped (`Shipper::
//! next_batch` → `Applier::ingest`) to a standby cluster by one pump
//! thread. Closed loop, two sessions, for a fixed wall time `T`, because
//! the fault schedule is wall-clock (the copy is throttled), which keeps
//! the refused shares independent of how fast the code is:
//!
//! * `0.30 T` — `fail_machine` on the machine hosting most databases, then
//!   `recover_machine` (table-level, 2 copy threads, 4 000 rows/s);
//! * `0.65 T` — `controllers().crash_leader()`, `restart` `0.08 T` later;
//! * `T` — stop, drain every stream, `promote` the standby.
//!
//! Algorithm-1 rejections and throughput during recovery (Figures 8/9),
//! controller failover, cross-colo shipping cost and DR correctness. It is
//! the workload that executes the duplicated DR and controller-failover
//! paths the roadmap wants collapsed, and the WAL scan it wants
//! partitioned, so those changes have something to be "no worse" on.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use tenantdb_cluster::{
    recover_machine, ClusterConfig, ClusterController, Connection, CopyGranularity, MachineId,
    RecoveryConfig, Transport,
};
use tenantdb_georep::{promote, Applier, GeoError, GeoMetrics, Shipper};
use tenantdb_obs::MetricsRegistry;
use tenantdb_storage::{CostModel, EngineConfig, Lsn, Throttle};
use tenantdb_tpcw::{Scale, SHOPPING};

use super::{
    check, check_converged, check_fingerprint, cluster_config, fill_end_to_end_whole, load_tpcw,
    timed_setup, window_notes, LoadedDb, RunCfg, SESSIONS,
};
use crate::drivers::{closed_loop, longest_commit_gap_ms, slice_rates, summarize, Window};
use crate::layers;
use crate::report::{Check, MetricSet, RunOutput};
use crate::stream::{tpcw_fingerprint, TpcwSource, TxnSource, SALT_TRACED};
use crate::trace::{self, Traced};

pub const NAME: &str = "tpcw_shop_failover";

const MACHINES: usize = 6;
const STANDBY_MACHINES: usize = 4;
const CONTROLLERS: usize = 3;
const DBS: usize = 8;
const REPLICAS: usize = 2;
const ITEMS: usize = 300;
const COPY_THREADS: usize = 2;
/// 4 000 rows/s, not Figure 8/9's 2 000: pinned to one CPU the sessions
/// commit ~10 000 transactions a second and the databases grow fast enough
/// that a slower copy would not finish inside its slot of the schedule.
const COPY_ROWS_PER_S: u64 = 4000;

/// The fault schedule, as shares of the window.
const FAIL_AT: f64 = 0.30;
const LEADER_CRASH_AT: f64 = 0.65;
const LEADER_DOWN_FOR: f64 = 0.08;

/// Pause between pump rounds over all streams.
const PUMP_PAUSE: Duration = Duration::from_millis(5);

/// Fingerprint of the stream for seed 1 (full profile), see `stream.rs`.
pub const FINGERPRINT: u64 = 0x9fb1_99b9_8058_e2e2;

pub fn fingerprint() -> u64 {
    tpcw_fingerprint(DBS, Scale::with_items(ITEMS), &SHOPPING)
}

fn scale(cfg: &RunCfg) -> Scale {
    Scale::with_items(cfg.scaled(ITEMS).max(60))
}

fn engine_config() -> EngineConfig {
    EngineConfig {
        buffer_pages: 4096,
        cost: CostModel::free(),
        lock_timeout: Duration::from_millis(300),
    }
}

fn cluster(machines: usize, seed: u64) -> Arc<ClusterController> {
    ClusterController::with_machines(
        ClusterConfig {
            controllers: CONTROLLERS,
            ..cluster_config(engine_config(), seed)
        },
        machines,
    )
}

/// One database's stream: the `GeoLink` exchange unrolled, so the
/// shipper's and the applier's calls can be spanned separately.
struct Stream {
    shipper: Shipper,
    applier: Arc<Mutex<Applier>>,
    session: Option<MachineId>,
    acked: Lsn,
}

/// What the pump thread measured.
#[derive(Debug, Default, Clone)]
pub struct PumpStats {
    /// Wall time spent inside `sync`, all streams.
    busy: Duration,
    shipped_records: u64,
    /// WAL records the shippers' cursors moved over.
    scanned_records: u64,
    ship_time: Duration,
    apply_time: Duration,
    lag_samples: Vec<u64>,
}

impl Stream {
    fn lag(&self) -> u64 {
        self.shipper
            .head_lsn()
            .map(|h| h.0.saturating_sub(self.acked.0))
            .unwrap_or(0)
    }

    /// Ship until the source is drained, handshaking (and re-pinning after
    /// a source failure) as needed.
    fn sync(&mut self, stats: &mut PumpStats) -> Result<(), GeoError> {
        loop {
            let pin = self.shipper.pin()?;
            if self.session != Some(pin) {
                let resume = self.applier.lock().handshake(pin, self.shipper.epoch())?;
                self.shipper.rewind(resume);
                self.acked = resume;
                self.session = Some(pin);
            }
            let before = self.shipper.cursor();
            let t0 = Instant::now();
            let batch = trace::spanned("georep.next_batch", || self.shipper.next_batch())?;
            stats.ship_time += t0.elapsed();
            stats.scanned_records += self.shipper.cursor().0.saturating_sub(before.0);
            if batch.is_empty() {
                self.shipper.note_acked(self.acked)?;
                return Ok(());
            }
            stats.shipped_records += batch.len() as u64;
            let t1 = Instant::now();
            let epoch = self.shipper.epoch();
            let watermark = trace::spanned("georep.ingest", || {
                self.applier.lock().ingest(epoch, &batch)
            })?;
            stats.apply_time += t1.elapsed();
            self.acked = watermark;
            self.shipper.note_acked(watermark)?;
        }
    }
}

pub struct Env {
    pub primary: Arc<ClusterController>,
    pub standby: Arc<ClusterController>,
    pub dbs: Vec<LoadedDb>,
    streams: Vec<Stream>,
    geo: GeoMetrics,
}

pub fn build(cfg: &RunCfg) -> Env {
    let primary = cluster(MACHINES, cfg.seed);
    let dbs = load_tpcw(&primary, DBS, REPLICAS, scale(cfg), cfg.seed).expect("load TPC-W");
    let standby = cluster(STANDBY_MACHINES, cfg.seed ^ 0x5B);
    let geo = GeoMetrics::new(Arc::new(MetricsRegistry::new()));
    let mut streams: Vec<Stream> = dbs
        .iter()
        .map(|d| Stream {
            shipper: Shipper::new(Arc::clone(&primary), &d.name, geo.clone()).expect("shipper"),
            applier: Arc::new(Mutex::new(Applier::new(
                Arc::clone(&standby),
                &d.name,
                REPLICAS,
                geo.clone(),
            ))),
            session: None,
            acked: Lsn::ZERO,
        })
        .collect();
    // The standby starts as a full copy: ship the load before anything is
    // measured.
    let mut initial = PumpStats::default();
    for s in &mut streams {
        s.sync(&mut initial).expect("initial drain");
    }
    Env {
        primary,
        standby,
        dbs,
        streams,
        geo,
    }
}

fn sources<T: Transport + Send>(
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
                    let conn = trace::spanned("cluster.connect", || env.primary.connect(&d.name))
                        .expect("connect");
                    (wrap(conn), Arc::clone(&d.ids))
                })
                .collect();
            TpcwSource::new(conns, scale(cfg), &SHOPPING, cfg.seed, i)
        })
        .collect()
}

/// When the faults happened, ns on the trace clock.
#[derive(Debug, Default, Clone)]
pub struct FaultLog {
    fail_ns: u64,
    recovered_ns: u64,
    leader_crash_ns: u64,
    leader_back_ns: u64,
    recovered_dbs: usize,
    failed_recoveries: Vec<String>,
    /// Rows the re-created replicas hold (what the copy moved).
    copied_rows: u64,
    crashed_leader: bool,
}

/// Rows of `db` on `machine`, all tables.
fn rows_on(cluster: &ClusterController, db: &str, machine: MachineId) -> u64 {
    let Ok(m) = cluster.machine(machine) else {
        return 0;
    };
    let Ok(database) = m.engine.db(db) else {
        return 0;
    };
    database
        .table_names()
        .iter()
        .filter_map(|t| m.engine.table(db, t).ok())
        .map(|t| t.row_count() as u64)
        .sum()
}

/// The fault schedule for a window of length `dur` starting now.
fn run_faults(primary: &Arc<ClusterController>, dur: Duration, traced: bool) -> FaultLog {
    if traced {
        trace::enable();
    }
    let t0 = Instant::now();
    let sleep_until = |share: f64| {
        std::thread::sleep(dur.mul_f64(share).saturating_sub(t0.elapsed()));
    };
    let mut log = FaultLog::default();

    sleep_until(FAIL_AT);
    let victim = primary
        .machine_ids()
        .into_iter()
        .max_by_key(|&m| (primary.databases_on(m).len(), std::cmp::Reverse(m)))
        .expect("machines");
    log.fail_ns = trace::now_ns();
    trace::spanned("cluster.fail_machine", || primary.fail_machine(victim)).expect("fail_machine");
    let report = trace::spanned("cluster.recover_machine", || {
        recover_machine(
            primary,
            victim,
            RecoveryConfig {
                granularity: CopyGranularity::TableLevel,
                threads: COPY_THREADS,
                throttle: Throttle::new(COPY_ROWS_PER_S),
            },
        )
    });
    log.recovered_ns = trace::now_ns();
    log.recovered_dbs = report.recovered.len();
    log.failed_recoveries = report
        .failed
        .iter()
        .map(|(db, e)| format!("{db}: {e}"))
        .collect();
    log.copied_rows = report
        .recovered
        .iter()
        .map(|(db, target, _)| rows_on(primary, db, *target))
        .sum();

    sleep_until(LEADER_CRASH_AT);
    log.leader_crash_ns = trace::now_ns();
    let crashed = trace::spanned("consensus.crash_leader", || {
        primary.controllers().crash_leader()
    });
    log.crashed_leader = crashed.is_some();
    std::thread::sleep(dur.mul_f64(LEADER_DOWN_FOR));
    if let Some(node) = crashed {
        primary.controllers().restart(node);
    }
    log.leader_back_ns = trace::now_ns();
    if traced {
        trace::flush_thread();
    }
    log
}

/// Pump every stream round-robin until `stop`, then drain them.
fn run_pump(streams: &mut [Stream], stop: &AtomicBool, traced: bool) -> PumpStats {
    if traced {
        trace::enable();
    }
    let mut stats = PumpStats::default();
    // ordering: Relaxed — a stop flag; the join publishes everything else.
    while !stop.load(Ordering::Relaxed) {
        let t0 = Instant::now();
        for s in streams.iter_mut() {
            stats.lag_samples.push(s.lag());
            // A severed stream (its source just failed) re-pins next round.
            let _ = s.sync(&mut stats);
        }
        stats.busy += t0.elapsed();
        std::thread::sleep(PUMP_PAUSE);
    }
    if traced {
        trace::flush_thread();
    }
    stats
}

/// The measured window: sessions, the pump and the fault schedule together.
fn faulted_window<S: TxnSource>(
    env: &mut Env,
    src: &mut [S],
    dur: Duration,
    traced: bool,
) -> (Window, PumpStats, FaultLog) {
    let stop = AtomicBool::new(false);
    let primary = Arc::clone(&env.primary);
    let streams = &mut env.streams;
    std::thread::scope(|scope| {
        let pump = scope.spawn(|| run_pump(streams, &stop, traced));
        let faults = scope.spawn(|| run_faults(&primary, dur, traced));
        let w = closed_loop(src, dur, traced);
        let log = faults.join().expect("fault thread panicked");
        // ordering: Relaxed — see run_pump.
        stop.store(true, Ordering::Relaxed);
        let stats = pump.join().expect("pump thread panicked");
        (w, stats, log)
    })
}

fn count(cluster: &Arc<ClusterController>, db: &str, table: &str) -> Result<i64, String> {
    let conn = cluster
        .connect(db)
        .map_err(|e| format!("connect {db}: {e}"))?;
    let r = conn
        .execute(&format!("SELECT COUNT(*) FROM {table}"), &[])
        .map_err(|e| format!("count {db}.{table}: {e}"))?;
    r.rows
        .first()
        .and_then(|row| row.first())
        .and_then(|v| v.as_i64())
        .ok_or_else(|| format!("count {db}.{table}: no value"))
}

/// Drain, promote, and check the DR contract. Returns the checks and the
/// promotion's duration and in-doubt count.
fn drain_and_promote(env: &mut Env) -> (Vec<Check>, f64, u64) {
    let mut checks = Vec::new();
    let mut drain = PumpStats::default();
    let drained = env.streams.iter_mut().try_for_each(|s| {
        s.sync(&mut drain)
            .map_err(|e| format!("{}: {e}", s.shipper.db()))
    });
    checks.push(Check {
        name: "georep_drained".into(),
        verdict: drained,
    });

    // What the primary acknowledged, read before it is fenced.
    let tables = ["orders", "order_line"];
    let primary_counts: Vec<Result<i64, String>> = env
        .dbs
        .iter()
        .flat_map(|d| tables.iter().map(|t| count(&env.primary, &d.name, t)))
        .collect();

    let appliers: Vec<Arc<Mutex<Applier>>> =
        env.streams.iter().map(|s| Arc::clone(&s.applier)).collect();
    let t0 = Instant::now();
    let outcome = trace::spanned("georep.promote", || {
        promote(&env.standby, Some(&env.primary), &appliers, &env.geo)
    });
    let promote_us = t0.elapsed().as_secs_f64() * 1e6;
    let mut in_doubt = 0;
    checks.push(Check {
        name: "promote_fences_old_primary".into(),
        verdict: match &outcome {
            Ok(o) if o.fenced_old_primary => {
                in_doubt = (o.committed.len() + o.aborted.len()) as u64;
                Ok(())
            }
            Ok(_) => Err("promotion did not fence the reachable old primary".into()),
            Err(e) => Err(format!("promote: {e}")),
        },
    });

    let mut lost = Vec::new();
    for (i, d) in env.dbs.iter().enumerate() {
        for (j, t) in tables.iter().enumerate() {
            let on_primary = primary_counts[i * tables.len() + j].clone();
            match (on_primary, count(&env.standby, &d.name, t)) {
                (Ok(p), Ok(s)) if p == s => {}
                (Ok(p), Ok(s)) => lost.push(format!("{}.{t}: primary {p}, standby {s}", d.name)),
                (Err(e), _) | (_, Err(e)) => lost.push(e),
            }
        }
    }
    checks.push(check("lost_acked_commits_is_zero", lost.is_empty(), || {
        lost.join("; ")
    }));

    // A write against the fenced primary must bounce; reads stay up.
    let probe = env.primary.connect(&env.dbs[0].name).and_then(|c| {
        c.execute(
            "INSERT INTO country VALUES (?, ?)",
            &[9_999_999.into(), "fenced?".into()],
        )
    });
    checks.push(check(
        "fenced_primary_refuses_writes",
        matches!(&probe, Err(e) if e.is_fenced()),
        || format!("write probe returned {probe:?}"),
    ));

    let violations = env.primary.controllers().invariant_violations();
    checks.push(check(
        "controller_invariants_hold",
        violations.is_empty(),
        || violations.join("; "),
    ));
    checks.push(check_converged(&env.primary, "primary"));
    checks.push(check_converged(&env.standby, "standby"));
    (checks, promote_us, in_doubt)
}

fn offset(ns: u64, w: &Window) -> Duration {
    Duration::from_nanos(ns.saturating_sub(w.start_ns))
}

pub fn run(cfg: &RunCfg) -> RunOutput {
    let mut checks = vec![check_fingerprint(NAME, fingerprint(), FINGERPRINT)];
    let mut metrics = MetricSet::default();
    let mut notes = Vec::new();

    let (mut env, setup_s) = timed_setup(cfg, || build(cfg));
    let (attempted, failed);
    let (w, pump, log);
    let mut baseline_us_per_op = 0.0;
    if !cfg.traced {
        let mut src = sources(&env, cfg, |c| c);
        layers::warm_up(cfg, &mut src, layers::Loop::Closed);
        (w, pump, log) = faulted_window(&mut env, &mut src, cfg.window(), false);
        let s = summarize(&w);
        notes.extend(window_notes("window", &w, &s));
        fill_end_to_end_whole(&mut metrics, setup_s, &s);
        (attempted, failed) = (s.attempted, s.failed());
    } else {
        let mut src = sources(&env, cfg, Traced::in_process);
        let base = layers::warmed_window(
            cfg,
            &mut src,
            layers::Loop::Closed,
            cfg.short_window(),
            "untraced baseline",
            &mut notes,
        );
        src.iter_mut().for_each(|s| s.reseed(SALT_TRACED));
        let before = layers::Counters::take(&[&env.primary], None);
        let ctrl_before = env.primary.controllers().status();
        // The fault schedule needs room: 0.6 of the full window, not the
        // usual quarter.
        let dur = cfg.window().mul_f64(0.6);
        (w, pump, log) = faulted_window(&mut env, &mut src, dur, true);
        let after = layers::Counters::take(&[&env.primary], None);
        let t = layers::fill_from_traced(
            layers::Loop::Closed,
            &base,
            &w,
            &before,
            &after,
            &mut metrics,
            &mut notes,
        );
        baseline_us_per_op = t.untraced_us_per_op;
        // The faults sit in the traced window, so only its first segment
        // (over before the first fault, 0.2 < FAIL_AT) tells what tracing
        // costs: against the baseline's last segment, its neighbour in time.
        if let (Some(&last), Some(&first)) = (base.seg_tps.last(), t.traced_seg_tps.first()) {
            metrics.set(
                "client.trace_overhead_pct",
                (last - first) / last.max(1e-9) * 100.0,
            );
        }
        (attempted, failed) = (t.attempted, t.failed);
        let ctrl_after = env.primary.controllers().status();
        metrics.set(
            "consensus.elections",
            (ctrl_after.elections - ctrl_before.elections) as f64,
        );
    }

    // Fault-window figures (Figures 8 and 9), from either kind of run.
    let (fail_at, recovered_at) = (offset(log.fail_ns, &w), offset(log.recovered_ns, &w));
    let (rec_tps, rec_refused) = slice_rates(&w, fail_at, recovered_at);
    let recover_s = (recovered_at - fail_at).as_secs_f64();
    let failover_gap = longest_commit_gap_ms(&w, fail_at, fail_at + Duration::from_millis(500));
    let leader_gap = longest_commit_gap_ms(
        &w,
        offset(log.leader_crash_ns, &w),
        offset(log.leader_back_ns, &w),
    );
    notes.push(format!(
        "faults: machine failed at {:.2}s, {} replicas re-created by {:.2}s ({} rows copied); \
         controller leader crashed at {:.2}s (crashed: {}), back at {:.2}s",
        fail_at.as_secs_f64(),
        log.recovered_dbs,
        recovered_at.as_secs_f64(),
        log.copied_rows,
        offset(log.leader_crash_ns, &w).as_secs_f64(),
        log.crashed_leader,
        offset(log.leader_back_ns, &w).as_secs_f64(),
    ));
    notes.push(format!(
        "recovery window: {rec_tps:.1} txn/s committed, {rec_refused:.4} of attempts refused; \
         longest commit gap {failover_gap:.1}ms at the failure, {leader_gap:.1}ms at the leader crash"
    ));
    let lag_mean =
        pump.lag_samples.iter().sum::<u64>() as f64 / pump.lag_samples.len().max(1) as f64;
    let lag_max = pump.lag_samples.iter().copied().max().unwrap_or(0);
    let duty_pct = pump.busy.as_secs_f64() / w.dur.as_secs_f64() * 100.0;
    notes.push(format!(
        "georep pump: duty {duty_pct:.2}%, {} records shipped of {} scanned, lag mean {lag_mean:.1} max {lag_max}",
        pump.shipped_records, pump.scanned_records
    ));
    checks.push(check(
        "every_lost_replica_recovered",
        log.failed_recoveries.is_empty() && log.recovered_dbs > 0,
        || {
            format!(
                "recovered {}, failed: {:?}",
                log.recovered_dbs, log.failed_recoveries
            )
        },
    ));
    checks.push(check(
        "controller_leader_crashed",
        log.crashed_leader,
        || "crash_leader found no leader to crash".into(),
    ));

    let (dr_checks, promote_us, in_doubt) = drain_and_promote(&mut env);
    checks.extend(dr_checks);

    if cfg.traced {
        let shipped = pump.shipped_records.max(1) as f64;
        metrics.set("client.recovery_txn_per_s", rec_tps);
        metrics.set("client.recovery_refused_frac", rec_refused);
        metrics.set("cluster.recover_s", recover_s);
        metrics.set(
            "cluster.copy_rows_per_s",
            log.copied_rows as f64 / recover_s.max(1e-9),
        );
        metrics.set("cluster.failover_gap_ms", failover_gap);
        metrics.set("consensus.leader_gap_ms", leader_gap);
        metrics.set(
            "georep.ship_us_per_record",
            pump.ship_time.as_secs_f64() * 1e6 / shipped,
        );
        metrics.set(
            "georep.apply_us_per_record",
            pump.apply_time.as_secs_f64() * 1e6 / shipped,
        );
        metrics.set(
            "georep.scanned_per_shipped",
            pump.scanned_records as f64 / shipped,
        );
        metrics.set("georep.duty_pct", duty_pct);
        metrics.set("georep.lag_records_mean", lag_mean);
        metrics.set("georep.lag_records_max", lag_max as f64);
        metrics.set("georep.promote_us", promote_us);
        metrics.set("georep.in_doubt_resolved", in_doubt as f64);
        layers::restart_probe(&env.standby, &mut metrics);
        layers::control_plane_spans(&mut metrics);
        layers::tpcw_ladder(
            cfg,
            layers::LadderShape {
                scale: scale(cfg),
                mix: &SHOPPING,
                engine: engine_config(),
                io_costs: false,
                with_wire: false,
            },
            baseline_us_per_op,
            &mut metrics,
            &mut notes,
        );
        layers::storage_probes(cfg, &mut metrics);
        layers::consensus_probe(cfg, &mut metrics);
        layers::write_trace(NAME, &mut notes);
    }
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
