//! Shared experiment harness for the per-figure bench targets.
//!
//! Every bench target regenerates one table or figure of the paper's
//! evaluation (see DESIGN.md §4 for the index and EXPERIMENTS.md for the
//! recorded results). Absolute numbers differ from the paper — the substrate
//! is a simulated cluster on one host, not ten Xeon machines — but the
//! *shapes* (orderings, ratios, crossovers) are the reproduction target.
//!
//! Environment knobs: set `TENANTDB_BENCH_FAST=1` to run each experiment at
//! reduced duration/scale (used by CI smoke runs).

use std::sync::Arc;
use std::time::Duration;

use tenantdb_cluster::{ClusterConfig, ClusterController, ReadPolicy, WritePolicy};
use tenantdb_storage::{CostModel, EngineConfig};
use tenantdb_tpcw::{
    run_workload, setup_tpcw_databases, DbWorkload, Mix, Scale, WorkloadConfig, WorkloadReport,
};

/// True when the fast (CI) profile is requested.
pub fn fast_mode() -> bool {
    std::env::var("TENANTDB_BENCH_FAST").is_ok_and(|v| v == "1")
}

/// True when `TENANTDB_BENCH_METRICS=1`: experiments print the cluster's
/// metric deltas across the measured window to stderr.
pub fn metrics_mode() -> bool {
    std::env::var("TENANTDB_BENCH_METRICS").is_ok_and(|v| v == "1")
}

/// Snapshot the cluster registry before a measured window ([`metrics_mode`]
/// gated; `None` when reporting is off).
pub fn metrics_window_start(cluster: &ClusterController) -> Option<tenantdb_obs::MetricsSnapshot> {
    metrics_mode().then(|| cluster.metrics().registry().snapshot())
}

/// Print the per-series delta since `before` to stderr, in the compact
/// `key +delta` form (counters and histogram counts are deltas; gauges are
/// the window-end level).
pub fn metrics_window_report(
    label: &str,
    cluster: &ClusterController,
    before: Option<tenantdb_obs::MetricsSnapshot>,
) {
    let Some(before) = before else { return };
    let delta = cluster.metrics().registry().snapshot().delta_since(&before);
    eprint!("-- metrics window [{label}] --\n{}", delta.render_compact());
}

/// Scale a duration down in fast mode.
pub fn secs(full: f64) -> Duration {
    let s = if fast_mode() { full / 4.0 } else { full };
    Duration::from_secs_f64(s.max(0.2))
}

/// Engine configuration used by the throughput experiments: a small buffer
/// pool relative to the working set, so read-routing locality matters.
/// Engines start with free page costs (so bulk loading is fast); the
/// experiment enables the I/O cost model for the measured window via
/// [`enable_io_costs`].
pub fn bench_engine_config(buffer_pages: usize) -> EngineConfig {
    EngineConfig {
        buffer_pages,
        cost: CostModel::free(),
        lock_timeout: Duration::from_millis(300),
    }
}

/// Turn on the disk cost model on every machine of a cluster.
pub fn enable_io_costs(cluster: &ClusterController) {
    for m in cluster.machines() {
        m.engine.set_page_costs(CostModel::default_model());
    }
}

/// A throughput experiment: `n_dbs` TPC-W databases on `machines` machines
/// with the given replication setup, driven for `duration`.
pub struct ThroughputExperiment {
    pub read_policy: ReadPolicy,
    pub write_policy: WritePolicy,
    pub replicas: usize,
    pub machines: usize,
    pub n_dbs: usize,
    pub items: usize,
    pub buffer_pages: usize,
    pub seed: u64,
}

impl Default for ThroughputExperiment {
    fn default() -> Self {
        ThroughputExperiment {
            read_policy: ReadPolicy::PinnedReplica,
            write_policy: WritePolicy::Conservative,
            replicas: 2,
            machines: 4,
            n_dbs: 4,
            // Databases must be big enough that uniform point reads span many
            // pages; below ~1000 items the whole read set fits in any pool.
            items: if fast_mode() { 1000 } else { 4000 },
            // 0 = auto: sized so one database's read working set fits per
            // machine (option 1) but two databases' do not (option 3).
            buffer_pages: 0,
            seed: 42,
        }
    }
}

impl ThroughputExperiment {
    /// Build the cluster and load the databases.
    pub fn setup(&self) -> (Arc<ClusterController>, Vec<DbWorkload>) {
        // Auto buffer sizing: one database's hot set is roughly half its
        // data+index pages; give each machine room for about one database.
        let pages = if self.buffer_pages == 0 {
            // Calibrated against measured read working sets (see the
            // buffer-pool ablation): ~rows/200 holds one database's hot read
            // set with a little slack.
            (Scale::with_items(self.items).approx_rows() / 200).clamp(48, 4096)
        } else {
            self.buffer_pages
        };
        let cfg = ClusterConfig {
            read_policy: self.read_policy,
            write_policy: self.write_policy,
            engine: bench_engine_config(pages),
            seed: self.seed,
            ..Default::default()
        };
        let cluster = ClusterController::with_machines(cfg, self.machines);
        let workloads = setup_tpcw_databases(
            &cluster,
            self.n_dbs,
            self.replicas,
            Scale::with_items(self.items),
            self.seed,
        )
        .expect("setup databases");
        enable_io_costs(&cluster);
        (cluster, workloads)
    }

    /// Run the workload and return the aggregate report.
    pub fn run(
        &self,
        mix: &'static Mix,
        sessions_per_db: usize,
        duration: Duration,
    ) -> WorkloadReport {
        let (cluster, workloads) = self.setup();
        // Short warm-up so buffer pools reach steady state before measuring.
        run_workload(
            &cluster,
            &workloads,
            &WorkloadConfig {
                mix,
                sessions_per_db,
                duration: duration / 4,
                seed: self.seed ^ 0xAAAA,
            },
        );
        cluster.reset_counters();
        let window = metrics_window_start(&cluster);
        let report = run_workload(
            &cluster,
            &workloads,
            &WorkloadConfig {
                mix,
                sessions_per_db,
                duration,
                seed: self.seed,
            },
        );
        metrics_window_report("throughput", &cluster, window);
        report
    }
}

/// The four replication series of Figures 2–4.
pub fn replication_series() -> Vec<(&'static str, Option<ReadPolicy>)> {
    vec![
        ("no-replication", None),
        ("option-1 (pinned)", Some(ReadPolicy::PinnedReplica)),
        ("option-2 (per-txn)", Some(ReadPolicy::PerTransaction)),
        ("option-3 (per-op)", Some(ReadPolicy::PerOperation)),
    ]
}

/// The TPC-W mixes a per-mix figure target runs, each with its position in
/// the paper's figure order (shopping, browsing, ordering): the mix named by
/// the first argument, all three when none is given.
pub fn mixes_from_args() -> Vec<(usize, &'static Mix)> {
    let all = [
        &tenantdb_tpcw::SHOPPING,
        &tenantdb_tpcw::BROWSING,
        &tenantdb_tpcw::ORDERING,
    ];
    // `cargo bench` passes its own `--bench` flag through.
    let Some(name) = std::env::args().skip(1).find(|a| !a.starts_with('-')) else {
        return all.into_iter().enumerate().collect();
    };
    match all.iter().position(|m| m.name == name) {
        Some(nth) => vec![(nth, all[nth])],
        None => {
            eprintln!("unknown mix {name:?}: expected shopping, browsing or ordering");
            std::process::exit(2);
        }
    }
}

/// Run one throughput figure (Figures 2–4): TPS for each replication series
/// across a sweep of concurrent sessions per database.
pub fn run_throughput_figure(figure: &str, mix: &'static Mix) {
    // Single-host note: the whole cluster is simulated on one machine, so
    // adding sessions beyond ~2 measures scheduler contention, not capacity.
    let sessions_sweep: &[usize] = if fast_mode() { &[2] } else { &[1, 2] };
    let duration = secs(3.0);
    println!(
        "# {figure}: TPC-W {} mix — committed TPS (aggregate over all databases)",
        mix.name
    );
    println!("# cluster: 4 machines, 4 databases, conservative writes");
    print!("{:<22}", "series \\ sessions/db");
    for s in sessions_sweep {
        print!("{s:>10}");
    }
    println!();
    for (label, policy) in replication_series() {
        print!("{label:<22}");
        for &sessions in sessions_sweep {
            let exp = match policy {
                None => ThroughputExperiment {
                    replicas: 1,
                    ..Default::default()
                },
                Some(p) => ThroughputExperiment {
                    read_policy: p,
                    ..Default::default()
                },
            };
            let report = exp.run(mix, sessions, duration);
            print!("{:>10.1}", report.tps());
        }
        println!();
    }
}

/// Run one deadlock figure (Figures 5–7): deadlocks per 1000 transactions
/// for each read option across database sizes.
pub fn run_deadlock_figure(figure: &str, mix: &'static Mix) {
    let sizes: &[usize] = if fast_mode() {
        &[200, 400]
    } else {
        &[200, 400, 800, 1600]
    };
    let duration = secs(2.0);
    println!(
        "# {figure}: TPC-W {} mix — deadlocks per 1000 transactions",
        mix.name
    );
    println!("# cluster: 4 machines, 4 databases, 2 replicas, conservative writes");
    print!("{:<22}", "series \\ items/db");
    for s in sizes {
        print!("{s:>10}");
    }
    println!();
    for (label, policy) in [
        ("option-1", ReadPolicy::PinnedReplica),
        ("option-2", ReadPolicy::PerTransaction),
        ("option-3", ReadPolicy::PerOperation),
    ] {
        print!("{label:<22}");
        for &items in sizes {
            let exp = ThroughputExperiment {
                read_policy: policy,
                items,
                // Generous buffer: Figures 5–7 isolate lock contention, not
                // cache effects.
                buffer_pages: 16384,
                ..Default::default()
            };
            let report = exp.run(mix, 6, duration);
            print!("{:>10.2}", report.deadlock_rate_per_1k());
        }
        println!();
    }
}

// ------------------------------------------------------------ micro timing

/// Minimal microbenchmark loop (no external harness): run `f` repeatedly
/// for a fast-mode-aware measured window after a warm-up, reporting mean
/// ns/op. Timer overhead is amortized by reading the clock once per batch.
pub fn time_op_default(mut f: impl FnMut()) -> f64 {
    let (w, m) = if fast_mode() { (0.05, 0.2) } else { (0.3, 1.5) };
    let (warmup, measure) = (Duration::from_secs_f64(w), Duration::from_secs_f64(m));
    let t0 = std::time::Instant::now();
    let mut warm_iters = 0u64;
    while t0.elapsed() < warmup {
        f();
        warm_iters += 1;
    }
    // Batch so the clock is read ~200 times over the measured window.
    let est_per_op = warmup.as_nanos() as u64 / warm_iters.max(1);
    let batch = (measure.as_nanos() as u64 / est_per_op.max(1) / 200).clamp(1, 1 << 20);
    let mut ops = 0u64;
    let start = std::time::Instant::now();
    let mut elapsed;
    loop {
        for _ in 0..batch {
            f();
        }
        ops += batch;
        elapsed = start.elapsed();
        if elapsed >= measure {
            break;
        }
    }
    elapsed.as_nanos() as f64 / ops as f64
}

/// Print one micro result line: name, ns/op, ops/s.
pub fn report_micro(name: &str, ns_per_op: f64) {
    println!(
        "{name:<38}{:>12.0} ns/op{:>14.0} ops/s",
        ns_per_op,
        1e9 / ns_per_op
    );
}

// ---------------------------------------------------------------- recovery

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use tenantdb_cluster::{recover_machine, CopyGranularity, RecoveryConfig};
use tenantdb_storage::Throttle;

/// The Figure 8/9 experiment: run a live workload, fail one machine, recover
/// its databases with `threads` concurrent copy jobs at the given
/// granularity, and measure rejections and throughput during recovery.
pub struct RecoveryExperiment {
    pub granularity: CopyGranularity,
    pub threads: usize,
    pub machines: usize,
    pub n_dbs: usize,
    pub items: usize,
    pub copy_rows_per_sec: u64,
    pub seed: u64,
}

impl Default for RecoveryExperiment {
    fn default() -> Self {
        RecoveryExperiment {
            granularity: CopyGranularity::TableLevel,
            threads: 1,
            machines: 6,
            n_dbs: 8,
            items: if fast_mode() { 150 } else { 300 },
            copy_rows_per_sec: if fast_mode() { 4000 } else { 2000 },
            seed: 42,
        }
    }
}

/// Measured outcome of one recovery run.
#[derive(Debug)]
pub struct RecoveryOutcome {
    /// Proactively rejected transactions per recovering database.
    pub rejected_per_db: f64,
    /// Committed TPS during the recovery window (whole cluster).
    pub tps_during_recovery: f64,
    /// Wall time of the recovery itself.
    pub recovery_wall: Duration,
    /// Mean time a recovering database ran on one replica: from the
    /// failure until its new replica joined.
    pub single_replica: Duration,
    /// Number of databases whose replica was re-created.
    pub recovered_dbs: usize,
}

impl RecoveryExperiment {
    pub fn run(&self, mix: &'static Mix, sessions_per_db: usize) -> RecoveryOutcome {
        let cfg = ClusterConfig {
            read_policy: ReadPolicy::PinnedReplica,
            write_policy: WritePolicy::Conservative,
            engine: bench_engine_config(4096),
            seed: self.seed,
            ..Default::default()
        };
        let cluster = ClusterController::with_machines(cfg, self.machines);
        let workloads = setup_tpcw_databases(
            &cluster,
            self.n_dbs,
            2,
            Scale::with_items(self.items),
            self.seed,
        )
        .expect("setup");

        // Background workload for the whole experiment.
        let stop_at = std::time::Instant::now() + secs(8.0);
        let bg = {
            let cluster = Arc::clone(&cluster);
            let wl: Vec<DbWorkload> = workloads
                .iter()
                .map(|w| DbWorkload {
                    db: w.db.clone(),
                    ids: Arc::clone(&w.ids),
                    scale: w.scale,
                })
                .collect();
            let seed = self.seed;
            std::thread::spawn(move || {
                run_workload(
                    &cluster,
                    &wl,
                    &WorkloadConfig {
                        mix,
                        sessions_per_db,
                        duration: stop_at.saturating_duration_since(std::time::Instant::now()),
                        seed,
                    },
                )
            })
        };

        std::thread::sleep(secs(1.0));

        // Fail the machine hosting the most databases.
        let victim = cluster
            .machine_ids()
            .into_iter()
            .max_by_key(|&m| cluster.databases_on(m).len())
            .expect("machines");
        let victim_dbs = cluster.databases_on(victim);
        cluster.fail_machine(victim).unwrap();
        cluster.reset_counters();
        let window = metrics_window_start(&cluster);

        let t0 = std::time::Instant::now();
        let recovered = Arc::new(AtomicBool::new(false));
        let single_replica = {
            let (cluster, recovered) = (Arc::clone(&cluster), Arc::clone(&recovered));
            let dbs = victim_dbs.clone();
            std::thread::spawn(move || single_replica_times(&cluster, dbs, t0, &recovered))
        };
        let report = recover_machine(
            &cluster,
            victim,
            RecoveryConfig {
                granularity: self.granularity,
                threads: self.threads,
                throttle: Throttle::new(self.copy_rows_per_sec),
            },
        );
        let recovery_wall = t0.elapsed();
        // ordering: Release pairs with the poller's Acquire: its next pass
        // sees every replica recovery added.
        recovered.store(true, Ordering::Release);
        let single_replica = single_replica.join().expect("replica poller");
        metrics_window_report("recovery", &cluster, window);

        // Snapshot counters at recovery completion.
        let during = cluster.metrics().total_counters();
        let rejected: u64 = victim_dbs
            .iter()
            .map(|db| cluster.counters(db).rejected)
            .sum();

        let _ = bg.join().expect("workload thread");
        RecoveryOutcome {
            rejected_per_db: if victim_dbs.is_empty() {
                0.0
            } else {
                rejected as f64 / victim_dbs.len() as f64
            },
            tps_during_recovery: during.committed as f64 / recovery_wall.as_secs_f64().max(1e-9),
            recovery_wall,
            single_replica: single_replica.iter().sum::<Duration>()
                / single_replica.len().max(1) as u32,
            recovered_dbs: report.recovered.len(),
        }
    }
}

/// For each of `dbs` that gets its second alive replica back, the time
/// from `failed_at` until it did. Polled every 5 ms, so each time is late
/// by at most that; the last poll is made after `recovered` is set.
fn single_replica_times(
    cluster: &ClusterController,
    mut dbs: Vec<String>,
    failed_at: std::time::Instant,
    recovered: &AtomicBool,
) -> Vec<Duration> {
    let mut times = Vec::new();
    loop {
        // ordering: Acquire pairs with the Release store after recovery.
        let last = recovered.load(Ordering::Acquire);
        dbs.retain(|db| {
            let back = cluster.alive_replicas(db).is_ok_and(|r| r.len() >= 2);
            if back {
                times.push(failed_at.elapsed());
            }
            !back
        });
        if last || dbs.is_empty() {
            return times;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// A tiny stable hash-free counter helper used by micro benches.
pub static BENCH_COUNTER: AtomicU64 = AtomicU64::new(0);

pub fn bump() -> u64 {
    // ordering: Relaxed — benchmark side-effect sink; no ordering semantics.
    BENCH_COUNTER.fetch_add(1, Ordering::Relaxed)
}
