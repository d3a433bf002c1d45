//! What a run reports, and the catalogue of metric names.
//!
//! The names, units and directions here are the ones `BENCHMARK.json`
//! records; `--self-test` checks the two against each other.

use crate::json::Json;
use crate::stats::Summary;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric's fixed description.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// What a user of the system sees; every workload reports every one, from
/// the untraced run.
pub const END_TO_END: &[MetricDef] = &[
    lower("setup_s", "s"),
    higher("txn_per_s", "1/s"),
    lower("cpu_us_per_txn", "us"),
    lower("read_p50_us", "us"),
    lower("write_p50_us", "us"),
    lower("rss_mb", "MiB"),
];

/// Single layers, measured from outside; reported by the traced run. A
/// metric a workload does not exercise reads 0 there (README.md lists which
/// workload exercises which).
pub const PER_LAYER: &[MetricDef] = &[
    // The client's own view of the traced run, and fault-window figures.
    lower("client.refused_frac", "ratio"),
    lower("client.late_frac", "ratio"),
    higher("client.recovery_txn_per_s", "1/s"),
    lower("client.recovery_refused_frac", "ratio"),
    lower("client.trace_overhead_pct", "%"),
    lower("client.ladder_residual_pct", "%"),
    lower("client.segment_spread_pct", "%"),
    lower("client.service_p50_us", "us"),
    lower("client.read_p99_us", "us"),
    lower("client.write_p99_us", "us"),
    // tpcw
    lower("tpcw.gen_us_per_txn", "us"),
    // sql
    lower("sql.parse_ns_per_stmt", "ns"),
    lower("sql.parse_share_pct", "%"),
    lower("sql.exec_read_us_per_stmt", "us"),
    lower("sql.exec_write_us_per_stmt", "us"),
    // storage
    lower("storage.point_read_us", "us"),
    lower("storage.insert_us", "us"),
    lower("storage.txn_envelope_us", "us"),
    lower("storage.page_accesses_per_txn", "count"),
    higher("storage.buffer_hit_rate", "ratio"),
    lower("storage.lock_acq_per_txn", "count"),
    lower("storage.lock_waits_per_ktxn", "count"),
    lower("storage.deadlocks_per_ktxn", "count"),
    lower("storage.lock_timeouts", "count"),
    lower("storage.wal_records_per_txn", "count"),
    lower("storage.wal_len_end", "count"),
    lower("storage.wal_append_ns", "ns"),
    lower("storage.restart_replay_ms", "ms"),
    // cluster
    lower("cluster.begin_us", "us"),
    lower("cluster.execute_us", "us"),
    lower("cluster.commit_us", "us"),
    lower("cluster.dispatch_us_per_txn", "us"),
    lower("cluster.repl_2pc_us_per_txn", "us"),
    lower("cluster.twopc_per_txn", "count"),
    lower("cluster.straggler_acks", "count"),
    lower("cluster.pool_threads_spawned", "count"),
    lower("cluster.create_db_us", "us"),
    lower("cluster.ddl_us", "us"),
    lower("cluster.set_sla_us", "us"),
    lower("cluster.connect_us", "us"),
    lower("cluster.recover_s", "s"),
    higher("cluster.copy_rows_per_s", "1/s"),
    lower("cluster.write_rejected", "count"),
    lower("cluster.failover_gap_ms", "ms"),
    // consensus
    lower("consensus.submit_us", "us"),
    lower("consensus.proposals_per_txn", "count"),
    lower("consensus.leader_gap_ms", "ms"),
    lower("consensus.elections", "count"),
    // sla
    lower("sla.decide_ns", "ns"),
    lower("sla.reject_ns", "ns"),
    lower("sla.gate_us_per_txn", "us"),
    higher("sla.admitted", "count"),
    lower("sla.deferred", "count"),
    lower("sla.rejected", "count"),
    lower("sla.place_us_per_db", "us"),
    // net
    lower("net.wire_us_per_txn", "us"),
    lower("net.call_us", "us"),
    lower("net.ping_rtt_us", "us"),
    lower("net.encode_ns_per_frame", "ns"),
    lower("net.decode_ns_per_frame", "ns"),
    lower("net.frames_per_txn", "count"),
    lower("net.bytes_per_txn", "count"),
    // georep
    lower("georep.ship_us_per_record", "us"),
    lower("georep.apply_us_per_record", "us"),
    lower("georep.scanned_per_shipped", "ratio"),
    lower("georep.duty_pct", "%"),
    lower("georep.lag_records_mean", "count"),
    lower("georep.lag_records_max", "count"),
    lower("georep.promote_us", "us"),
    lower("georep.in_doubt_resolved", "count"),
    // platform
    lower("platform.connect_us", "us"),
    // obs
    lower("obs.render_ms", "ms"),
    lower("obs.series", "count"),
];

pub fn def_of(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|d| d.name == name)
}

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    /// Inter-quartile distance across the window's five segments, in the
    /// metric's unit, where the metric is a per-segment median.
    pub spread: Option<f64>,
}

/// Values of the metrics in one list, filled by name.
#[derive(Debug, Default)]
pub struct MetricSet {
    values: Vec<Metric>,
}

impl MetricSet {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.put(name, value, None);
    }

    pub fn set_summary(&mut self, name: &'static str, s: Summary) {
        self.put(name, s.median, Some(s.iqr));
    }

    fn put(&mut self, name: &'static str, value: f64, spread: Option<f64>) {
        assert!(def_of(name).is_some(), "metric '{name}' is not catalogued");
        let value = if value.is_finite() { value } else { 0.0 };
        match self.values.iter_mut().find(|m| m.name == name) {
            Some(m) => {
                m.value = value;
                m.spread = spread;
            }
            None => self.values.push(Metric {
                name,
                value,
                spread,
            }),
        }
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.values.iter().find(|m| m.name == name)
    }

    /// Every metric of `list`, in catalogue order; unset ones read 0.
    pub fn complete(&self, list: &'static [MetricDef]) -> Vec<Metric> {
        list.iter()
            .map(|d| {
                self.get(d.name).cloned().unwrap_or(Metric {
                    name: d.name,
                    value: 0.0,
                    spread: None,
                })
            })
            .collect()
    }
}

/// A named correctness check and its verdict.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub verdict: Result<(), String>,
}

/// Everything one run of one workload reports.
#[derive(Debug)]
pub struct RunOutput {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Operations started / abandoned inside the measured window.
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    pub metrics: MetricSet,
    /// Free-form context lines (sample counts, tail percentile in use…).
    pub notes: Vec<String>,
}

impl RunOutput {
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.verdict.is_ok())
    }

    pub fn list(&self) -> &'static [MetricDef] {
        if self.traced {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// Human-readable report: every metric by name with its unit.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# e2e workload={} seed={} seconds={} trace={} cores={}",
            self.workload,
            self.seed,
            self.seconds,
            u8::from(self.traced),
            std::thread::available_parallelism().map_or(0, |n| n.get()),
        );
        for n in &self.notes {
            let _ = writeln!(out, "# {n}");
        }
        for m in self.metrics.complete(self.list()) {
            let unit = def_of(m.name).map_or("", |d| d.unit);
            match m.spread {
                Some(s) => {
                    let _ = writeln!(
                        out,
                        "{:<34}{:>16.4} {:<6} {}.spread {:.4}",
                        m.name, m.value, unit, m.name, s
                    );
                }
                None => {
                    let _ = writeln!(out, "{:<34}{:>16.4} {}", m.name, m.value, unit);
                }
            }
        }
        for c in &self.checks {
            match &c.verdict {
                Ok(()) => {
                    let _ = writeln!(out, "check {:<44} ok", c.name);
                }
                Err(why) => {
                    let _ = writeln!(out, "check {:<44} FAILED: {why}", c.name);
                }
            }
        }
        let _ = writeln!(
            out,
            "attempted {}  failed {}  correct {}",
            self.attempted,
            self.failed,
            self.correct()
        );
        out
    }

    /// The result object: exactly `correct`, `attempted`, `failed`,
    /// `metrics`, each metric exactly `value` and `unit`.
    pub fn result_json(&self) -> Json {
        let metrics = self.metrics.complete(self.list()).into_iter().map(|m| {
            let unit = def_of(m.name).map_or("", |d| d.unit);
            (
                m.name,
                Json::obj([
                    ("value", Json::Num(m.value)),
                    ("unit", Json::Str(unit.into())),
                ]),
            )
        });
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
    }

    /// The richer record `--out` files hold and `--compare` reads.
    pub fn record_json(&self, quick: bool) -> Json {
        let metrics = self.metrics.complete(self.list()).into_iter().map(|m| {
            (
                m.name,
                Json::obj([
                    ("value", Json::Num(m.value)),
                    ("spread", m.spread.map_or(Json::Null, Json::Num)),
                ]),
            )
        });
        Json::obj([
            ("workload", Json::Str(self.workload.into())),
            ("seed", Json::Num(self.seed as f64)),
            ("seconds", Json::Num(self.seconds)),
            ("traced", Json::Bool(self.traced)),
            ("quick", Json::Bool(quick)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(d.name), "duplicate metric {}", d.name);
            assert!(d.name.len() <= 64);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d.unit.len() <= 16);
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == Better::Lower));
    }

    #[test]
    fn result_has_exactly_the_contract_keys() {
        let mut metrics = MetricSet::default();
        metrics.set("setup_s", 1.25);
        let out = RunOutput {
            workload: "w",
            seed: 1,
            seconds: 1.0,
            traced: false,
            attempted: 10,
            failed: 0,
            checks: vec![],
            metrics,
            notes: vec![],
        };
        let j = out.result_json();
        let keys: Vec<&String> = j.as_obj().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let m = j.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(m.len(), END_TO_END.len());
        let setup = &m["setup_s"];
        assert_eq!(setup.get("value").unwrap().as_f64(), Some(1.25));
        assert_eq!(setup.get("unit").unwrap().as_str(), Some("s"));
        assert_eq!(setup.as_obj().unwrap().len(), 2);
    }
}
