//! `--compare <a.json> <b.json>`: judge two result files by the bounds in
//! `BENCHMARK.json`.
//!
//! A result file is what `e2e --out <file>` writes: the records of one or
//! more runs of each workload. For every (workload, end-to-end metric) the
//! tool prints both medians, both spreads and a verdict:
//!
//! * `unresolved` — either side's spread exceeds the metric's bound, so
//!   the runs cannot tell a change of that size from noise;
//! * `worse` / `better` — `b`'s median differs from `a`'s by more than the
//!   bound, in the metric's bad / good direction;
//! * `same` — otherwise.
//!
//! A side's spread is the inter-quartile distance of its runs' values as a
//! share of their median (the driver's arithmetic); with a single run it
//! falls back to that run's own spread across its five segments.

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::Json;
use crate::report::Better;
use crate::spec::Spec;
use crate::stats::Summary;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Worse,
    Better,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a comparison: median of the runs and relative spread.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    pub median: f64,
    pub rel_spread: f64,
}

pub fn judge(better: Better, bound: f64, a: Side, b: Side) -> Verdict {
    if a.rel_spread > bound || b.rel_spread > bound {
        return Verdict::Unresolved;
    }
    let base = a.median.abs().max(f64::MIN_POSITIVE);
    let worse_by = match better {
        Better::Lower => (b.median - a.median) / base,
        Better::Higher => (a.median - b.median) / base,
    };
    if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// One metric's runs: (value, within-run spread).
type Runs = Vec<(f64, Option<f64>)>;

/// Values (and within-run spreads) of each metric, per workload, from the
/// untraced records of one result file.
struct ResultFile {
    quick: bool,
    seconds: f64,
    /// workload → metric → runs
    runs: BTreeMap<String, BTreeMap<String, Runs>>,
}

fn load(path: &Path) -> Result<ResultFile, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    parse_result_file(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn parse_result_file(text: &str) -> Result<ResultFile, String> {
    let j = Json::parse(text)?;
    let records = j
        .get("records")
        .and_then(Json::as_arr)
        .ok_or("not a result file: no 'records' list")?;
    let mut out = ResultFile {
        quick: false,
        seconds: 0.0,
        runs: BTreeMap::new(),
    };
    let mut first = true;
    for r in records {
        let quick = r.get("quick").and_then(Json::as_bool).unwrap_or(false);
        let seconds = r.get("seconds").and_then(Json::as_f64).unwrap_or(0.0);
        if first {
            (out.quick, out.seconds, first) = (quick, seconds, false);
        } else if quick != out.quick || seconds != out.seconds {
            return Err("mixes quick and full runs, or runs of different length".into());
        }
        if r.get("traced").and_then(Json::as_bool) != Some(false) {
            continue;
        }
        if r.get("correct").and_then(Json::as_bool) != Some(true) {
            return Err("holds a run whose correctness checks failed".into());
        }
        let workload = r
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("record without a workload")?;
        let metrics = r
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or("record without metrics")?;
        let per_metric = out.runs.entry(workload.to_string()).or_default();
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{workload}.{name}: no value"))?;
            let spread = m.get("spread").and_then(Json::as_f64);
            per_metric
                .entry(name.clone())
                .or_default()
                .push((value, spread));
        }
    }
    Ok(out)
}

fn side(values: &[(f64, Option<f64>)]) -> Side {
    let v: Vec<f64> = values.iter().map(|(v, _)| *v).collect();
    let s = Summary::of(&v);
    let rel_spread = match values {
        [(value, Some(within))] if *value != 0.0 => within / value.abs(),
        _ => s.rel_spread(),
    };
    Side {
        median: s.median,
        rel_spread,
    }
}

/// Compare and print. `Ok(true)` when no row is `worse` or `unresolved`.
pub fn run(spec_path: &Path, a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let spec = Spec::load(spec_path)?;
    let (a, b) = (load(a_path)?, load(b_path)?);
    if a.quick != b.quick {
        return Err("refusing to compare a --quick result with a full one".into());
    }
    if a.seconds != b.seconds {
        return Err(format!(
            "refusing to compare runs of different length ({} s vs {} s)",
            a.seconds, b.seconds
        ));
    }
    if a.quick {
        println!("# both inputs are --quick runs: verdicts are a smoke signal only");
    }
    println!(
        "{:<20} {:<16} {:>12} {:>8} {:>12} {:>8} {:>7} {:>8}  verdict",
        "workload", "metric", "a.median", "a.sprd%", "b.median", "b.sprd%", "bound%", "change%"
    );
    let mut clean = true;
    let mut rows = 0;
    for w in &spec.workloads {
        let (Some(ra), Some(rb)) = (a.runs.get(w), b.runs.get(w)) else {
            continue;
        };
        for m in &spec.end_to_end {
            let (Some(va), Some(vb)) = (ra.get(&m.name), rb.get(&m.name)) else {
                continue;
            };
            let bound = m.bound.unwrap_or(0.0);
            let (sa, sb) = (side(va), side(vb));
            let verdict = judge(m.better, bound, sa, sb);
            clean &= matches!(verdict, Verdict::Same | Verdict::Better);
            rows += 1;
            println!(
                "{:<20} {:<16} {:>12.3} {:>8.2} {:>12.3} {:>8.2} {:>7.1} {:>+8.2}  {}",
                w,
                m.name,
                sa.median,
                sa.rel_spread * 100.0,
                sb.median,
                sb.rel_spread * 100.0,
                bound * 100.0,
                (sb.median - sa.median) / sa.median.abs().max(f64::MIN_POSITIVE) * 100.0,
                verdict.as_str()
            );
        }
    }
    if rows == 0 {
        return Err("the two files share no (workload, metric) pair".into());
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(median: f64, rel_spread: f64) -> Side {
        Side { median, rel_spread }
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        // Latency (lower is better), bound 10 %.
        assert_eq!(
            judge(Better::Lower, 0.1, s(100.0, 0.02), s(105.0, 0.02)),
            Verdict::Same
        );
        assert_eq!(
            judge(Better::Lower, 0.1, s(100.0, 0.02), s(115.0, 0.02)),
            Verdict::Worse
        );
        assert_eq!(
            judge(Better::Lower, 0.1, s(100.0, 0.02), s(85.0, 0.02)),
            Verdict::Better
        );
        // Throughput (higher is better): the same numbers flip.
        assert_eq!(
            judge(Better::Higher, 0.1, s(100.0, 0.02), s(115.0, 0.02)),
            Verdict::Better
        );
        assert_eq!(
            judge(Better::Higher, 0.1, s(100.0, 0.02), s(85.0, 0.02)),
            Verdict::Worse
        );
    }

    #[test]
    fn noisy_sides_are_unresolved_not_unchanged() {
        assert_eq!(
            judge(Better::Lower, 0.1, s(100.0, 0.15), s(100.0, 0.01)),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(Better::Lower, 0.1, s(100.0, 0.01), s(200.0, 0.12)),
            Verdict::Unresolved
        );
    }

    fn file(quick: bool, values: &[f64]) -> String {
        let records: Vec<String> = values
            .iter()
            .map(|v| {
                format!(
                    r#"{{"workload": "w", "seed": 1, "seconds": 12, "traced": false,
                        "quick": {quick}, "correct": true, "attempted": 10, "failed": 0,
                        "metrics": {{"read_p50_us": {{"value": {v}, "spread": 1.0}}}}}}"#
                )
            })
            .collect();
        format!(r#"{{"records": [{}]}}"#, records.join(","))
    }

    #[test]
    fn sides_use_run_spread_or_fall_back_to_segment_spread() {
        let f = parse_result_file(&file(false, &[100.0, 102.0, 104.0, 106.0, 108.0])).unwrap();
        let sd = side(&f.runs["w"]["read_p50_us"]);
        assert_eq!(sd.median, 104.0);
        // Quartiles 101 and 107 → IQR 6.
        assert!((sd.rel_spread - 6.0 / 104.0).abs() < 1e-12);
        let f = parse_result_file(&file(false, &[50.0])).unwrap();
        let sd = side(&f.runs["w"]["read_p50_us"]);
        assert_eq!((sd.median, sd.rel_spread), (50.0, 1.0 / 50.0));
    }

    #[test]
    fn mixed_profiles_are_refused() {
        let dir = std::env::temp_dir().join(format!("e2e-compare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let spec = dir.join("BENCHMARK.json");
        std::fs::write(
            &spec,
            r#"{"command": ["x"], "paths": ["p"], "run_seconds": 12,
                "workloads": [{"name": "w", "why": "y"}],
                "end_to_end": [{"name": "read_p50_us", "unit": "us", "better": "lower", "bound": 0.1}],
                "per_layer": []}"#,
        )
        .unwrap();
        let (a, b, c) = (dir.join("a.json"), dir.join("b.json"), dir.join("c.json"));
        std::fs::write(&a, file(false, &[100.0, 101.0, 102.0])).unwrap();
        std::fs::write(&b, file(true, &[100.0, 101.0, 102.0])).unwrap();
        std::fs::write(&c, file(false, &[130.0, 131.0, 132.0])).unwrap();
        assert!(run(&spec, &a, &b).unwrap_err().contains("quick"));
        assert_eq!(run(&spec, &a, &a), Ok(true));
        assert_eq!(run(&spec, &a, &c), Ok(false));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
