//! Reader for `BENCHMARK.json`, the benchmark's contract: workloads,
//! metrics, directions and regression bounds.

use std::path::Path;

use crate::json::Json;
use crate::report::Better;

#[derive(Debug, Clone)]
pub struct SpecMetric {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Share of the baseline median by which the metric may get worse
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<SpecMetric>,
    pub per_layer: Vec<SpecMetric>,
}

fn metrics(v: &Json, what: &str, bounded: bool) -> Result<Vec<SpecMetric>, String> {
    v.as_arr()
        .ok_or_else(|| format!("{what}: expected a list"))?
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("{what}: metric without '{k}'"))
            };
            let name = field("name")?.to_string();
            let better = match field("better")? {
                "lower" => Better::Lower,
                "higher" => Better::Higher,
                other => return Err(format!("{what}.{name}: better = '{other}'")),
            };
            let bound = m.get("bound").and_then(Json::as_f64);
            if bounded && bound.is_none() {
                return Err(format!("{what}.{name}: no bound"));
            }
            Ok(SpecMetric {
                unit: field("unit")?.to_string(),
                name,
                better,
                bound,
            })
        })
        .collect()
}

impl Spec {
    pub fn parse(text: &str) -> Result<Spec, String> {
        let j = Json::parse(text)?;
        let get = |k: &str| j.get(k).ok_or_else(|| format!("missing key '{k}'"));
        let workloads = get("workloads")?
            .as_arr()
            .ok_or("workloads: expected a list")?
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| "workloads: entry without a name".to_string())
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Spec {
            run_seconds: get("run_seconds")?
                .as_f64()
                .ok_or("run_seconds: expected a number")?,
            workloads,
            end_to_end: metrics(get("end_to_end")?, "end_to_end", true)?,
            per_layer: metrics(get("per_layer")?, "per_layer", false)?,
        })
    }

    pub fn load(path: &Path) -> Result<Spec, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Spec::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    pub fn end_to_end_metric(&self, name: &str) -> Option<&SpecMetric> {
        self.end_to_end.iter().find(|m| m.name == name)
    }
}
