//! # tenantdb-obs
//!
//! Zero-external-dependency observability for the platform: the paper
//! evaluates its controller entirely through externally observed throughput
//! and rejection curves (Figs. 8–9, the §4.1 SLA); this crate gives the
//! reproduction the *internal* view every subsequent experiment is judged
//! against.
//!
//! Three primitives, all std-only and lock-free on the hot path:
//!
//! * [`Counter`] / [`Gauge`] — relaxed atomics, handed out as `Arc`s so
//!   instrumented code caches the handle and pays one `fetch_add` per event;
//! * [`Histogram`] — fixed power-of-two latency buckets (µs) with
//!   interpolated p50/p95/p99 (see [`histogram::BUCKET_BOUNDS_US`]);
//! * [`EventLog`] — a bounded ring of structured `(kind, fields)` events for
//!   ordered happenings (copy progress, write rejections, pool growth).
//!
//! A [`MetricsRegistry`] owns all three, keyed by `(name, labels)`, and
//! renders a Prometheus-style text exposition via
//! [`MetricsRegistry::render_text`]. [`MetricsRegistry::snapshot`] captures
//! a point-in-time view that the bench harness diffs across a measurement
//! window.
//!
//! ```
//! use tenantdb_obs::MetricsRegistry;
//!
//! let reg = MetricsRegistry::new();
//! reg.describe("txn_committed_total", "Transactions committed, per database.");
//! reg.describe("commit_latency_us", "Commit latency in microseconds.");
//! let commits = reg.counter("txn_committed_total", &[("db", "app")]);
//! commits.inc();
//! let lat = reg.histogram("commit_latency_us", &[]);
//! lat.observe(250);
//! let text = reg.render_text();
//! assert!(text.contains("txn_committed_total{db=\"app\"} 1"));
//! assert!(text.contains("commit_latency_us_count 1"));
//! ```

#![warn(missing_docs)]

pub mod events;
pub mod histogram;

pub use events::{Event, EventLog};
pub use histogram::Histogram;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// A monotonically increasing event count.
#[derive(Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one.
    pub fn inc(&self) {
        // ordering: Relaxed — advisory telemetry; only atomicity is needed, no cross-variable ordering.
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        // ordering: Relaxed — advisory telemetry; only atomicity is needed, no cross-variable ordering.
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        // ordering: Relaxed — snapshot read; may tear across related counters by design (see module docs).
        self.0.load(Ordering::Relaxed)
    }

    /// Reset to zero (measurement-window resets; Prometheus counters never
    /// do this, but bench windows and `reset_counters()` need it).
    pub fn reset(&self) {
        // ordering: Relaxed — window reset; racing increments land in either window, both acceptable.
        self.0.store(0, Ordering::Relaxed);
    }
}

/// An instantaneous signed level (queue depths, live thread counts).
#[derive(Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A gauge starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set to an absolute value.
    pub fn set(&self, v: i64) {
        // ordering: Relaxed — advisory telemetry; only atomicity is needed, no cross-variable ordering.
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add one.
    pub fn inc(&self) {
        // ordering: Relaxed — advisory telemetry; only atomicity is needed, no cross-variable ordering.
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Subtract one.
    pub fn dec(&self) {
        // ordering: Relaxed — advisory telemetry; only atomicity is needed, no cross-variable ordering.
        self.0.fetch_sub(1, Ordering::Relaxed);
    }

    /// Add a signed delta.
    pub fn add(&self, n: i64) {
        // ordering: Relaxed — advisory telemetry; only atomicity is needed, no cross-variable ordering.
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        // ordering: Relaxed — snapshot read; may tear across related counters by design (see module docs).
        self.0.load(Ordering::Relaxed)
    }
}

/// A metric's label set: `(key, value)` pairs. Keys are static (they come
/// from instrumentation sites), values are runtime strings (database names,
/// machine ids).
pub type LabelPairs = Vec<(&'static str, String)>;

/// Registry key: metric family name plus its concrete label values.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    name: &'static str,
    labels: LabelPairs,
}

fn make_key(name: &'static str, labels: &[(&'static str, &str)]) -> Key {
    Key {
        name,
        labels: labels.iter().map(|(k, v)| (*k, v.to_string())).collect(),
    }
}

/// Render `name{k="v",…}` (or bare `name` with no labels), optionally with
/// an extra label appended (used for histogram `le` buckets).
fn render_key(name: &str, labels: &LabelPairs, extra: Option<(&str, &str)>) -> String {
    if labels.is_empty() && extra.is_none() {
        return name.to_string();
    }
    let mut parts: Vec<String> = labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{v}\""));
    }
    format!("{name}{{{}}}", parts.join(","))
}

/// Point-in-time view of every scalar in a registry, for before/after
/// diffing around a measurement window.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values by rendered key (`name{labels}`).
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by rendered key.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram `(count, sum_µs)` by rendered key.
    pub histograms: BTreeMap<String, (u64, u64)>,
}

impl MetricsSnapshot {
    /// Counters and histogram counts that changed since `earlier`, as
    /// `key -> delta` (gauges are levels, so the *later* absolute value is
    /// reported). Unchanged series are omitted.
    pub fn delta_since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let mut out = MetricsSnapshot::default();
        for (k, &v) in &self.counters {
            let d = v.saturating_sub(earlier.counters.get(k).copied().unwrap_or(0));
            if d != 0 {
                out.counters.insert(k.clone(), d);
            }
        }
        for (k, &(c, s)) in &self.histograms {
            let (ec, es) = earlier.histograms.get(k).copied().unwrap_or((0, 0));
            if c != ec {
                out.histograms
                    .insert(k.clone(), (c.saturating_sub(ec), s.saturating_sub(es)));
            }
        }
        for (k, &v) in &self.gauges {
            if earlier.gauges.get(k).copied().unwrap_or(0) != v {
                out.gauges.insert(k.clone(), v);
            }
        }
        out
    }

    /// Compact one-metric-per-line rendering (bench window reports).
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.counters {
            let _ = writeln!(out, "{k} +{v}");
        }
        for (k, (c, s)) in &self.histograms {
            let mean = if *c == 0 { 0.0 } else { *s as f64 / *c as f64 };
            let _ = writeln!(out, "{k} +{c} obs, mean {mean:.1}us");
        }
        for (k, v) in &self.gauges {
            let _ = writeln!(out, "{k} = {v}");
        }
        out
    }
}

/// The owner of every metric family and the event log.
///
/// Get-or-create accessors hand out `Arc` handles; instrumented code caches
/// them so steady state never touches the registry lock. One registry per
/// cluster controller (and one per transient subsystem that wants isolated
/// numbers, e.g. a recovery run in a test).
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<Key, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<Key, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<Key, Arc<Histogram>>>,
    help: Mutex<BTreeMap<&'static str, &'static str>>,
    events: EventLog,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

/// Default event-ring capacity for [`MetricsRegistry::new`].
pub const DEFAULT_EVENT_CAPACITY: usize = 1024;

impl MetricsRegistry {
    /// An empty registry with the default event-ring capacity.
    pub fn new() -> Self {
        Self::with_event_capacity(DEFAULT_EVENT_CAPACITY)
    }

    /// An empty registry whose event ring keeps `capacity` events.
    pub fn with_event_capacity(capacity: usize) -> Self {
        MetricsRegistry {
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
            help: Mutex::new(BTreeMap::new()),
            events: EventLog::new(capacity),
        }
    }

    fn guard<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
        m.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Register a metric family and its `# HELP` line (idempotent). A
    /// series may only be created under a described name (debug-asserted):
    /// [`described`](Self::described) is then the registry's whole name
    /// set, which a root test diffs against DESIGN.md §8.
    pub fn describe(&self, name: &'static str, help: &'static str) {
        Self::guard(&self.help).entry(name).or_insert(help);
    }

    /// Every described family name, sorted.
    pub fn described(&self) -> Vec<&'static str> {
        Self::guard(&self.help).keys().copied().collect()
    }

    fn debug_assert_described(&self, name: &str) {
        debug_assert!(
            Self::guard(&self.help).contains_key(name),
            "metric series created under undescribed name `{name}`: describe() it first \
             (and list it in DESIGN.md §8)"
        );
    }

    /// Get or create the counter `name{labels}`.
    pub fn counter(&self, name: &'static str, labels: &[(&'static str, &str)]) -> Arc<Counter> {
        self.debug_assert_described(name);
        Self::guard(&self.counters)
            .entry(make_key(name, labels))
            .or_default()
            .clone()
    }

    /// Get or create the gauge `name{labels}`.
    pub fn gauge(&self, name: &'static str, labels: &[(&'static str, &str)]) -> Arc<Gauge> {
        self.debug_assert_described(name);
        Self::guard(&self.gauges)
            .entry(make_key(name, labels))
            .or_default()
            .clone()
    }

    /// Get the gauge `name{labels}`, creating it only while its family has
    /// fewer than `cap` series (`None` past the cap).
    pub fn gauge_capped(
        &self,
        name: &'static str,
        labels: &[(&'static str, &str)],
        cap: usize,
    ) -> Option<Arc<Gauge>> {
        self.debug_assert_described(name);
        let mut gauges = Self::guard(&self.gauges);
        let key = make_key(name, labels);
        if !gauges.contains_key(&key) && gauges.keys().filter(|k| k.name == name).count() >= cap {
            return None;
        }
        Some(Arc::clone(gauges.entry(key).or_default()))
    }

    /// Get or create the histogram `name{labels}`.
    pub fn histogram(&self, name: &'static str, labels: &[(&'static str, &str)]) -> Arc<Histogram> {
        self.debug_assert_described(name);
        Self::guard(&self.histograms)
            .entry(make_key(name, labels))
            .or_insert_with(|| Arc::new(Histogram::new()))
            .clone()
    }

    /// Read a counter without creating it (0 when absent).
    pub fn counter_value(&self, name: &'static str, labels: &[(&'static str, &str)]) -> u64 {
        Self::guard(&self.counters)
            .get(&make_key(name, labels))
            .map(|c| c.get())
            .unwrap_or(0)
    }

    /// Sum every series of a counter family whose labels include all of
    /// `matching` (per-database totals, cluster-wide totals).
    pub fn counter_sum(&self, name: &'static str, matching: &[(&'static str, &str)]) -> u64 {
        Self::guard(&self.counters)
            .iter()
            .filter(|(k, _)| {
                k.name == name
                    && matching
                        .iter()
                        .all(|(mk, mv)| k.labels.iter().any(|(lk, lv)| lk == mk && lv == mv))
            })
            .map(|(_, c)| c.get())
            .sum()
    }

    /// The registry's structured event log.
    pub fn events(&self) -> &EventLog {
        &self.events
    }

    /// Zero every counter and histogram and drop retained events. Gauges are
    /// levels (queue depths, live threads) and keep their current value.
    pub fn reset(&self) {
        for c in Self::guard(&self.counters).values() {
            c.reset();
        }
        for h in Self::guard(&self.histograms).values() {
            h.reset();
        }
        self.events.clear();
    }

    /// Capture every scalar for later diffing (see [`MetricsSnapshot`]).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        for (k, c) in Self::guard(&self.counters).iter() {
            snap.counters
                .insert(render_key(k.name, &k.labels, None), c.get());
        }
        for (k, g) in Self::guard(&self.gauges).iter() {
            snap.gauges
                .insert(render_key(k.name, &k.labels, None), g.get());
        }
        for (k, h) in Self::guard(&self.histograms).iter() {
            snap.histograms
                .insert(render_key(k.name, &k.labels, None), (h.count(), h.sum()));
        }
        snap
    }

    /// Prometheus-style text exposition of every metric family:
    /// `# HELP` / `# TYPE` headers, one `name{labels} value` line per
    /// series, and full `_bucket`/`_sum`/`_count` expansion for histograms
    /// (plus a non-standard `# quantiles` comment with interpolated
    /// p50/p95/p99, since there is no scrape-side aggregation here).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let help = Self::guard(&self.help);

        let mut last_family = "";
        for (k, c) in Self::guard(&self.counters).iter() {
            if k.name != last_family {
                if let Some(h) = help.get(k.name) {
                    let _ = writeln!(out, "# HELP {} {}", k.name, h);
                }
                let _ = writeln!(out, "# TYPE {} counter", k.name);
                last_family = k.name;
            }
            let _ = writeln!(out, "{} {}", render_key(k.name, &k.labels, None), c.get());
        }

        let mut last_family = "";
        for (k, g) in Self::guard(&self.gauges).iter() {
            if k.name != last_family {
                if let Some(h) = help.get(k.name) {
                    let _ = writeln!(out, "# HELP {} {}", k.name, h);
                }
                let _ = writeln!(out, "# TYPE {} gauge", k.name);
                last_family = k.name;
            }
            let _ = writeln!(out, "{} {}", render_key(k.name, &k.labels, None), g.get());
        }

        let mut last_family = "";
        for (k, hist) in Self::guard(&self.histograms).iter() {
            if k.name != last_family {
                if let Some(h) = help.get(k.name) {
                    let _ = writeln!(out, "# HELP {} {}", k.name, h);
                }
                let _ = writeln!(out, "# TYPE {} histogram", k.name);
                last_family = k.name;
            }
            let counts = hist.bucket_counts();
            let mut cum = 0u64;
            for (i, bound) in histogram::BUCKET_BOUNDS_US.iter().enumerate() {
                cum += counts[i];
                let _ = writeln!(
                    out,
                    "{} {}",
                    render_key(
                        &format!("{}_bucket", k.name),
                        &k.labels,
                        Some(("le", &bound.to_string()))
                    ),
                    cum
                );
            }
            cum += counts[histogram::BUCKET_BOUNDS_US.len()];
            let _ = writeln!(
                out,
                "{} {}",
                render_key(
                    &format!("{}_bucket", k.name),
                    &k.labels,
                    Some(("le", "+Inf"))
                ),
                cum
            );
            let _ = writeln!(
                out,
                "{} {}",
                render_key(&format!("{}_sum", k.name), &k.labels, None),
                hist.sum()
            );
            let _ = writeln!(
                out,
                "{} {}",
                render_key(&format!("{}_count", k.name), &k.labels, None),
                cum
            );
            if cum > 0 {
                let _ = writeln!(
                    out,
                    "# quantiles {} p50={:.1} p95={:.1} p99={:.1}",
                    render_key(k.name, &k.labels, None),
                    hist.p50(),
                    hist.p95(),
                    hist.p99()
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A registry with `names` described (series need a described name).
    fn registry(names: &[&'static str]) -> MetricsRegistry {
        let reg = MetricsRegistry::new();
        for name in names {
            reg.describe(name, "a test family");
        }
        reg
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "undescribed name `stray_total`")]
    fn series_under_an_undescribed_name_is_refused() {
        registry(&["c_total"]).counter("stray_total", &[]);
    }

    #[test]
    fn get_or_create_returns_the_same_series() {
        let reg = registry(&["c_total"]);
        let a = reg.counter("c_total", &[("db", "x")]);
        let b = reg.counter("c_total", &[("db", "x")]);
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3, "same (name, labels) -> same atomic");
        let other = reg.counter("c_total", &[("db", "y")]);
        assert_eq!(other.get(), 0, "different labels -> different series");
        assert_eq!(reg.counter_value("c_total", &[("db", "x")]), 3);
        assert_eq!(reg.counter_value("c_total", &[("db", "z")]), 0);
    }

    #[test]
    fn counter_sum_filters_by_label() {
        let reg = registry(&["out_total"]);
        reg.counter("out_total", &[("db", "a"), ("outcome", "committed")])
            .add(5);
        reg.counter("out_total", &[("db", "a"), ("outcome", "rejected")])
            .add(1);
        reg.counter("out_total", &[("db", "b"), ("outcome", "committed")])
            .add(7);
        assert_eq!(reg.counter_sum("out_total", &[("db", "a")]), 6);
        assert_eq!(
            reg.counter_sum("out_total", &[("outcome", "committed")]),
            12
        );
        assert_eq!(reg.counter_sum("out_total", &[]), 13);
        assert_eq!(reg.counter_sum("missing_total", &[]), 0);
    }

    #[test]
    fn render_text_exposes_all_kinds() {
        let reg = registry(&["depth", "lat_us"]);
        reg.describe("c_total", "a counter");
        reg.counter("c_total", &[("db", "app")]).inc();
        reg.gauge("depth", &[]).set(3);
        reg.histogram("lat_us", &[]).observe(100);
        let text = reg.render_text();
        assert!(text.contains("# HELP c_total a counter"), "{text}");
        assert!(text.contains("# TYPE c_total counter"));
        assert!(text.contains("c_total{db=\"app\"} 1"));
        assert!(text.contains("# TYPE depth gauge"));
        assert!(text.contains("depth 3"));
        assert!(text.contains("# TYPE lat_us histogram"));
        assert!(text.contains("lat_us_bucket{le=\"128\"} 1"));
        assert!(text.contains("lat_us_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("lat_us_sum 100"));
        assert!(text.contains("lat_us_count 1"));
        assert!(text.contains("# quantiles lat_us"));
    }

    #[test]
    fn histogram_buckets_are_cumulative_in_exposition() {
        let reg = registry(&["l_us"]);
        let h = reg.histogram("l_us", &[]);
        h.observe(1);
        h.observe(100);
        let text = reg.render_text();
        // le=1 sees only the first observation; le=128 sees both.
        assert!(text.contains("l_us_bucket{le=\"1\"} 1"));
        assert!(text.contains("l_us_bucket{le=\"128\"} 2"));
    }

    #[test]
    fn snapshot_delta_reports_only_changes() {
        let reg = registry(&["a_total", "quiet_total", "h_us"]);
        let c = reg.counter("a_total", &[]);
        let quiet = reg.counter("quiet_total", &[]);
        quiet.add(5);
        let h = reg.histogram("h_us", &[]);
        let before = reg.snapshot();
        c.add(3);
        h.observe(10);
        h.observe(20);
        let after = reg.snapshot();
        let d = after.delta_since(&before);
        assert_eq!(d.counters.get("a_total"), Some(&3));
        assert!(!d.counters.contains_key("quiet_total"));
        assert_eq!(d.histograms.get("h_us"), Some(&(2, 30)));
        let compact = d.render_compact();
        assert!(compact.contains("a_total +3"));
        assert!(compact.contains("h_us +2 obs"));
    }

    #[test]
    fn reset_zeroes_counters_and_histograms_but_not_gauges() {
        let reg = registry(&["c_total", "h_us", "g"]);
        reg.counter("c_total", &[]).add(4);
        reg.histogram("h_us", &[]).observe(9);
        reg.gauge("g", &[]).set(7);
        reg.events().emit("e", vec![]);
        reg.reset();
        assert_eq!(reg.counter_value("c_total", &[]), 0);
        assert_eq!(reg.histogram("h_us", &[]).count(), 0);
        assert_eq!(reg.gauge("g", &[]).get(), 7, "gauges are levels");
        assert_eq!(reg.events().len(), 0);
    }
}
