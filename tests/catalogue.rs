//! The hand-kept catalogues in DESIGN.md, held to what the program states
//! about itself: §8's metric families against what the three registries
//! describe (a series cannot be created under an undescribed name — see
//! `MetricsRegistry::describe`), and §9's crash-point table against
//! `CrashPoint::ALL`.

use std::collections::BTreeSet;
use std::sync::Arc;

use tenantdb::cluster::fault::CrashPoint;
use tenantdb::cluster::ClusterMetrics;
use tenantdb::georep::GeoMetrics;
use tenantdb::net::{Server, ServerConfig};
use tenantdb::platform::{PlatformConfig, SystemController};
use tenantdb_obs::MetricsRegistry;

/// The body of DESIGN.md's `## <n>.` section.
fn design_section(n: u32) -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/DESIGN.md");
    let text = std::fs::read_to_string(path).expect("read DESIGN.md");
    let section: Vec<&str> = text
        .lines()
        .skip_while(|l| !l.starts_with(&format!("## {n}. ")))
        .skip(1)
        .take_while(|l| !l.starts_with("## "))
        .collect();
    assert!(!section.is_empty(), "DESIGN.md has no section {n}");
    section.join("\n")
}

/// Metric names in a line of prose: maximal `tenantdb_[a-z0-9_]+` runs
/// with at least two segments after the prefix (`tenantdb_obs` is a crate,
/// `tenantdb_net_` a prefix — neither is a family).
fn metric_names(line: &str) -> impl Iterator<Item = &str> {
    line.match_indices("tenantdb_").filter_map(move |(at, _)| {
        let rest = &line[at..];
        let end = rest
            .find(|c: char| !(c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'))
            .unwrap_or(rest.len());
        let name = rest[..end].trim_end_matches('_');
        name["tenantdb_".len()..].contains('_').then_some(name)
    })
}

#[test]
fn design_section_8_lists_exactly_the_described_metric_families() {
    let system = SystemController::new(PlatformConfig::for_tests(), &[("local", (0.0, 0.0))]);
    let server = Server::start("127.0.0.1:0", system, ServerConfig::default()).expect("bind");
    let geo = GeoMetrics::new(Arc::new(MetricsRegistry::new()));
    let described: BTreeSet<&str> = [
        ClusterMetrics::new().registry().described(),
        server.metrics().described(),
        geo.registry().described(),
    ]
    .concat()
    .into_iter()
    .collect();
    server.shutdown();

    let section = design_section(8);
    let documented: BTreeSet<&str> = section.lines().flat_map(metric_names).collect();
    let planned: BTreeSet<&str> = section
        .lines()
        .filter(|l| l.contains("(planned)"))
        .flat_map(metric_names)
        .collect();

    let undocumented: Vec<_> = described.difference(&documented).collect();
    assert!(
        undocumented.is_empty(),
        "described in code but absent from DESIGN.md §8: {undocumented:?}"
    );
    let stale: Vec<_> = documented
        .difference(&described)
        .filter(|n| !planned.contains(*n))
        .collect();
    assert!(
        stale.is_empty(),
        "in DESIGN.md §8 but described by no registry (rename the doc, or mark its line \
         `(planned)`): {stale:?}"
    );
}

#[test]
fn design_section_9_table_lists_exactly_the_crash_points() {
    let section = design_section(9);
    let rows: Vec<&str> = section
        .lines()
        .filter_map(|l| l.strip_prefix("| `"))
        .filter_map(|l| l.split('`').next())
        .collect();
    let all: Vec<&str> = CrashPoint::ALL.iter().map(|p| p.name()).collect();
    assert_eq!(
        rows, all,
        "DESIGN.md §9's crash-point table (left) must list CrashPoint::ALL (right), in order"
    );
}
