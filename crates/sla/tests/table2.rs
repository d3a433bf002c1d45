//! Table 2 — SLA-based database placement under skewed demands.
//!
//! 25 databases, sizes drawn from zipf(200..1000 MB) and throughputs from
//! zipf(0.1..10 TPS) at skew factors 0.4–2.0, placed on machines of
//! capacity (12, 2000, 12, 2000) by online First-Fit (Algorithm 2) and by
//! the offline branch-and-bound optimum.
//!
//! The paper's shape: First-Fit equals the optimum or uses one machine
//! more, and its machine count falls as skew rises (smaller databases pack
//! tighter). The rows are also pinned to the values this workspace
//! produces, so a change to the placer or to the optimum's upper bound
//! that moves any cell fails here.
//!
//! Run with `cargo test -p tenantdb-sla --test table2 -- --nocapture` to
//! see the table.

use rand::{SeedableRng, StdRng};
use tenantdb_sla::{
    optimal_machine_count_budgeted, DatabaseSpec, FirstFitPlacer, Placer, ResourceVector, Zipf,
};

const DATABASES: usize = 25;
const SEED: u64 = 4242;
const NODE_BUDGET: u64 = 20_000_000;
const SKEWS: [f64; 5] = [0.4, 0.8, 1.2, 1.6, 2.0];

/// One row: skew, average size, average TPS, First-Fit machines, optimal
/// machines, and whether the search proved the optimum.
struct Row {
    skew: f64,
    avg_size: f64,
    avg_tps: f64,
    first_fit: usize,
    optimal: usize,
    exact: bool,
}

impl Row {
    /// The cells as the table prints them.
    fn cells(&self) -> String {
        format!(
            "{:.1} | {:.0} | {:.2} | {} / {}",
            self.skew, self.avg_size, self.avg_tps, self.first_fit, self.optimal
        )
    }
}

fn row(skew: f64, capacity: ResourceVector) -> Row {
    let size_dist = Zipf::with_skew(200.0, 1000.0, skew);
    let tps_dist = Zipf::with_skew(0.1, 10.0, skew);
    let mut rng = StdRng::seed_from_u64(SEED);
    let (mut size_sum, mut tps_sum) = (0.0, 0.0);
    let specs: Vec<DatabaseSpec> = (0..DATABASES)
        .map(|i| {
            let size = size_dist.sample(&mut rng);
            let tps = tps_dist.sample(&mut rng);
            size_sum += size;
            tps_sum += tps;
            DatabaseSpec::new(
                format!("db{i}"),
                ResourceVector::new(tps, size / 2.0, tps / 2.0, size),
                1,
            )
        })
        .collect();
    let mut ff = FirstFitPlacer::new(capacity);
    for s in &specs {
        ff.place(s).expect("every database fits an empty machine");
    }
    let (optimal, exact) =
        optimal_machine_count_budgeted(&specs, capacity, NODE_BUDGET).expect("feasible");
    Row {
        skew,
        avg_size: size_sum / DATABASES as f64,
        avg_tps: tps_sum / DATABASES as f64,
        first_fit: ff.machines_used(),
        optimal,
        exact,
    }
}

#[test]
fn first_fit_is_within_one_machine_of_optimal_and_falls_with_skew() {
    let capacity = ResourceVector::new(12.0, 2000.0, 12.0, 2000.0);
    let rows: Vec<Row> = SKEWS.iter().map(|&s| row(s, capacity)).collect();
    println!("skew | avg size (MB) | avg tps | first-fit / optimal");
    for r in &rows {
        println!("{}", r.cells());
    }

    for r in &rows {
        let cells = r.cells();
        assert!(
            r.exact,
            "row {cells}: the search ran out of its node budget"
        );
        assert!(
            r.optimal <= r.first_fit && r.first_fit <= r.optimal + 1,
            "row {cells}: First-Fit is not within one machine of the optimum"
        );
    }
    for w in rows.windows(2) {
        assert!(
            w[1].first_fit <= w[0].first_fit,
            "First-Fit's machine count rose with skew: {} then {}",
            w[0].cells(),
            w[1].cells()
        );
    }

    let printed: Vec<String> = rows.iter().map(Row::cells).collect();
    assert_eq!(
        printed,
        [
            "0.4 | 488 | 3.25 | 8 / 7",
            "0.8 | 376 | 1.91 | 6 / 5",
            "1.2 | 288 | 0.82 | 4 / 4",
            "1.6 | 239 | 0.30 | 4 / 3",
            "2.0 | 215 | 0.16 | 3 / 3",
        ],
        "Table 2 moved"
    );
}
