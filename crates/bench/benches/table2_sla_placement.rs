//! Table 2 — SLA-based database placement under skewed demands.
//!
//! Database sizes are drawn from zipf(200..1000 MB) and throughputs from
//! zipf(0.1..10 TPS) at skew factors 0.4–2.0; the table reports the average
//! size/TPS and the machine counts used by online First-Fit (Algorithm 2)
//! versus the offline optimum (branch-and-bound).
//!
//! Expected shape (paper): First-Fit equals or is within one machine of
//! optimal; both fall as skew rises (smaller databases pack tighter).

use rand::rngs::StdRng;
use rand::SeedableRng;

use tenantdb_sla::{
    optimal_machine_count_budgeted, DatabaseSpec, FirstFitPlacer, Placer, ResourceVector, Zipf,
};

fn main() {
    let n_dbs = 25;
    let capacity = ResourceVector::new(12.0, 2000.0, 12.0, 2000.0);
    println!("# Table 2: SLA placement — First-Fit vs optimal");
    println!("# {n_dbs} databases; size ~ zipf(200..1000 MB); tps ~ zipf(0.1..10)");
    println!(
        "{:>6}{:>16}{:>18}{:>14}{:>10}",
        "skew", "avg size (MB)", "avg tps (TPS)", "first-fit", "optimal"
    );
    for &skew in &[0.4, 0.8, 1.2, 1.6, 2.0] {
        let size_dist = Zipf::with_skew(200.0, 1000.0, skew);
        let tps_dist = Zipf::with_skew(0.1, 10.0, skew);
        let mut rng = StdRng::seed_from_u64(4242);
        let mut specs = Vec::with_capacity(n_dbs);
        let (mut size_sum, mut tps_sum) = (0.0, 0.0);
        for i in 0..n_dbs {
            let size = size_dist.sample(&mut rng);
            let tps = tps_dist.sample(&mut rng);
            size_sum += size;
            tps_sum += tps;
            specs.push(DatabaseSpec::new(
                format!("db{i}"),
                ResourceVector::new(tps, size / 2.0, tps / 2.0, size),
                1,
            ));
        }
        let mut ff = FirstFitPlacer::new(capacity);
        for s in &specs {
            ff.place(s).expect("placement");
        }
        let (opt, exact) =
            optimal_machine_count_budgeted(&specs, capacity, 20_000_000).expect("feasible");
        println!(
            "{:>6.1}{:>16.0}{:>18.2}{:>14}{:>9}{}",
            skew,
            size_sum / n_dbs as f64,
            tps_sum / n_dbs as f64,
            ff.machines_used(),
            opt,
            if exact { " " } else { "*" },
        );
    }
    println!();
    println!("# paper (Table 2): skew 0.4..2.0 -> sizes 531..310, tps 3.75..0.29,");
    println!("#                  machines 9/9, 6/6, 5/4, 4/4, 4/4 (first-fit/optimal)");
    println!("# (*) = branch-and-bound budget exhausted; best packing found shown");
}
