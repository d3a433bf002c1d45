//! Figure 9 — throughput during recovery.
//!
//! Same runs as Figure 8, but reporting cluster-wide committed TPS measured
//! over the recovery window; then, from the same runs, Figure 8's rejected
//! transactions per database, how long each recovery took, and how long a
//! recovering database ran on one replica.
//!
//! Expected shape (paper, "surprisingly"): table-level and database-level
//! copying deliver about the same throughput — table-level admits more
//! writes but wastes work on transactions later aborted by rejection of a
//! just-started table copy.

use tenantdb_bench::{fast_mode, RecoveryExperiment, RecoveryOutcome};
use tenantdb_cluster::CopyGranularity;
use tenantdb_tpcw::SHOPPING;

fn main() {
    let threads: &[usize] = if fast_mode() { &[1, 2] } else { &[1, 2, 4] };
    let series = [
        ("table-level copy", CopyGranularity::TableLevel),
        ("database-level copy", CopyGranularity::DatabaseLevel),
    ];
    let outcomes: Vec<Vec<RecoveryOutcome>> = series
        .iter()
        .map(|&(_, g)| {
            threads
                .iter()
                .map(|&t| {
                    RecoveryExperiment {
                        granularity: g,
                        threads: t,
                        ..Default::default()
                    }
                    .run(&SHOPPING, 2)
                })
                .collect()
        })
        .collect();
    let table = |title: &str, cell: &dyn Fn(&RecoveryOutcome) -> f64| {
        println!("{title}");
        println!("# TPC-W shopping mix, one induced machine failure");
        print!("{:<26}", "granularity \\ threads");
        for t in threads {
            print!("{t:>12}");
        }
        println!();
        for ((label, _), row) in series.iter().zip(&outcomes) {
            print!("{label:<26}");
            for out in row {
                print!("{:>12.1}", cell(out));
            }
            println!();
        }
        println!();
    };
    table(
        "# Figure 9: committed TPS during the recovery window",
        &|o| o.tps_during_recovery,
    );
    println!("# paper: the two granularities are roughly equal in throughput");
    println!();
    table(
        "# Figure 8 from the same runs: rejected transactions per database",
        &|o| o.rejected_per_db,
    );
    table("# Recovery wall time (s) of the same runs", &|o| {
        o.recovery_wall.as_secs_f64()
    });
    table(
        "# Mean time (s) a recovering database ran on one replica",
        &|o| o.single_replica.as_secs_f64(),
    );
}
