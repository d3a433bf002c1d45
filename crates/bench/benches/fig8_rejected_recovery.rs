//! Figure 8 — rejected transactions during recovery.
//!
//! Induce one machine failure while a TPC-W shopping workload runs, recover
//! the lost replicas with 1/2/4 concurrent copy jobs, and count the
//! proactively rejected transactions per recovering database.
//!
//! Expected shape (paper): database-level copying rejects far more than
//! table-level copying (the whole database is write-locked instead of one
//! table at a time).

use tenantdb_bench::{fast_mode, RecoveryExperiment};
use tenantdb_cluster::CopyGranularity;
use tenantdb_tpcw::SHOPPING;

fn main() {
    let threads: &[usize] = if fast_mode() { &[1, 2] } else { &[1, 2, 4] };
    println!("# Figure 8: rejected transactions per database during recovery");
    println!("# TPC-W shopping mix, one induced machine failure");
    print!("{:<26}", "granularity \\ threads");
    for t in threads {
        print!("{t:>12}");
    }
    println!();
    for (label, g) in [
        ("table-level copy", CopyGranularity::TableLevel),
        ("database-level copy", CopyGranularity::DatabaseLevel),
    ] {
        print!("{label:<26}");
        for &t in threads {
            let out = RecoveryExperiment {
                granularity: g,
                threads: t,
                ..Default::default()
            }
            .run(&SHOPPING, 2);
            print!("{:>12.1}", out.rejected_per_db);
        }
        println!();
    }
    println!();
    println!("# paper: db-level >> table-level; rejections grow with recovery threads");
}
