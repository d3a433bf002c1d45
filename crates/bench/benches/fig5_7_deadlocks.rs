//! Figures 5–7 — deadlock rate vs database size, one figure per TPC-W mix
//! (5 shopping, 6 browsing, 7 ordering).
//!
//! Expected shape (paper): no significant difference between the three read
//! options; the rate falls as databases grow (less row contention).
//!
//! `cargo bench -p tenantdb-bench --bench fig5_7_deadlocks -- ordering`
//! runs one mix; no argument runs all three.

fn main() {
    for (nth, mix) in tenantdb_bench::mixes_from_args() {
        tenantdb_bench::run_deadlock_figure(&format!("Figure-{}", 5 + nth), mix);
    }
}
