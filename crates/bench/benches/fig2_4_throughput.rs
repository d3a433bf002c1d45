//! Figures 2–4 — throughput with synchronous replication, one figure per
//! TPC-W mix (2 shopping, 3 browsing, 4 ordering).
//!
//! Series: no-replication vs read options 1/2/3 (conservative writes).
//! Expected shape (paper): option 1 best (within 5–25% of no-replication),
//! option 2 next, option 3 worst — driven by buffer-pool locality.
//!
//! `cargo bench -p tenantdb-bench --bench fig2_4_throughput -- browsing`
//! runs one mix; no argument runs all three.

fn main() {
    for (nth, mix) in tenantdb_bench::mixes_from_args() {
        tenantdb_bench::run_throughput_figure(&format!("Figure-{}", 2 + nth), mix);
    }
}
