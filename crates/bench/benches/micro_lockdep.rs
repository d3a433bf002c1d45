//! Lockdep overhead microbench: raw `parking_lot::Mutex` vs the ordered
//! wrapper with checking disabled vs enabled.
//!
//! The disabled path is the one production (release) builds take: a single
//! relaxed atomic load on acquire and one on release. No `e2e` workload
//! can switch lockdep on, so this bench isolates the per-lock cost itself:
//! a regression in the gate is visible without macro noise.
//!
//! Run with `cargo bench -p tenantdb-bench --bench micro_lockdep`.

use tenantdb_bench::{bump, report_micro, time_op_default};
use tenantdb_lockdep::{LockClass, OrderedMutex};

static BENCH_OUTER: LockClass = LockClass::new("bench.micro.outer", 10);
static BENCH_INNER: LockClass = LockClass::new("bench.micro.inner", 20);

fn main() {
    println!("# micro_lockdep — uncontended lock/unlock cost of the ordered wrappers");
    println!(
        "# lockdep initial state: {}",
        if tenantdb_lockdep::enabled() {
            "enabled"
        } else {
            "disabled"
        }
    );

    let raw = parking_lot::Mutex::new(0u64);
    let raw_ns = time_op_default(|| {
        *raw.lock() += bump() & 1;
    });
    report_micro("raw_parking_lot/lock_unlock", raw_ns);

    let ordered = OrderedMutex::new(&BENCH_OUTER, 0u64);

    tenantdb_lockdep::disable();
    let disabled_ns = time_op_default(|| {
        *ordered.lock() += bump() & 1;
    });
    report_micro("ordered_disabled/lock_unlock", disabled_ns);

    tenantdb_lockdep::enable();
    let enabled_ns = time_op_default(|| {
        *ordered.lock() += bump() & 1;
    });
    report_micro("ordered_enabled/lock_unlock", enabled_ns);

    // Enabled, two-level nesting: the realistic checked shape (stack push,
    // rank compare against top-of-stack, graph edge dedup hit).
    let inner = OrderedMutex::new(&BENCH_INNER, 0u64);
    let nested_ns = time_op_default(|| {
        let _g = ordered.lock();
        *inner.lock() += bump() & 1;
    });
    report_micro("ordered_enabled/nested_pair", nested_ns);
    tenantdb_lockdep::disable();

    let overhead = disabled_ns - raw_ns;
    println!(
        "# disabled-mode overhead vs raw: {overhead:.2} ns/op ({:+.1}%)",
        overhead / raw_ns * 100.0
    );
}
