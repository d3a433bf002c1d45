//! What a transaction through `Connection` costs the allocator, counted by
//! a counting global allocator: a single-statement read-only transaction
//! allocates no more than the engine does for the same plan, plus the
//! batch's result vector and its one session; an autocommit write on two replicas (both
//! engines, the 2PC votes and acks, the decision's consensus round) stays
//! under a pinned count. Counts are the calling thread's: an idle lane runs on
//! the caller, so under the default (conservative) policy every replica's
//! work is on this thread, and the cluster is warm.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use tenantdb_cluster::{BatchMode, BatchStmt, ClusterConfig, ClusterController, Transport};
use tenantdb_sql::{parse, plan, run};
use tenantdb_storage::Value;

/// The system allocator, counting this thread's allocations.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // Once the thread's locals are torn down there is nothing to count.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is passed through to `System` unchanged; counting
// touches a const-initialised thread-local, which does not allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `alloc`'s contract, forwarded as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc` / `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: as for `dealloc`; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

const POINT_READ: &str = "SELECT v FROM kv WHERE k = ?";

/// Two machines, `app` on both, `kv` holding rows 0..10.
fn cluster() -> Arc<ClusterController> {
    let c = ClusterController::with_machines(ClusterConfig::for_tests(), 2);
    c.create_database("app", 2).unwrap();
    c.ddl(
        "app",
        "CREATE TABLE kv (k INT NOT NULL, v TEXT, PRIMARY KEY (k))",
    )
    .unwrap();
    let conn = c.connect("app").unwrap();
    for k in 0..10 {
        conn.execute(
            "INSERT INTO kv VALUES (?, ?)",
            &[Value::Int(k), Value::from(format!("v{k}"))],
        )
        .unwrap();
    }
    c
}

/// Allocations made by the last of three runs of `f` (the first two warm
/// the engine, the plan cache and the connection), and what it returned.
fn counted<R>(mut f: impl FnMut() -> R) -> (u64, R) {
    let mut last = (0, f());
    for _ in 0..2 {
        let before = allocations();
        let r = f();
        last = (allocations() - before, r);
    }
    last
}

#[test]
fn a_read_only_transaction_allocates_no_more_than_the_engine() {
    let c = cluster();
    let conn = c.connect("app").unwrap();
    let stmts = [BatchStmt::new(POINT_READ, vec![Value::Int(3)])];
    let (through_connection, out) =
        counted(|| conn.execute_batch(&stmts, BatchMode::WholeTxn).unwrap());
    assert_eq!(out[0].rows, vec![vec![Value::from("v3")]]);

    // The same plan on a bare engine: begin, run, commit.
    let m = c.machine(c.placement("app").unwrap().pinned).unwrap();
    let e = &m.engine;
    let bound = plan(e, "app", &parse(POINT_READ).unwrap()).unwrap();
    let params = [Value::Int(3)];
    let (bare_engine, r) = counted(|| {
        let txn = e.begin().unwrap();
        let r = run(e, txn, &bound, &params).unwrap();
        e.commit(txn).unwrap();
        r
    });
    assert_eq!(r.rows, out[0].rows);
    println!("{through_connection} allocations through a connection, {bare_engine} on the engine");
    // Two more than the engine: the batch's vector of results, and the
    // transaction's session on its read replica.
    assert!(
        through_connection <= bare_engine + 2,
        "{through_connection} allocations through a connection, {bare_engine} on the engine"
    );
    assert!(through_connection <= 6, "{through_connection} allocations");
}

#[test]
fn an_autocommit_write_on_two_replicas_stays_under_its_pinned_count() {
    let c = cluster();
    let conn = c.connect("app").unwrap();
    let params = [Value::from("w"), Value::Int(4)];
    let (n, r) = counted(|| {
        conn.execute("UPDATE kv SET v = ? WHERE k = ?", &params)
            .unwrap()
    });
    assert_eq!(r.rows_affected, 1);
    println!("{n} allocations for an autocommit write on two replicas");
    assert!(n <= 57, "{n} allocations");
}
