//! What a sorted or grouped SELECT allocates, counted by a counting global
//! allocator: a BestSellers-shaped grouped query allocates nothing per row
//! and nothing per group beyond the doublings of its group table (an INT
//! key is copied into the group table without one), and finishes with
//! O(LIMIT) allocations; a sort under LIMIT k allocates output rows for
//! only the k rows it returns, however many it ranks. Counts repeat
//! exactly: they are the calling thread's, and the engine is warm.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tenantdb_sql::{execute, parse, plan, run};
use tenantdb_storage::{Engine, EngineConfig, Value};

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

const DB: &str = "db";

/// `sales (id pk, item, qty, x)`: `rows` rows, item `id % groups`, and `x`
/// rising with `id`, so a walk in id order meets the rows worst first
/// under `ORDER BY x DESC`.
fn engine(rows: i64, groups: i64) -> Engine {
    let e = Engine::new(EngineConfig::for_tests());
    e.create_database(DB).unwrap();
    let txn = e.begin().unwrap();
    let sql = "CREATE TABLE sales (id INT NOT NULL, item INT, qty INT, x INT, PRIMARY KEY (id))";
    execute(&e, txn, DB, sql, &[]).unwrap();
    for id in 0..rows {
        let row = [
            Value::Int(id),
            Value::Int(id % groups),
            Value::Int(id % 7),
            Value::Int(id),
        ];
        execute(&e, txn, DB, "INSERT INTO sales VALUES (?, ?, ?, ?)", &row).unwrap();
    }
    e.commit(txn).unwrap();
    e
}

/// Allocations made by the second run of `sql` on a fresh transaction (the
/// first warms the engine), and that run's rows.
fn counted(e: &Engine, sql: &str, params: &[Value]) -> (u64, Vec<Vec<Value>>) {
    let bound = plan(e, DB, &parse(sql).unwrap()).unwrap();
    let mut last = (0, Vec::new());
    for _ in 0..2 {
        let txn = e.begin().unwrap();
        let before = allocations();
        let rows = run(e, txn, &bound, params).unwrap().rows;
        last = (allocations() - before, rows);
        e.commit(txn).unwrap();
    }
    last
}

/// BestSellers: order lines in items, the `limit` best-selling items from
/// a horizon on.
fn best_sellers(limit: usize) -> String {
    format!(
        "SELECT item, SUM(qty) AS sold FROM sales WHERE id >= ? \
         GROUP BY item ORDER BY sold DESC LIMIT {limit}"
    )
}

#[test]
fn a_grouped_top_five_allocates_less_than_once_per_group() {
    let (rows, groups) = (6_000, 300);
    let e = engine(rows, groups);
    let (n, answer) = counted(&e, &best_sellers(5), &[Value::Int(0)]);
    assert_eq!(answer.len(), 5);
    println!("{n} allocations for {rows} rows in {groups} groups");
    assert!(
        n <= groups as u64 + 64,
        "{n} allocations for {rows} rows in {groups} groups"
    );
}

/// Four times the rows in four times the groups cost only the group
/// table's two more doublings (a handful of allocations, not thousands),
/// and finishing allocates O(LIMIT): ten times the LIMIT costs at most two
/// allocations per extra group returned (its output row, its kept sort
/// keys) plus the ranking heap's growth.
#[test]
fn a_grouped_top_allocates_nothing_per_row_and_o_limit_when_it_finishes() {
    let small = engine(6_000, 300);
    let large = engine(24_000, 1_200);
    let horizon = [Value::Int(0)];
    let (base, _) = counted(&small, &best_sellers(5), &horizon);
    let (grown, answer) = counted(&large, &best_sellers(5), &horizon);
    assert_eq!(answer.len(), 5);
    let (deep, answer) = counted(&large, &best_sellers(50), &horizon);
    assert_eq!(answer.len(), 50);
    println!("{base} → {grown} allocations for 4× the rows and groups; {deep} for LIMIT 50");
    assert!(
        grown <= base + 12,
        "{base} → {grown} allocations for 4× the rows and groups"
    );
    assert!(
        deep <= grown + 2 * 45 + 8,
        "{grown} → {deep} allocations for LIMIT 5 → 50"
    );
}

/// `ORDER BY x DESC LIMIT k` over rows that arrive worst first: each one
/// displaces the worst kept row, into that row's buffers.
#[test]
fn a_sort_under_limit_allocates_only_the_rows_it_returns() {
    let (rows, k) = (3_000, 10);
    let e = engine(rows, 50);
    let sql = format!("SELECT id, x FROM sales ORDER BY x DESC LIMIT {k}");
    let (n, answer) = counted(&e, &sql, &[]);
    println!("{n} allocations to return {k} of {rows} rows");
    let ids: Vec<Value> = (rows - k..rows).rev().map(Value::Int).collect();
    assert_eq!(answer.iter().map(|r| r[0].clone()).collect::<Vec<_>>(), ids);
    assert!(
        n <= 2 * k as u64 + 32,
        "{n} allocations to return {k} of {rows} rows"
    );
}
