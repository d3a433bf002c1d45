//! What the log retains per committed write, counted by a counting global
//! allocator: 10 000 pairs of (`Insert` of an `(INT, TEXT)` row, `Commit`)
//! may grow the live heap by at most 80 bytes a pair, the log's buffer
//! slack included. A log that kept each record as an object would pay a
//! record per marker plus a heap copy of every row.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use tenantdb_storage::{RedoOp, TxnId, Value, Wal, WalEntry};

/// The system allocator, counting this thread's live heap bytes.
struct Counting;

thread_local! {
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn count(delta: i64) {
    // Once the thread's locals are torn down there is nothing to count.
    let _ = LIVE.try_with(|n| n.set(n.get() + delta));
}

// SAFETY: every call is passed through to `System` unchanged; counting
// touches a const-initialised thread-local, which does not allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        // SAFETY: the caller upholds `alloc`'s contract, forwarded as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as i64));
        // SAFETY: `ptr` came from `System` through `alloc` / `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as i64 - layout.size() as i64);
        // SAFETY: as for `dealloc`; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn live() -> i64 {
    LIVE.with(Cell::get)
}

const PAIRS: u64 = 10_000;
const BUDGET_PER_PAIR: i64 = 80;

#[test]
fn a_committed_insert_costs_the_log_few_bytes() {
    let wal = Wal::default();
    let table: Arc<str> = "kv".into();
    let before = live();
    for i in 0..PAIRS {
        let txn = TxnId(i + 1);
        let row = vec![Value::Int(i as i64), Value::Text(format!("v{i}"))];
        wal.append(
            txn,
            WalEntry::Redo(RedoOp::Insert {
                table: Arc::clone(&table),
                row_id: i,
                row,
            }),
        );
        wal.append(txn, WalEntry::Commit);
    }
    let per_pair = (live() - before) / PAIRS as i64;
    println!("the log retains {per_pair} B per (insert, commit) pair");
    assert_eq!(wal.len() as u64, 2 * PAIRS);
    assert!(
        per_pair <= BUDGET_PER_PAIR,
        "the log retains {per_pair} B per (insert, commit) pair, over {BUDGET_PER_PAIR}"
    );
}
