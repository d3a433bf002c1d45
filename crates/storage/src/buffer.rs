//! Buffer-pool cache model.
//!
//! The paper's Figures 2–4 hinge on *cache locality*: routing all reads for a
//! database to one replica (Option 1) keeps that replica's buffer pool warm,
//! while spreading reads across replicas (Option 3) doubles the aggregate
//! working set and thrashes both pools.
//!
//! We reproduce that mechanism with an explicit model: every row access maps
//! to a logical page; each engine (≈ machine) owns one LRU [`BufferPool`];
//! a page hit charges a small CPU cost and a miss charges a simulated disk
//! cost. Costs are paid by *spinning* so that they show up in wall-clock
//! throughput measurements exactly like real I/O stalls would, without
//! needing a real disk.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::idmap::IdMap;
use crate::sync::{Mutex, BUFFER_STATE};

/// Identifies a logical page: a table (by global id) and a page number.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageKey {
    pub table: u64,
    pub page_no: u64,
}

/// Rows per logical page. 64 keeps page counts meaningful at our scaled-down
/// database sizes (a 10k-row table spans ~156 pages).
pub const ROWS_PER_PAGE: u64 = 64;

/// Cost model: how long a page hit/miss stalls the calling thread.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    pub hit: Duration,
    pub miss: Duration,
}

impl CostModel {
    /// Default calibration: a miss costs ~250x a hit — compressed from the
    /// real RAM-vs-disk gap so that a full TPC-W experiment finishes in
    /// seconds while I/O still dominates measured throughput, as it did on
    /// the paper's disk-bound testbed.
    pub const fn default_model() -> Self {
        CostModel {
            hit: Duration::from_nanos(100),
            miss: Duration::from_micros(25),
        }
    }

    /// A free cost model for unit tests that don't measure time.
    pub const fn free() -> Self {
        CostModel {
            hit: Duration::ZERO,
            miss: Duration::ZERO,
        }
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::default_model()
    }
}

/// Cache statistics counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BufferStats {
    pub hits: u64,
    pub misses: u64,
}

impl BufferStats {
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    pub fn hit_rate(&self) -> f64 {
        if self.accesses() == 0 {
            return 0.0;
        }
        self.hits as f64 / self.accesses() as f64
    }
}

/// One resident page, linked into the recency list by slot index.
#[derive(Clone, Copy, Default)]
struct Slot {
    page: PageKey,
    prev: u32,
    next: u32,
}

/// The resident pages in recency order: a circular doubly linked list
/// through `slots`, whose slot 0 is a sentinel (its `next` is the most
/// recently used page, its `prev` the least), and the index from page to
/// slot. A miss in a full pool reuses the least recently used page's slot.
struct LruState {
    index: IdMap<PageKey, u32>,
    slots: Vec<Slot>,
}

impl LruState {
    fn new() -> Self {
        LruState {
            index: IdMap::default(),
            slots: vec![Slot::default()],
        }
    }

    fn unlink(&mut self, i: u32) {
        let Slot { prev, next, .. } = self.slots[i as usize];
        self.slots[prev as usize].next = next;
        self.slots[next as usize].prev = prev;
    }

    fn push_newest(&mut self, i: u32) {
        let next = self.slots[0].next;
        (self.slots[i as usize].prev, self.slots[i as usize].next) = (0, next);
        self.slots[next as usize].prev = i;
        self.slots[0].next = i;
    }

    /// Make `page` the most recently used; true if it was resident.
    fn touch(&mut self, page: PageKey, capacity: usize) -> bool {
        if let Some(&i) = self.index.get(&page) {
            self.unlink(i);
            self.push_newest(i);
            return true;
        }
        let i = if self.slots.len() <= capacity {
            self.slots.push(Slot::default());
            u32::try_from(self.slots.len() - 1).expect("a pool holds under 2^32 pages")
        } else {
            let i = self.slots[0].prev;
            self.unlink(i);
            self.index.remove(&self.slots[i as usize].page);
            i
        };
        self.slots[i as usize].page = page;
        self.index.insert(page, i);
        self.push_newest(i);
        false
    }
}

/// An LRU buffer pool with a fixed capacity in pages.
///
/// The pool tracks only *which* pages are resident — page contents live in
/// the tables themselves (this is a cost model, not a paging implementation).
pub struct BufferPool {
    capacity: usize,
    hit_ns: AtomicU64,
    miss_ns: AtomicU64,
    state: Mutex<LruState>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl BufferPool {
    pub fn new(capacity_pages: usize, cost: CostModel) -> Self {
        BufferPool {
            capacity: capacity_pages.max(1),
            hit_ns: AtomicU64::new(cost.hit.as_nanos() as u64),
            miss_ns: AtomicU64::new(cost.miss.as_nanos() as u64),
            state: Mutex::new(&BUFFER_STATE, LruState::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Swap the cost model at runtime. Experiments load data with free page
    /// costs and enable the I/O model only for the measured window.
    pub fn set_cost(&self, cost: CostModel) {
        // ordering: Relaxed — cost knobs are set before the workload starts; a
        // racing access just charges a stale cost once, which is harmless.
        self.hit_ns
            .store(cost.hit.as_nanos() as u64, Ordering::Relaxed);
        // ordering: Relaxed — see above.
        self.miss_ns
            .store(cost.miss.as_nanos() as u64, Ordering::Relaxed);
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Touch a page: record hit/miss, update LRU order, pay the cost.
    /// Returns true on hit.
    pub fn access(&self, page: PageKey) -> bool {
        let hit = self.state.lock().touch(page, self.capacity);
        if hit {
            // ordering: Relaxed — advisory telemetry; only atomicity is needed, no cross-variable ordering.
            self.hits.fetch_add(1, Ordering::Relaxed);
            // ordering: Relaxed — reads the cost knob set above; staleness is harmless.
            stall(Duration::from_nanos(self.hit_ns.load(Ordering::Relaxed)));
        } else {
            // ordering: Relaxed — advisory telemetry; only atomicity is needed, no cross-variable ordering.
            self.misses.fetch_add(1, Ordering::Relaxed);
            // ordering: Relaxed — reads the cost knob set above; staleness is harmless.
            stall(Duration::from_nanos(self.miss_ns.load(Ordering::Relaxed)));
        }
        hit
    }

    /// Drop every resident page (used by fault injection: a machine restart
    /// comes back with a cold cache).
    pub fn clear(&self) {
        *self.state.lock() = LruState::new();
    }

    /// Number of currently resident pages.
    pub fn resident_pages(&self) -> usize {
        self.state.lock().index.len()
    }

    pub fn stats(&self) -> BufferStats {
        BufferStats {
            // ordering: Relaxed — snapshot read; may tear across related counters by design (see module docs).
            hits: self.hits.load(Ordering::Relaxed),
            // ordering: Relaxed — snapshot read; may tear across related counters by design (see module docs).
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    pub fn reset_stats(&self) {
        // ordering: Relaxed — window reset; racing accesses land in either window.
        self.hits.store(0, Ordering::Relaxed);
        // ordering: Relaxed — see above.
        self.misses.store(0, Ordering::Relaxed);
    }
}

/// Busy-wait for `d`. `thread::sleep` has ~50µs granularity on Linux, far too
/// coarse for per-page costs, so we spin on `Instant`.
fn stall(d: Duration) {
    if d.is_zero() {
        return;
    }
    let start = Instant::now();
    while start.elapsed() < d {
        std::hint::spin_loop();
    }
}

/// Map a row id to its page number.
pub fn page_of_row(row_id: u64) -> u64 {
    row_id / ROWS_PER_PAGE
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pk(table: u64, page_no: u64) -> PageKey {
        PageKey { table, page_no }
    }

    #[test]
    fn first_access_misses_second_hits() {
        let pool = BufferPool::new(4, CostModel::free());
        assert!(!pool.access(pk(1, 0)));
        assert!(pool.access(pk(1, 0)));
        assert_eq!(pool.stats(), BufferStats { hits: 1, misses: 1 });
    }

    #[test]
    fn lru_eviction_order() {
        let pool = BufferPool::new(2, CostModel::free());
        pool.access(pk(1, 0)); // miss
        pool.access(pk(1, 1)); // miss
        pool.access(pk(1, 0)); // hit; page 1 is now LRU
        pool.access(pk(1, 2)); // miss; evicts page 1
        assert!(pool.access(pk(1, 0)), "page 0 should still be resident");
        assert!(!pool.access(pk(1, 1)), "page 1 was evicted");
    }

    #[test]
    fn capacity_is_respected() {
        let pool = BufferPool::new(8, CostModel::free());
        for i in 0..100 {
            pool.access(pk(1, i));
        }
        assert_eq!(pool.resident_pages(), 8);
    }

    #[test]
    fn clear_makes_cache_cold() {
        let pool = BufferPool::new(8, CostModel::free());
        pool.access(pk(1, 0));
        pool.clear();
        assert!(!pool.access(pk(1, 0)));
        assert_eq!(pool.resident_pages(), 1);
    }

    #[test]
    fn hit_rate_math() {
        let pool = BufferPool::new(8, CostModel::free());
        pool.access(pk(1, 0));
        pool.access(pk(1, 0));
        pool.access(pk(1, 0));
        pool.access(pk(1, 1));
        let s = pool.stats();
        assert_eq!(s.hits, 2);
        assert_eq!(s.misses, 2);
        assert!((s.hit_rate() - 0.5).abs() < 1e-9);
        pool.reset_stats();
        assert_eq!(pool.stats().accesses(), 0);
        assert_eq!(pool.stats().hit_rate(), 0.0);
    }

    #[test]
    fn miss_cost_is_paid_in_wall_clock() {
        let pool = BufferPool::new(
            64,
            CostModel {
                hit: Duration::ZERO,
                miss: Duration::from_micros(200),
            },
        );
        let t0 = Instant::now();
        for i in 0..10 {
            pool.access(pk(1, i));
        }
        assert!(t0.elapsed() >= Duration::from_micros(2000));
    }

    #[test]
    fn page_mapping() {
        assert_eq!(page_of_row(0), 0);
        assert_eq!(page_of_row(ROWS_PER_PAGE - 1), 0);
        assert_eq!(page_of_row(ROWS_PER_PAGE), 1);
    }

    /// The pool's former stamp LRU, kept as the reference the linked list
    /// must match access for access.
    struct StampLru {
        capacity: usize,
        resident: std::collections::HashMap<PageKey, u64>,
        by_stamp: std::collections::BTreeMap<u64, PageKey>,
        next_stamp: u64,
    }

    impl StampLru {
        fn access(&mut self, page: PageKey) -> bool {
            let stamp = self.next_stamp;
            self.next_stamp += 1;
            let old = self.resident.insert(page, stamp);
            if let Some(old) = old {
                self.by_stamp.remove(&old);
            }
            self.by_stamp.insert(stamp, page);
            if self.resident.len() > self.capacity {
                let (_, victim) = self.by_stamp.pop_first().expect("non-empty");
                self.resident.remove(&victim);
            }
            old.is_some()
        }
    }

    #[test]
    fn matches_the_stamp_lru_oracle() {
        // Miri keeps the small pools and fewer accesses.
        let (capacities, accesses): (&[usize], _) = if cfg!(miri) {
            (&[1, 2, 67], 2_000)
        } else {
            (&[1, 2, 67, 16_384], 40_000)
        };
        for &capacity in capacities {
            let pool = BufferPool::new(capacity, CostModel::free());
            let mut oracle = StampLru {
                capacity,
                resident: Default::default(),
                by_stamp: Default::default(),
                next_stamp: 0,
            };
            let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ capacity as u64;
            let cap = capacity as u64;
            for i in 0..accesses {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                // A hot set inside the pool, a warm one just over it and a
                // cold range far beyond it, over three tables.
                let span = match x % 4 {
                    0 | 1 => cap / 2 + 1,
                    2 => cap + cap / 4 + 2,
                    _ => 4 * cap + 8,
                };
                let page = pk(x % 3, (x >> 8) % span);
                assert_eq!(
                    pool.access(page),
                    oracle.access(page),
                    "capacity {capacity}, access {i}: {page:?}"
                );
            }
            let mut resident: Vec<PageKey> = pool.state.lock().index.keys().copied().collect();
            let mut expected: Vec<PageKey> = oracle.resident.keys().copied().collect();
            resident.sort();
            expected.sort();
            assert_eq!(resident.len(), capacity, "the pool filled");
            assert_eq!(resident, expected, "capacity {capacity}");
        }
    }

    #[test]
    fn concurrent_access_is_safe() {
        use std::sync::Arc;
        let pool = Arc::new(BufferPool::new(32, CostModel::free()));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let p = Arc::clone(&pool);
            handles.push(std::thread::spawn(move || {
                for i in 0..1000 {
                    p.access(pk(t, i % 50));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(pool.stats().accesses(), 4000);
        assert!(pool.resident_pages() <= 32);
    }
}
