//! Multigranularity strict two-phase locking.
//!
//! The engine locks at two granularities — whole tables and individual rows —
//! with the classic IS/IX/S/X mode lattice:
//!
//! * point reads take `IS` on the table, `S` on the row;
//! * point writes take `IX` on the table, `X` on the row;
//! * scans and the [`crate::copy`] tool take `S` on the table;
//! * DDL takes `X` on the table.
//!
//! Waiters queue FIFO per resource; lock *upgrades* (a txn strengthening a
//! mode it already holds) bypass the queue, which is the standard way to keep
//! read-then-update workloads live. Deadlocks are detected by a wait-for
//! graph cycle search run whenever a transaction is about to block; the
//! blocking transaction is the victim (the paper's MySQL substrate likewise
//! aborts one of the transactions and surfaces a deadlock error).
//!
//! Two-phase commit interacts with locking through
//! [`LockManager::release_read_locks`]: real systems release read locks at
//! PREPARE rather than COMMIT (§3.1 of the paper), and that optimization is
//! exactly what makes the aggressive-controller anomaly of Table 1 possible.
//! We implement it faithfully.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::sync::{Condvar, Mutex, LOCK_TABLE};

use crate::error::{Result, StorageError};
use crate::idmap::IdMap;
use crate::txn::TxnId;

/// A lockable resource: a table, a row within a table, or an *index key*
/// within a table. Key resources implement lightweight key-value locking:
/// equality index lookups take `S` on the key, and any write that changes
/// the membership of that key (insert / delete / key-changing update) takes
/// `X` on it. This gives phantom protection for equality predicates without
/// full next-key locking; range scans fall back to a table `S` lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ResourceId {
    Table { table: u64 },
    Row { table: u64, row: u64 },
    Key { table: u64, hash: u64 },
}

/// Lock modes. `IS`/`IX` are table-level intention modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockMode {
    IS,
    IX,
    S,
    X,
}

impl LockMode {
    fn bit(self) -> u8 {
        match self {
            LockMode::IS => 1,
            LockMode::IX => 2,
            LockMode::S => 4,
            LockMode::X => 8,
        }
    }

    const ALL: [LockMode; 4] = [LockMode::IS, LockMode::IX, LockMode::S, LockMode::X];

    /// Standard multigranularity compatibility matrix.
    pub fn compatible(self, other: LockMode) -> bool {
        use LockMode::*;
        match (self, other) {
            (IS, IS) | (IS, IX) | (IS, S) => true,
            (IX, IS) | (IX, IX) => true,
            (S, IS) | (S, S) => true,
            (X, _) | (_, X) => false,
            (IX, S) | (S, IX) => false,
        }
    }

    /// Modes implied by holding `self` (holding X implies S, IX, IS; holding
    /// S or IX implies IS).
    fn implies(self, weaker: LockMode) -> bool {
        use LockMode::*;
        self == weaker || matches!((self, weaker), (X, _) | (S, IS) | (IX, IS))
    }
}

/// Does a mask of held modes imply `mode`?
fn mask_implies(mask: u8, mode: LockMode) -> bool {
    LockMode::ALL
        .iter()
        .any(|m| mask & m.bit() != 0 && m.implies(mode))
}

/// Is `mode` compatible with every mode in `mask`?
fn mask_compat(mask: u8, mode: LockMode) -> bool {
    LockMode::ALL
        .iter()
        .all(|m| mask & m.bit() == 0 || m.compatible(mode))
}

#[derive(Debug)]
struct Waiter {
    txn: TxnId,
    mode: LockMode,
}

#[derive(Debug, Default)]
struct LockState {
    /// Each holder with the bitmask of its granted modes; almost always one
    /// or two entries.
    granted: Vec<(TxnId, u8)>,
    waiting: VecDeque<Waiter>,
}

impl LockState {
    fn is_empty(&self) -> bool {
        self.granted.is_empty() && self.waiting.is_empty()
    }

    fn mask_of(&self, txn: TxnId) -> Option<u8> {
        self.granted
            .iter()
            .find(|(t, _)| *t == txn)
            .map(|&(_, m)| m)
    }

    /// Can `txn` be granted `mode` given the other holders?
    fn compatible_with_others(&self, txn: TxnId, mode: LockMode) -> bool {
        self.granted
            .iter()
            .all(|&(t, mask)| t == txn || mask_compat(mask, mode))
    }

    /// Add `mode` to `txn`'s grant. True if `txn` was not a holder before.
    fn grant(&mut self, txn: TxnId, mode: LockMode) -> bool {
        if let Some((_, mask)) = self.granted.iter_mut().find(|(t, _)| *t == txn) {
            *mask |= mode.bit();
            return false;
        }
        self.granted.push((txn, mode.bit()));
        true
    }
}

/// How many emptied [`LockState`]s and held lists the table keeps for reuse,
/// so that a steady-state acquire allocates nothing; also the largest
/// capacity a kept held list may have.
pub(crate) const SPARES: usize = 64;

/// The resources on which each txn holds at least one granted mode, each
/// listed once, and emptied lists kept for reuse.
#[derive(Default)]
struct Held {
    lists: IdMap<TxnId, Vec<ResourceId>>,
    spare: Vec<Vec<ResourceId>>,
}

impl Held {
    fn add(&mut self, txn: TxnId, res: ResourceId) {
        let list = self
            .lists
            .entry(txn)
            .or_insert_with(|| self.spare.pop().unwrap_or_default());
        list.push(res);
    }

    fn recycle(&mut self, mut list: Vec<ResourceId>) {
        if self.spare.len() < SPARES && list.capacity() <= SPARES {
            list.clear();
            self.spare.push(list);
        }
    }
}

#[derive(Default)]
struct LockTable {
    resources: IdMap<ResourceId, LockState>,
    held: Held,
    /// Entries in every `waiting` queue together.
    queued: usize,
    spare_states: Vec<LockState>,
}

impl LockTable {
    fn holds_implied(&self, txn: TxnId, res: ResourceId, mode: LockMode) -> bool {
        self.resources
            .get(&res)
            .and_then(|s| s.mask_of(txn))
            .is_some_and(|mask| mask_implies(mask, mode))
    }

    /// Shrink `res`'s state with `f`, keeping `queued` true, and recycle the
    /// state once it is empty.
    fn shrink(&mut self, res: ResourceId, f: impl FnOnce(&mut LockState, &mut Held)) {
        let Entry::Occupied(mut e) = self.resources.entry(res) else {
            return;
        };
        let st = e.get_mut();
        let before = st.waiting.len();
        f(st, &mut self.held);
        self.queued -= before - st.waiting.len();
        if st.is_empty() {
            let st = e.remove();
            if self.spare_states.len() < SPARES {
                self.spare_states.push(st);
            }
        }
    }

    /// Drop `txn`'s grants on `res` with `f`, then grant waiters from the
    /// front while compatible, stopping at the first blocked one to preserve
    /// fairness.
    fn release(&mut self, res: ResourceId, f: impl FnOnce(&mut LockState)) {
        self.shrink(res, |st, held| {
            f(st);
            while let Some(w) = st.waiting.front() {
                if !st.compatible_with_others(w.txn, w.mode) {
                    break;
                }
                let w = st.waiting.pop_front().expect("the front waiter exists");
                if st.grant(w.txn, w.mode) {
                    held.add(w.txn, res);
                }
            }
        });
    }

    /// Withdraw `txn`'s wait on `res`, granting no one.
    fn remove_waiter(&mut self, txn: TxnId, res: ResourceId) {
        self.shrink(res, |st, _| st.waiting.retain(|w| w.txn != txn));
    }

    /// Build the wait-for graph and search for a cycle through `start`.
    ///
    /// A waiter waits for (a) every *other* txn holding an incompatible
    /// granted mode on the resource, and (b) every earlier waiter in the
    /// queue with an incompatible mode (FIFO ordering makes those blockers
    /// too).
    fn would_deadlock(&self, start: TxnId) -> bool {
        let mut edges: HashMap<TxnId, HashSet<TxnId>> = HashMap::new();
        for st in self.resources.values() {
            for (i, w) in st.waiting.iter().enumerate() {
                let out = edges.entry(w.txn).or_default();
                for &(holder, mask) in &st.granted {
                    if holder != w.txn && !mask_compat(mask, w.mode) {
                        out.insert(holder);
                    }
                }
                for earlier in st.waiting.iter().take(i) {
                    if earlier.txn != w.txn && !earlier.mode.compatible(w.mode) {
                        out.insert(earlier.txn);
                    }
                }
            }
        }
        // DFS from `start`, looking for a path back to `start`.
        let mut stack: Vec<TxnId> = edges.get(&start).into_iter().flatten().copied().collect();
        let mut seen: HashSet<TxnId> = HashSet::new();
        while let Some(t) = stack.pop() {
            if t == start {
                return true;
            }
            if seen.insert(t) {
                if let Some(next) = edges.get(&t) {
                    stack.extend(next.iter().copied());
                }
            }
        }
        false
    }
}

/// Counters exposed for experiments (deadlock rates feed Figures 5–7).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LockStats {
    pub acquisitions: u64,
    pub waits: u64,
    pub deadlocks: u64,
    pub timeouts: u64,
}

/// [`LockStats`] as it is counted: one relaxed atomic per field, so that
/// counting an acquisition takes no second mutex.
#[derive(Default)]
struct LockCounters {
    acquisitions: AtomicU64,
    waits: AtomicU64,
    deadlocks: AtomicU64,
    timeouts: AtomicU64,
}

/// Count one event.
fn bump(counter: &AtomicU64) {
    // ordering: Relaxed — advisory telemetry; only atomicity is needed, no cross-variable ordering.
    counter.fetch_add(1, Ordering::Relaxed);
}

/// The lock manager. One instance per engine (≈ machine).
pub struct LockManager {
    table: Mutex<LockTable>,
    cv: Condvar,
    timeout: Duration,
    stats: LockCounters,
}

impl Default for LockManager {
    fn default() -> Self {
        Self::new(Duration::from_secs(5))
    }
}

impl LockManager {
    pub fn new(timeout: Duration) -> Self {
        LockManager {
            table: Mutex::new(&LOCK_TABLE, LockTable::default()),
            cv: Condvar::new(),
            timeout,
            stats: LockCounters::default(),
        }
    }

    /// Acquire `mode` on `res` for `txn`, blocking if necessary.
    ///
    /// Returns `Err(Deadlock)` if granting would close a wait-for cycle (the
    /// caller must abort the transaction) or `Err(LockTimeout)` after the
    /// configured wait budget.
    pub fn acquire(&self, txn: TxnId, res: ResourceId, mode: LockMode) -> Result<()> {
        let mut guard = self.table.lock();
        bump(&self.stats.acquisitions);
        let t = &mut *guard;
        let st = t
            .resources
            .entry(res)
            .or_insert_with(|| t.spare_states.pop().unwrap_or_default());
        let mask = st.mask_of(txn);
        if mask.is_some_and(|m| mask_implies(m, mode)) {
            return Ok(());
        }
        let compat = st.compatible_with_others(txn, mode);
        let queue_clear = st.waiting.iter().all(|w| w.txn == txn);
        // Upgrades bypass the wait queue; fresh requests respect FIFO.
        if compat && (mask.is_some() || queue_clear) {
            if st.grant(txn, mode) {
                t.held.add(txn, res);
            }
            return Ok(());
        }
        st.waiting.push_back(Waiter { txn, mode });
        t.queued += 1;
        bump(&self.stats.waits);
        if t.would_deadlock(txn) {
            t.remove_waiter(txn, res);
            bump(&self.stats.deadlocks);
            return Err(StorageError::Deadlock(txn));
        }
        let deadline = Instant::now() + self.timeout;
        loop {
            let timed_out = self.cv.wait_until(&mut guard, deadline).timed_out();
            if guard.holds_implied(txn, res, mode) {
                return Ok(());
            }
            if timed_out {
                guard.remove_waiter(txn, res);
                bump(&self.stats.timeouts);
                return Err(StorageError::LockTimeout(txn));
            }
        }
    }

    /// Release every lock held (or waited for) by `txn`. Called at commit and
    /// abort — strict 2PL.
    pub fn release_all(&self, txn: TxnId) {
        let mut t = self.table.lock();
        let wake = t.queued > 0;
        if let Some(mut list) = t.held.lists.remove(&txn) {
            for res in list.drain(..) {
                t.release(res, |st| st.granted.retain(|&(h, _)| h != txn));
            }
            t.held.recycle(list);
        }
        // Also drop any dangling wait entries (e.g. abort from another path).
        if t.queued > 0 {
            let waited: Vec<ResourceId> = t
                .resources
                .iter()
                .filter(|(_, s)| s.waiting.iter().any(|w| w.txn == txn))
                .map(|(r, _)| *r)
                .collect();
            for res in waited {
                t.release(res, |st| st.waiting.retain(|w| w.txn != txn));
            }
        }
        drop(t);
        if wake {
            self.cv.notify_all();
        }
    }

    /// Release only the read locks (S/IS) of `txn`, keeping write locks.
    /// This models the early-release-at-PREPARE 2PC optimization.
    pub fn release_read_locks(&self, txn: TxnId) {
        let mut t = self.table.lock();
        let wake = t.queued > 0;
        if let Some(mut list) = t.held.lists.remove(&txn) {
            list.retain(|&res| {
                let mut still_held = true;
                t.release(res, |st| {
                    if let Some(i) = st.granted.iter().position(|&(h, _)| h == txn) {
                        st.granted[i].1 &= !(LockMode::S.bit() | LockMode::IS.bit());
                        if st.granted[i].1 == 0 {
                            st.granted.swap_remove(i);
                            still_held = false;
                        }
                    }
                });
                still_held
            });
            t.held.lists.insert(txn, list);
        }
        drop(t);
        if wake {
            self.cv.notify_all();
        }
    }

    /// Modes currently held by `txn` on `res` (for tests and invariants).
    pub fn held_modes(&self, txn: TxnId, res: ResourceId) -> Vec<LockMode> {
        let t = self.table.lock();
        let Some(mask) = t.resources.get(&res).and_then(|s| s.mask_of(txn)) else {
            return Vec::new();
        };
        LockMode::ALL
            .iter()
            .copied()
            .filter(|m| mask & m.bit() != 0)
            .collect()
    }

    /// Number of transactions currently blocked.
    pub fn waiter_count(&self) -> usize {
        let t = self.table.lock();
        t.resources.values().map(|s| s.waiting.len()).sum()
    }

    pub fn stats(&self) -> LockStats {
        // ordering: Relaxed — snapshot read; may tear across related counters by design.
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        LockStats {
            acquisitions: get(&self.stats.acquisitions),
            waits: get(&self.stats.waits),
            deadlocks: get(&self.stats.deadlocks),
            timeouts: get(&self.stats.timeouts),
        }
    }

    pub fn reset_stats(&self) {
        let s = &self.stats;
        for c in [&s.acquisitions, &s.waits, &s.deadlocks, &s.timeouts] {
            // ordering: Relaxed — window reset; racing acquisitions land in either window.
            c.store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    fn row(r: u64) -> ResourceId {
        ResourceId::Row { table: 1, row: r }
    }
    fn tbl() -> ResourceId {
        ResourceId::Table { table: 1 }
    }

    impl LockManager {
        /// Resource entries, held lists, spare states and spare held lists.
        pub(crate) fn footprint(&self) -> [usize; 4] {
            let t = self.table.lock();
            let waiting: usize = t.resources.values().map(|s| s.waiting.len()).sum();
            assert_eq!(t.queued, waiting, "the queued count drifted");
            [
                t.resources.len(),
                t.held.lists.len(),
                t.spare_states.len(),
                t.held.spare.len(),
            ]
        }
    }

    #[test]
    fn compatibility_matrix() {
        use LockMode::*;
        assert!(IS.compatible(IX));
        assert!(IS.compatible(S));
        assert!(!IS.compatible(X));
        assert!(IX.compatible(IX));
        assert!(!IX.compatible(S));
        assert!(S.compatible(S));
        assert!(!S.compatible(X));
        assert!(!X.compatible(X));
    }

    #[test]
    fn shared_locks_coexist() {
        let lm = LockManager::default();
        lm.acquire(TxnId(1), row(5), LockMode::S).unwrap();
        lm.acquire(TxnId(2), row(5), LockMode::S).unwrap();
        assert_eq!(lm.held_modes(TxnId(1), row(5)), vec![LockMode::S]);
        assert_eq!(lm.held_modes(TxnId(2), row(5)), vec![LockMode::S]);
    }

    #[test]
    fn reacquire_is_noop() {
        let lm = LockManager::default();
        lm.acquire(TxnId(1), row(5), LockMode::X).unwrap();
        lm.acquire(TxnId(1), row(5), LockMode::X).unwrap();
        // X implies S: no extra grant needed.
        lm.acquire(TxnId(1), row(5), LockMode::S).unwrap();
        assert_eq!(lm.held_modes(TxnId(1), row(5)), vec![LockMode::X]);
    }

    #[test]
    fn exclusive_blocks_until_release() {
        let lm = Arc::new(LockManager::default());
        lm.acquire(TxnId(1), row(1), LockMode::X).unwrap();
        let lm2 = Arc::clone(&lm);
        let h = thread::spawn(move || lm2.acquire(TxnId(2), row(1), LockMode::X));
        thread::sleep(Duration::from_millis(30));
        assert_eq!(lm.waiter_count(), 1);
        lm.release_all(TxnId(1));
        h.join().unwrap().unwrap();
        assert_eq!(lm.held_modes(TxnId(2), row(1)), vec![LockMode::X]);
    }

    #[test]
    fn classic_two_txn_deadlock_detected() {
        let lm = Arc::new(LockManager::default());
        lm.acquire(TxnId(1), row(1), LockMode::X).unwrap();
        lm.acquire(TxnId(2), row(2), LockMode::X).unwrap();
        let lm2 = Arc::clone(&lm);
        // T1 blocks on row 2.
        let h = thread::spawn(move || lm2.acquire(TxnId(1), row(2), LockMode::X));
        thread::sleep(Duration::from_millis(30));
        // T2 requests row 1 -> cycle -> T2 is the victim.
        let err = lm.acquire(TxnId(2), row(1), LockMode::X).unwrap_err();
        assert_eq!(err, StorageError::Deadlock(TxnId(2)));
        lm.release_all(TxnId(2));
        h.join().unwrap().unwrap();
        assert_eq!(lm.stats().deadlocks, 1);
    }

    #[test]
    fn upgrade_deadlock_detected() {
        // Both txns hold S and both try to upgrade to X: the second
        // upgrader must be chosen as victim.
        let lm = Arc::new(LockManager::default());
        lm.acquire(TxnId(1), row(1), LockMode::S).unwrap();
        lm.acquire(TxnId(2), row(1), LockMode::S).unwrap();
        let lm2 = Arc::clone(&lm);
        let h = thread::spawn(move || lm2.acquire(TxnId(1), row(1), LockMode::X));
        thread::sleep(Duration::from_millis(30));
        let err = lm.acquire(TxnId(2), row(1), LockMode::X).unwrap_err();
        assert_eq!(err, StorageError::Deadlock(TxnId(2)));
        lm.release_all(TxnId(2));
        h.join().unwrap().unwrap();
    }

    #[test]
    fn upgrade_bypasses_wait_queue() {
        // T1 holds S; T2 waits for X; T1's upgrade to X must NOT queue
        // behind T2 (that would deadlock) — it waits only on granted locks.
        let lm = Arc::new(LockManager::default());
        lm.acquire(TxnId(1), row(1), LockMode::S).unwrap();
        let lm2 = Arc::clone(&lm);
        let waiter = thread::spawn(move || lm2.acquire(TxnId(2), row(1), LockMode::X));
        thread::sleep(Duration::from_millis(30));
        // Upgrade succeeds immediately: only T1 itself holds the lock.
        lm.acquire(TxnId(1), row(1), LockMode::X).unwrap();
        lm.release_all(TxnId(1));
        waiter.join().unwrap().unwrap();
    }

    #[test]
    fn fifo_fairness_for_fresh_requests() {
        // T1 holds X. T2 then T3 request S. After release both get S, and a
        // later X request (T4) queued behind them does not starve them.
        let lm = Arc::new(LockManager::default());
        lm.acquire(TxnId(1), row(1), LockMode::X).unwrap();
        let mut handles = Vec::new();
        for t in [2u64, 3] {
            let l = Arc::clone(&lm);
            handles.push(thread::spawn(move || {
                l.acquire(TxnId(t), row(1), LockMode::S)
            }));
        }
        thread::sleep(Duration::from_millis(30));
        lm.release_all(TxnId(1));
        for h in handles {
            h.join().unwrap().unwrap();
        }
        assert_eq!(lm.held_modes(TxnId(2), row(1)), vec![LockMode::S]);
        assert_eq!(lm.held_modes(TxnId(3), row(1)), vec![LockMode::S]);
    }

    #[test]
    fn release_read_locks_keeps_writes() {
        let lm = LockManager::default();
        lm.acquire(TxnId(1), tbl(), LockMode::IS).unwrap();
        lm.acquire(TxnId(1), tbl(), LockMode::IX).unwrap();
        lm.acquire(TxnId(1), row(1), LockMode::S).unwrap();
        lm.acquire(TxnId(1), row(2), LockMode::X).unwrap();
        lm.release_read_locks(TxnId(1));
        assert_eq!(lm.held_modes(TxnId(1), row(1)), vec![]);
        assert_eq!(lm.held_modes(TxnId(1), row(2)), vec![LockMode::X]);
        assert_eq!(lm.held_modes(TxnId(1), tbl()), vec![LockMode::IX]);
        // A reader can now read row 1 but not row 2.
        lm.acquire(TxnId(2), row(1), LockMode::S).unwrap();
        lm.release_all(TxnId(1));
        lm.acquire(TxnId(2), row(2), LockMode::S).unwrap();
    }

    #[test]
    fn intention_locks_conflict_with_table_scans() {
        let lm = Arc::new(LockManager::default());
        // Writer intent on the table blocks a full-table S lock (scan/copy).
        lm.acquire(TxnId(1), tbl(), LockMode::IX).unwrap();
        let lm2 = Arc::clone(&lm);
        let h = thread::spawn(move || lm2.acquire(TxnId(2), tbl(), LockMode::S));
        thread::sleep(Duration::from_millis(30));
        assert_eq!(lm.waiter_count(), 1);
        lm.release_all(TxnId(1));
        h.join().unwrap().unwrap();
    }

    #[test]
    fn lock_timeout_fires() {
        let lm = LockManager::new(Duration::from_millis(50));
        lm.acquire(TxnId(1), row(1), LockMode::X).unwrap();
        let err = lm.acquire(TxnId(2), row(1), LockMode::S).unwrap_err();
        assert_eq!(err, StorageError::LockTimeout(TxnId(2)));
        assert_eq!(lm.stats().timeouts, 1);
    }

    #[test]
    fn three_way_deadlock_detected() {
        let lm = Arc::new(LockManager::default());
        lm.acquire(TxnId(1), row(1), LockMode::X).unwrap();
        lm.acquire(TxnId(2), row(2), LockMode::X).unwrap();
        lm.acquire(TxnId(3), row(3), LockMode::X).unwrap();
        let a = Arc::clone(&lm);
        let h1 = thread::spawn(move || a.acquire(TxnId(1), row(2), LockMode::X));
        let b = Arc::clone(&lm);
        let h2 = thread::spawn(move || b.acquire(TxnId(2), row(3), LockMode::X));
        thread::sleep(Duration::from_millis(50));
        // T3 -> row1 closes the 3-cycle.
        let err = lm.acquire(TxnId(3), row(1), LockMode::X).unwrap_err();
        assert_eq!(err, StorageError::Deadlock(TxnId(3)));
        lm.release_all(TxnId(3));
        h2.join().unwrap().unwrap();
        lm.release_all(TxnId(2));
        h1.join().unwrap().unwrap();
        lm.release_all(TxnId(1));
    }

    #[test]
    fn release_all_wakes_multiple_resources() {
        let lm = Arc::new(LockManager::default());
        lm.acquire(TxnId(1), row(1), LockMode::X).unwrap();
        lm.acquire(TxnId(1), row(2), LockMode::X).unwrap();
        let mut handles = Vec::new();
        for (t, r) in [(2u64, 1u64), (3, 2)] {
            let l = Arc::clone(&lm);
            handles.push(thread::spawn(move || {
                l.acquire(TxnId(t), row(r), LockMode::X)
            }));
        }
        thread::sleep(Duration::from_millis(30));
        lm.release_all(TxnId(1));
        for h in handles {
            h.join().unwrap().unwrap();
        }
    }
}
