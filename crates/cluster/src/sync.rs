//! Ranked synchronization primitives for the cluster crate.
//!
//! All cluster locks are ordered wrappers from [`tenantdb_lockdep`] with the
//! classes below; the numeric ranks place each layer in the global lock
//! hierarchy (DESIGN.md §10 has the full diagram and the rationale). Rank
//! numbers ascend going *down* the stack — a thread may only acquire ranks
//! strictly greater than everything it already holds:
//!
//! ```text
//! connection (10..30)          outermost: held across routing + enqueue
//!   └─ controller (100..145)   machine map, replicated metadata group,
//!                              database entries
//!        └─ metrics (152..155) handle caches
//!                  └─ pool (300..310)       worker pools
//!                       └─ worker (400..420) session mailbox/exec lanes
//!                            └─ fault (450)  injector plans
//!                                 └─ storage (500..570, storage::sync)
//! ```
//!
//! Key cross-layer edges this encodes (each one exists in the code):
//! connection state is held while routing reads controller maps and while
//! enqueueing into session mailboxes and pools; the replicated metadata
//! group checks the fault injector while pumping a proposal; worker `exec`
//! is held across engine calls and fault-injector checks.

pub use tenantdb_lockdep::{
    OrderedCondvar as Condvar, OrderedMutex as Mutex, OrderedMutexGuard as MutexGuard,
    OrderedRwLock as RwLock, OrderedRwLockReadGuard as RwLockReadGuard,
    OrderedRwLockWriteGuard as RwLockWriteGuard,
};

pub use tenantdb_lockdep::LockClass;

/// `Connection::state` — the connection's active-transaction slot. Held
/// across machine routing, session creation and mailbox enqueue, so it is
/// the outermost lock in the system.
pub static CONN_STATE: LockClass = LockClass::new("cluster.connection.state", 10);

/// `TxnShared`'s reply receiver — the worker reply channel a transaction
/// makes once a lane it waits on is found busy.
pub static CONN_REPLY: LockClass = LockClass::new("cluster.connection.reply", 30);

/// `ClusterController::machines` — the machine map. Held while reading
/// per-machine state (engine catalogs rank deeper).
pub static CTRL_MACHINES: LockClass = LockClass::new("cluster.controller.machines", 100);

/// `RouteBarrier::quiescer` — one grace period at a time. Taken by a
/// replica copy holding no other lock, and nothing is taken under it.
pub static ROUTE_QUIESCE: LockClass = LockClass::new("cluster.controller.route_quiesce", 105);

/// `ControllerGroup::inner` — the replicated controller metadata group
/// (placement map, Algorithm-1 copy table, 2PC decision log, SLA table;
/// see `meta.rs`). Held across the synchronous consensus pump, whose only
/// nested acquisition is the fault injector (rank 450).
pub static CTRL_META: LockClass = LockClass::new("cluster.controller.meta", 110);

/// `DbEntry::gate` — one database's SLA admission gate. Read on the
/// transaction entry path (under `CONN_STATE`) once an SLA is installed
/// anywhere, written when an SLA is installed or the database is dropped.
pub static CTRL_ADMISSION: LockClass = LockClass::new("cluster.controller.admission", 120);

/// `ClusterController::recorder` — optional history recorder slot.
pub static CTRL_RECORDER: LockClass = LockClass::new("cluster.controller.recorder", 130);

/// `Dbs::map` — every database's entry, by name. Read when a connection
/// opens (or finds its entry dropped); written on a database's first entry
/// and on drop.
pub static CTRL_DBS: LockClass = LockClass::new("cluster.controller.dbs", 140);

/// One database's plans (`DbEntry::plans`), read on every statement under
/// `CONN_STATE`; never nested with `CTRL_DBS`, ranked below it only so the
/// pair has a stated order.
pub static CTRL_PLANS_DB: LockClass = LockClass::new("cluster.controller.plans.db", 145);

/// `ClusterMetrics::read_routes` — resolve-once route-counter cache.
pub static METRICS_READ_ROUTES: LockClass = LockClass::new("cluster.metrics.read_routes", 155);

/// `PoolShared::state` — job queue + worker accounting (condvar mutex).
pub static POOL_STATE: LockClass = LockClass::new("cluster.pool.state", 300);

/// `PoolShared::handles` — worker join handles.
pub static POOL_HANDLES: LockClass = LockClass::new("cluster.pool.handles", 310);

/// `Session::mailbox` — per-session FIFO message lane.
pub static WORKER_MAILBOX: LockClass = LockClass::new("cluster.worker.mailbox", 400);

/// `Session::exec` — per-session execution state, held across engine calls
/// for a whole message.
pub static WORKER_EXEC: LockClass = LockClass::new("cluster.worker.exec", 410);

/// `TxnShared::failures` — per-transaction failure collection (pushed under
/// `WORKER_EXEC`).
pub static WORKER_FAILURES: LockClass = LockClass::new("cluster.worker.failures", 420);

/// `FaultInjector::state` — fault plans; checked from worker/commit paths
/// that may hold anything above.
pub static FAULT_STATE: LockClass = LockClass::new("cluster.fault.state", 450);

/// Assert the calling thread holds **no controller (or outer) lock** —
/// used to pin down that long-running sections (the Algorithm-1 replica
/// copy) run lock-free of the controller. No-op when lockdep is disabled.
#[track_caller]
pub fn assert_no_controller_locks() {
    // Controller ranks end at CTRL_PLANS_DB (145); metrics caches (150+)
    // and deeper are fine to hold.
    tenantdb_lockdep::assert_max_held_rank(CTRL_PLANS_DB.rank());
}

use std::sync::atomic::{AtomicU64, Ordering};

/// RCU-style grace-period barrier for Algorithm-1 statement routing
/// (`ClusterController::route_barrier`).
///
/// Readers ([`enter`](Self::enter)) **never block** — not even while a
/// [`quiesce`](Self::quiesce) is in progress. That is the point: a write
/// statement holds the read side across replica fan-out, during which it
/// may wait on engine 2PL locks. A reader-blocking barrier (e.g. a
/// writer-preferring `RwLock`) closes a deadlock cycle that spans the
/// barrier and the engine's lock tables: transaction A holds a 2PL lock
/// and blocks *entering* the barrier behind a pending quiesce, while the
/// quiesce waits on reader B, which waits on A's 2PL lock. The cycle has
/// no lock-rank inversion (lockdep is blind to it) and crosses the engine
/// boundary (its wait-for graph is blind too), so it must be impossible by
/// construction.
///
/// The implementation is a two-slot epoch counter: readers increment the
/// slot selected by the current generation's parity; `quiesce` flips the
/// generation and waits for the readers parked in the slot it flipped away
/// from, so readers arriving after the flip never extend the wait.
///
/// What `quiesce` must wait for: the copy tightens its replicated state
/// *before* calling it, and routing reads that state under the controller
/// group's mutex, after entering. A reader that routed with the
/// pre-tightening state therefore holds a count in one of the two slots
/// from before `quiesce` began until its guard drops. Which slot is not
/// known — a reader can load the generation just before a flip and
/// increment after the flipper found that slot empty — so `quiesce` flips
/// twice and waits each slot out once, each while new readers enter the
/// other; and one `quiesce` runs at a time, because concurrent copies'
/// flips interleaved would make the slot one of them waits on the current
/// one again, or skip a slot altogether.
pub struct RouteBarrier {
    /// Generation counter; parity selects the active reader slot.
    gen: AtomicU64,
    /// In-flight reader counts, one per generation parity.
    slots: [AtomicU64; 2],
    /// Held across a whole `quiesce`.
    quiescer: Mutex<()>,
}

impl RouteBarrier {
    /// A barrier with no readers in flight.
    pub const fn new() -> Self {
        RouteBarrier {
            gen: AtomicU64::new(0),
            slots: [AtomicU64::new(0), AtomicU64::new(0)],
            quiescer: Mutex::new(&ROUTE_QUIESCE, ()),
        }
    }

    /// Enter the read side. Never blocks; the guard must be held from
    /// routing until the statement's last replica ack.
    pub fn enter(&self) -> RouteGuard<'_> {
        let g = (self.gen.load(Ordering::SeqCst) & 1) as usize;
        self.slots[g].fetch_add(1, Ordering::SeqCst);
        RouteGuard {
            slot: &self.slots[g],
        }
    }

    /// Wait for every reader that entered before this call to drop its
    /// guard. New readers are never blocked.
    pub fn quiesce(&self) {
        let _one_at_a_time = self.quiescer.lock();
        for _ in 0..2 {
            let prev = (self.gen.fetch_add(1, Ordering::SeqCst) & 1) as usize;
            let mut spins = 0u32;
            while self.slots[prev].load(Ordering::SeqCst) != 0 {
                // Readers can legitimately hold the guard across engine
                // lock waits (hundreds of ms); back off from yielding to
                // sleeping.
                spins += 1;
                if spins < 128 {
                    std::thread::yield_now();
                } else {
                    std::thread::sleep(std::time::Duration::from_micros(100));
                }
            }
        }
    }
}

impl Default for RouteBarrier {
    fn default() -> Self {
        Self::new()
    }
}

/// Read-side guard for [`RouteBarrier`]; dropping it retires the reader.
pub struct RouteGuard<'a> {
    slot: &'a AtomicU64,
}

impl Drop for RouteGuard<'_> {
    fn drop(&mut self) {
        self.slot.fetch_sub(1, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    /// Two copies quiesce at once (recovery copies lost databases side by side):
    /// the second must still wait for a reader that entered before it,
    /// although the first's flip moved the generation on.
    #[test]
    fn a_quiesce_waits_out_earlier_readers_while_another_drains() {
        let barrier = RouteBarrier::new();
        let reader = barrier.enter();
        std::thread::scope(|s| {
            let b = &barrier;
            let first = s.spawn(move || b.quiesce());
            while b.gen.load(Ordering::SeqCst) == 0 {
                std::thread::yield_now();
            }
            let (done_tx, done) = mpsc::channel();
            let second = s.spawn(move || {
                b.quiesce();
                done_tx.send(()).expect("the test waits for this");
            });
            assert!(
                done.recv_timeout(Duration::from_millis(200)).is_err(),
                "a quiesce returned while a reader that entered before it was in flight"
            );
            drop(reader);
            done.recv()
                .expect("the second quiesce returns once the reader left");
            first.join().expect("first quiesce");
            second.join().expect("second quiesce");
        });
    }
}
