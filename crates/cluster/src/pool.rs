//! Persistent worker pools: long-lived executor threads shared by all
//! transactions on a machine.
//!
//! The seed implementation spawned one OS thread per (transaction, machine),
//! so thread creation/join dominated short transactions. A [`WorkerPool`] is
//! started once (per [`crate::machine::Machine`], or transiently for a
//! recovery run) and executes two kinds of jobs:
//!
//! * **Sessions** — a transaction's per-machine FIFO lane
//!   ([`crate::worker::Session`], a [`Lane`]), drained by one thread at a
//!   time in arrival order: all operations of one transaction on one
//!   machine execute strictly in order — the invariant the paper's
//!   schedules (and the Table 1 results) depend on — while *different*
//!   transactions interleave across the pool's threads. A caller that would
//!   block for the reply anyway runs an *idle* lane's turn itself
//!   ([`crate::worker::SessionHandle::try_turn`]), so a session reaches the
//!   pool only with what nobody waits for (aggressive fan-out past the
//!   first ack, cleanup aborts, `Detach`) or when its lane is busy. The TCP
//!   server's per-connection request queue is the same [`Lane`].
//! * **Tasks** — plain closures (recovery copy jobs, background work).
//!
//! ## Sizing and growth
//!
//! Strict 2PL means a job can *block* holding a worker thread (a lock wait
//! of up to the configured timeout). With a fixed-size pool, the statement
//! that would release the lock could sit queued behind the blocked waiter —
//! a scheduling deadlock the per-transaction-thread model never had. The
//! pool therefore keeps [`PoolConfig::core_threads`] resident and grows on
//! demand — whenever work is queued and no worker is idle — up to
//! [`PoolConfig::max_threads`]. Grown threads are persistent (they are
//! *reused*, not joined per transaction), so steady-state throughput never
//! pays thread-spawn cost; `max_threads` only bounds the worst-case
//! footprint under heavy lock contention. If the bound is ever hit, lock
//! timeouts still guarantee forward progress, exactly as they do for
//! engine-level deadlocks.
//!
//! A pool that *cannot* grow (`max_threads == core_threads`,
//! [`PoolConfig::fixed`]) is a stated concurrency bound — "at most `n`
//! statements execute on this machine at once" — and a caller running a
//! lane's turn on its own thread would exceed it. Such a pool never lends
//! a turn; every message goes through its queue.

use std::collections::VecDeque;
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::sync::{Condvar, Mutex, POOL_HANDLES, POOL_STATE};

use crate::fault::{CrashPoint, FaultAction, FaultInjector};
use crate::machine::MachineId;
use crate::metrics::PoolMetrics;
use crate::worker::Session;

/// Pool sizing parameters (see the module docs for the growth rationale).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolConfig {
    /// Threads started eagerly and always kept resident.
    pub core_threads: usize,
    /// Hard ceiling for on-demand growth under blocking (≥ `core_threads`).
    pub max_threads: usize,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            core_threads: 4,
            max_threads: 64,
        }
    }
}

impl PoolConfig {
    /// A pool of exactly `n` threads, never growing — used where bounded
    /// concurrency is the point (recovery's copy-job parallelism, the
    /// Figure 8 x-axis) and by the pool-size regression tests.
    pub fn fixed(n: usize) -> Self {
        let n = n.max(1);
        PoolConfig {
            core_threads: n,
            max_threads: n,
        }
    }
}

/// A single-drainer FIFO: a queue, the slot of the one thread draining it,
/// and a closed flag. It has no lock of its own; its owner keeps it under
/// one it already holds (a session's mailbox, a server connection's state),
/// so each transition below decides in one hold, and nothing is ever left
/// queued with no drainer.
pub struct Lane<M> {
    queue: VecDeque<M>,
    drainer: bool,
    closed: bool,
}

impl<M> Default for Lane<M> {
    fn default() -> Self {
        Lane {
            queue: VecDeque::new(),
            drainer: false,
            closed: false,
        }
    }
}

impl<M> Lane<M> {
    /// Queue `msg`: `Ok(true)` if the caller must start a drainer (the slot
    /// is now its), `Err(msg)` once the lane is closed.
    pub fn push(&mut self, msg: M) -> Result<bool, M> {
        if self.closed {
            return Err(msg);
        }
        self.queue.push_back(msg);
        Ok(!std::mem::replace(&mut self.drainer, true))
    }

    /// Claim an idle, open lane for the calling thread, which runs its own
    /// message and then calls `release`.
    pub fn try_turn(&mut self) -> bool {
        let idle = !self.closed && self.is_idle();
        self.drainer |= idle;
        idle
    }

    /// The drainer's next message; `None` frees the slot.
    pub fn pop(&mut self) -> Option<M> {
        let next = self.queue.pop_front();
        self.drainer = next.is_some();
        next
    }

    /// Everything queued, in order; `None` frees the slot.
    pub fn take(&mut self) -> Option<VecDeque<M>> {
        self.release().then(|| std::mem::take(&mut self.queue))
    }

    /// Give a turn back: `true` if work queued meanwhile needs a drainer
    /// (the slot stays claimed for it), else the slot is freed.
    pub fn release(&mut self) -> bool {
        self.drainer = !self.queue.is_empty();
        self.drainer
    }

    /// Refuse every later `push` and `try_turn`; queued work still drains.
    pub fn close(&mut self) {
        self.closed = true;
    }

    /// Close, drop the queued work and free the slot (a drainer still
    /// running finds nothing at its next `pop`).
    pub fn abandon(&mut self) {
        self.close();
        self.queue.clear();
        self.drainer = false;
    }

    /// Is the lane closed?
    pub fn is_closed(&self) -> bool {
        self.closed
    }

    /// No drainer and nothing queued.
    pub fn is_idle(&self) -> bool {
        !self.drainer && self.queue.is_empty()
    }

    /// Messages queued, not counting one a drainer is running.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Nothing queued.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }
}

/// A unit of pool work.
pub enum PoolJob {
    /// Drain one transaction-session mailbox (FIFO lane).
    Session(Arc<Session>),
    /// Run an arbitrary closure.
    Task(Box<dyn FnOnce() + Send + 'static>),
}

struct PoolState {
    queue: VecDeque<PoolJob>,
    /// Workers currently parked in `cv.wait` (able to pick up work now).
    idle: usize,
    /// Workers alive (parked, running, or blocked inside a job).
    live: usize,
    shutdown: bool,
}

/// State shared between the pool handle and its worker threads. Kept behind
/// an `Arc` so sessions can reschedule themselves from a worker thread.
pub struct PoolShared {
    name: &'static str,
    cfg: PoolConfig,
    state: Mutex<PoolState>,
    cv: Condvar,
    handles: Mutex<Vec<JoinHandle<()>>>,
    /// Scheduling gauges/counters; `None` for unobserved pools (tests,
    /// standalone machines) so the hot path pays nothing when unused.
    metrics: Option<PoolMetrics>,
    /// Fault hook ([`CrashPoint::PoolJob`]) for pools owned by a cluster
    /// machine; `None` elsewhere. Inert unless the injector is armed.
    faults: Option<(Arc<FaultInjector>, MachineId)>,
}

impl PoolShared {
    /// May a caller run an idle session lane's turn on its own thread? Only
    /// when the pool's size is not itself the concurrency bound (see the
    /// module docs).
    pub(crate) fn lends_turns(&self) -> bool {
        self.cfg.max_threads > self.cfg.core_threads
    }

    /// Count one lane turn taken by a caller instead of a pool job.
    pub(crate) fn note_caller_turn(&self) {
        if let Some(m) = &self.metrics {
            m.caller_turns.inc();
        }
    }

    /// The [`CrashPoint::PoolJob`] hook, consulted before a job runs — by
    /// the worker that dequeued it or by the caller that took the lane's
    /// turn. Only a scheduling delay makes sense here: a "crashed" pool
    /// thread models nothing the paper's failure model contains.
    pub(crate) fn job_fault_hook(&self) {
        if let Some((inj, machine)) = &self.faults {
            if let Some(FaultAction::Delay(d)) = inj.check(CrashPoint::PoolJob, *machine) {
                std::thread::sleep(d);
            }
        }
    }

    /// Enqueue a job, growing the pool if every worker is busy or blocked.
    pub(crate) fn submit(self: &Arc<Self>, job: PoolJob) {
        let grow = {
            let mut st = self.state.lock();
            if st.shutdown {
                // Late submissions during teardown are dropped; the only
                // caller path that can race here is a session cleanup whose
                // engine is being torn down with it.
                return;
            }
            st.queue.push_back(job);
            if let Some(m) = &self.metrics {
                m.queue_depth.inc();
            }
            // Grow when the backlog exceeds the parked workers. Comparing
            // against `idle` rather than "is anyone idle" matters: a worker
            // that was just notified still counts as idle until it wakes, so
            // an `idle == 0` test would skip growing exactly when the only
            // parked worker is already spoken for. Over-growth from the
            // symmetric race (a worker mid-wake still counted out) is
            // benign — one extra resident thread, bounded by `max_threads`.
            let grow = st.queue.len() > st.idle && st.live < self.cfg.max_threads;
            if grow {
                st.live += 1; // reserve the slot under the lock
            }
            grow
        };
        self.cv.notify_one();
        if grow {
            self.spawn_worker();
        }
    }

    fn spawn_worker(self: &Arc<Self>) {
        if let Some(m) = &self.metrics {
            m.spawned.inc();
            m.live_threads.inc();
        }
        let shared = Arc::clone(self);
        let handle = std::thread::Builder::new()
            .name(format!("pool-{}", self.name))
            .spawn(move || worker_main(shared))
            // lint:allow(expect): OS thread exhaustion is unrecoverable for
            // the pool; failing loudly here beats deadlocking submitters.
            .expect("spawn pool worker");
        self.handles.lock().push(handle);
    }
}

fn worker_main(shared: Arc<PoolShared>) {
    loop {
        let job = {
            let mut st = shared.state.lock();
            loop {
                if let Some(job) = st.queue.pop_front() {
                    break Some(job);
                }
                if st.shutdown {
                    break None;
                }
                st.idle += 1;
                shared.cv.wait(&mut st);
                st.idle -= 1;
            }
        };
        match job {
            Some(job) => {
                if let Some(m) = &shared.metrics {
                    m.queue_depth.dec();
                }
                shared.job_fault_hook();
                match job {
                    PoolJob::Session(session) => session.drain(),
                    PoolJob::Task(f) => f(),
                }
            }
            None => {
                shared.state.lock().live -= 1;
                if let Some(m) = &shared.metrics {
                    m.live_threads.dec();
                }
                return;
            }
        }
    }
}

/// A handle owning a pool's threads; dropping it shuts the pool down and
/// joins the workers.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
}

impl WorkerPool {
    /// An unobserved pool (no metrics); see [`WorkerPool::with_metrics`].
    pub fn new(name: &'static str, cfg: PoolConfig) -> Self {
        Self::with_metrics(name, cfg, None)
    }

    /// A pool reporting queue depth, live threads and spawn counts through
    /// the given handles (resolved once; the hot path only touches atomics).
    pub fn with_metrics(name: &'static str, cfg: PoolConfig, metrics: Option<PoolMetrics>) -> Self {
        Self::with_instrumentation(name, cfg, metrics, None)
    }

    /// A fully instrumented pool: metrics plus the machine's fault injector
    /// (for the [`CrashPoint::PoolJob`] hook). Cluster machines use this;
    /// everything else passes `None` and pays nothing.
    pub fn with_instrumentation(
        name: &'static str,
        cfg: PoolConfig,
        metrics: Option<PoolMetrics>,
        faults: Option<(Arc<FaultInjector>, MachineId)>,
    ) -> Self {
        assert!(
            cfg.max_threads >= cfg.core_threads.max(1),
            "max_threads below core_threads"
        );
        let shared = Arc::new(PoolShared {
            name,
            cfg,
            state: Mutex::new(
                &POOL_STATE,
                PoolState {
                    queue: VecDeque::new(),
                    idle: 0,
                    live: cfg.core_threads.max(1),
                    shutdown: false,
                },
            ),
            cv: Condvar::new(),
            handles: Mutex::new(&POOL_HANDLES, Vec::new()),
            metrics,
            faults,
        });
        for _ in 0..cfg.core_threads.max(1) {
            shared.spawn_worker();
        }
        WorkerPool { shared }
    }

    /// The sizing this pool was built with.
    pub fn config(&self) -> PoolConfig {
        self.shared.cfg
    }

    /// The shared scheduling core (sessions hold this to reschedule).
    pub(crate) fn shared(&self) -> &Arc<PoolShared> {
        &self.shared
    }

    /// Run a closure on the pool (recovery copy jobs, background work).
    pub fn spawn_task(&self, f: impl FnOnce() + Send + 'static) {
        self.shared.submit(PoolJob::Task(Box::new(f)));
    }

    /// Threads currently alive (resident + grown); test/diagnostic hook.
    pub fn live_threads(&self) -> usize {
        self.shared.state.lock().live
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock();
            st.shutdown = true;
        }
        self.shared.cv.notify_all();
        let handles = std::mem::take(&mut *self.shared.handles.lock());
        for h in handles {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc::channel;
    use std::time::Duration;

    /// One `Lane` transition and what it answered.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Push(u32),
        TryTurn,
        Pop,
        Take,
        Release,
        Close,
        Abandon,
    }

    #[derive(Debug, PartialEq)]
    enum Ans {
        Start(bool),
        Refused(u32),
        Turn(bool),
        Got(Option<u32>),
        Batch(Option<Vec<u32>>),
        More(bool),
        Done,
    }

    fn apply(lane: &mut Lane<u32>, op: Op) -> Ans {
        match op {
            Op::Push(m) => lane.push(m).map_or_else(Ans::Refused, Ans::Start),
            Op::TryTurn => Ans::Turn(lane.try_turn()),
            Op::Pop => Ans::Got(lane.pop()),
            Op::Take => Ans::Batch(lane.take().map(Vec::from)),
            Op::Release => Ans::More(lane.release()),
            Op::Close => {
                lane.close();
                Ans::Done
            }
            Op::Abandon => {
                lane.abandon();
                Ans::Done
            }
        }
    }

    #[test]
    fn lane_transitions() {
        use Ans::*;
        use Op::*;
        // (what, ops from a fresh lane, their answers, idle afterwards)
        let table: &[(&str, &[Op], &[Ans], bool)] = &[
            (
                "push to an idle lane starts a drainer",
                &[Push(1)],
                &[Start(true)],
                false,
            ),
            (
                "push behind a drainer starts none",
                &[Push(1), Push(2)],
                &[Start(true), Start(false)],
                false,
            ),
            (
                "pop hands out arrival order, then frees the slot",
                &[Push(1), Push(2), Pop, Pop, Pop],
                &[
                    Start(true),
                    Start(false),
                    Got(Some(1)),
                    Got(Some(2)),
                    Got(None),
                ],
                true,
            ),
            (
                "take hands out the batch, then frees the slot",
                &[Push(1), Push(2), Take, Take],
                &[
                    Start(true),
                    Start(false),
                    Batch(Some(vec![1, 2])),
                    Batch(None),
                ],
                true,
            ),
            (
                "try_turn claims an idle lane",
                &[TryTurn],
                &[Turn(true)],
                false,
            ),
            (
                "a turn is lent once",
                &[TryTurn, TryTurn],
                &[Turn(true), Turn(false)],
                false,
            ),
            (
                "try_turn is refused while a drainer owns the lane",
                &[Push(1), TryTurn],
                &[Start(true), Turn(false)],
                false,
            ),
            (
                "release with nothing queued idles the lane",
                &[TryTurn, Release],
                &[Turn(true), More(false)],
                true,
            ),
            (
                "push during a turn queues behind it; release hands it to a drainer",
                &[TryTurn, Push(1), Release, Pop, Pop],
                &[
                    Turn(true),
                    Start(false),
                    More(true),
                    Got(Some(1)),
                    Got(None),
                ],
                true,
            ),
            (
                "a closed lane refuses push",
                &[Close, Push(1)],
                &[Done, Refused(1)],
                true,
            ),
            (
                "a closed lane refuses try_turn",
                &[Close, TryTurn],
                &[Done, Turn(false)],
                true,
            ),
            (
                "close lets queued work drain",
                &[Push(1), Close, Push(2), Pop, Pop],
                &[Start(true), Done, Refused(2), Got(Some(1)), Got(None)],
                true,
            ),
            (
                "abandon drops queued work, frees the slot and refuses push",
                &[Push(1), Push(2), Abandon, Pop, Push(3)],
                &[Start(true), Start(false), Done, Got(None), Refused(3)],
                true,
            ),
        ];
        for (what, ops, want, idle) in table {
            let mut lane = Lane::default();
            let got: Vec<Ans> = ops.iter().map(|&op| apply(&mut lane, op)).collect();
            assert_eq!(&got, want, "{what}");
            assert_eq!(lane.is_idle(), *idle, "{what}: idle afterwards");
        }
    }

    #[test]
    fn tasks_run_and_pool_joins_cleanly() {
        let pool = WorkerPool::new("t", PoolConfig::fixed(2));
        let (tx, rx) = channel();
        for i in 0..16 {
            let tx = tx.clone();
            pool.spawn_task(move || tx.send(i).unwrap());
        }
        drop(tx);
        let mut got: Vec<i32> = rx.iter().collect();
        got.sort();
        assert_eq!(got, (0..16).collect::<Vec<_>>());
        drop(pool);
    }

    #[test]
    fn fixed_pool_bounds_concurrency() {
        let pool = WorkerPool::new("bounded", PoolConfig::fixed(2));
        let running = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = channel();
        for _ in 0..8 {
            let running = Arc::clone(&running);
            let peak = Arc::clone(&peak);
            let tx = tx.clone();
            pool.spawn_task(move || {
                let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(10));
                running.fetch_sub(1, Ordering::SeqCst);
                tx.send(()).unwrap();
            });
        }
        drop(tx);
        assert_eq!(rx.iter().count(), 8);
        assert!(
            peak.load(Ordering::SeqCst) <= 2,
            "peak {}",
            peak.load(Ordering::SeqCst)
        );
        assert_eq!(pool.live_threads(), 2, "fixed pools must not grow");
    }

    #[test]
    fn pool_grows_when_workers_block() {
        // One core thread; first task blocks until the second task (which
        // needs a grown thread to ever run) releases it.
        let pool = WorkerPool::new(
            "grow",
            PoolConfig {
                core_threads: 1,
                max_threads: 8,
            },
        );
        let (release_tx, release_rx) = channel::<()>();
        let (done_tx, done_rx) = channel::<&'static str>();
        let done_blocker = done_tx.clone();
        pool.spawn_task(move || {
            release_rx.recv().unwrap();
            done_blocker.send("blocker").unwrap();
        });
        pool.spawn_task(move || {
            release_tx.send(()).unwrap();
            done_tx.send("unblocker").unwrap();
        });
        let mut got = vec![done_rx.recv().unwrap(), done_rx.recv().unwrap()];
        got.sort();
        assert_eq!(got, vec!["blocker", "unblocker"]);
        assert!(pool.live_threads() >= 2);
    }
}
