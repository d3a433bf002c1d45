//! Per-(transaction, machine) replica sessions, multiplexed over the
//! machine's persistent [`crate::pool::WorkerPool`].
//!
//! Each global transaction attaches one lightweight [`Session`] per machine
//! it touches. A session owns the transaction's *local incarnation* on that
//! machine (the engine-level `TxnId`) and is a strict FIFO lane: its
//! messages are executed in arrival order, never concurrently — exactly the
//! per-machine sequencing the paper's schedules assume. Under an
//! *aggressive* controller the client moves on after the first replica
//! acknowledges a write while the remaining replicas' sessions are still
//! executing it; the transaction's `PREPARE` on those replicas queues behind
//! the write in the same lane.
//!
//! A lane is a FIFO, not a thread: a [`crate::pool::Lane`] under the
//! session's mailbox lock, drained on the machine's pool threads. A pool
//! drain answers on its transaction's reply channel ([`TxnShared`], made
//! when first needed), correlated by a sequence number ([`SessionMsg`]'s
//! `seq`; late replies from aggressive-mode background writes are
//! discarded as stale). When a lane is idle, a caller that would wait for
//! the reply anyway may claim its single-drainer slot
//! ([`SessionHandle::try_turn`]) and run the message on its own thread:
//! same `Session::process`, same fault hooks, same history recording,
//! no hand-off and no reply channel. Whatever is enqueued while the
//! [`Turn`] is held queues behind it, and releasing the turn re-submits
//! the lane to the pool if anything did.
//!
//! Sessions also record the history stream: after each statement returns
//! (and before the session processes anything else), the rows it touched are
//! appended to the shared [`tenantdb_history::Recorder`]. Strict 2PL makes
//! that ordering agree with true per-site conflict order.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, OnceLock};

use crate::sync::{Mutex, CONN_REPLY, WORKER_EXEC, WORKER_FAILURES, WORKER_MAILBOX};

use tenantdb_history::{AccessKind, GTxn, Recorder, Site};
use tenantdb_sql::{Plan, QueryResult, StatementClass};
use tenantdb_storage::{Engine, TxnId, Value};

use crate::error::{ClusterError, Result};
use crate::fault::{CrashPoint, FaultAction, FaultInjector};
use crate::machine::MachineId;
use crate::pool::{Lane, PoolJob, PoolShared};

type Channel = (Sender<WorkerReply>, Mutex<Receiver<WorkerReply>>);

/// What a transaction's sessions share with its connection. The failure
/// ledger: every replica-side error lands here — including errors of
/// *background* writes under the aggressive policy ("the controller
/// asynchronously keeps track of whether the writes in the other machines
/// failed", §3.1) — and the commit path refuses to commit past any of
/// them. And the reply channel pool drains answer on, made by a drain's
/// first reply or the first wait for one (a transaction whose lanes all
/// run on its caller's thread makes none). A connection hands both to its
/// next transaction once nothing else holds them.
pub struct TxnShared {
    failures: Mutex<Vec<(MachineId, ClusterError)>>,
    reply: OnceLock<Channel>,
}

impl Default for TxnShared {
    fn default() -> Self {
        TxnShared {
            failures: Mutex::new(&WORKER_FAILURES, Vec::new()),
            reply: OnceLock::new(),
        }
    }
}

impl TxnShared {
    /// Record a replica-side failure.
    pub fn push(&self, machine: MachineId, err: ClusterError) {
        self.failures.lock().push((machine, err));
    }

    /// Take (and clear) every recorded failure.
    pub fn drain(&self) -> Vec<(MachineId, ClusterError)> {
        std::mem::take(&mut *self.failures.lock())
    }

    /// True when no failure has been recorded.
    pub fn is_empty(&self) -> bool {
        self.failures.lock().is_empty()
    }

    /// Number of recorded failures.
    pub fn len(&self) -> usize {
        self.failures.lock().len()
    }

    fn channel(&self) -> &Channel {
        self.reply.get_or_init(|| {
            let (tx, rx) = channel();
            (tx, Mutex::new(&CONN_REPLY, rx))
        })
    }

    /// The receiving end of the reply channel (made now if it was not).
    pub fn replies(&self) -> &Mutex<Receiver<WorkerReply>> {
        &self.channel().1
    }

    /// The reply channel's receiver, if one was made.
    pub fn made_replies(&self) -> Option<&Mutex<Receiver<WorkerReply>>> {
        self.reply.get().map(|(_, rx)| rx)
    }
}

/// A request processed by a session, in order. `seq` correlates the reply on
/// the transaction's shared reply channel; `want_reply: false` marks
/// fire-and-forget cleanup (the receiver is gone or does not care).
pub enum SessionMsg {
    /// Execute one statement inside the session's local transaction.
    Exec {
        /// Correlates the reply on the shared channel.
        seq: u64,
        /// The statement's plan — the one every replica executes.
        plan: Arc<Plan>,
        /// Parameter values.
        params: Arc<[Value]>,
    },
    /// 2PC phase 1: prepare the local transaction and vote.
    Prepare {
        /// Correlates the reply on the shared channel.
        seq: u64,
    },
    /// Commit the local transaction (phase 2, or one-phase for reads).
    Commit {
        /// Correlates the reply on the shared channel.
        seq: u64,
    },
    /// Abort the local transaction.
    Abort {
        /// Correlates the reply on the shared channel.
        seq: u64,
        /// `false` marks fire-and-forget cleanup (nobody waits).
        want_reply: bool,
    },
    /// Finish the session *without* touching its local transaction: used by
    /// the controller-crash fault injection, which must leave participants
    /// prepared (`ClusterController::takeover` completes them).
    Detach,
}

impl SessionMsg {
    /// Terminal messages close the mailbox: nothing can follow them.
    fn is_terminal(&self) -> bool {
        matches!(
            self,
            SessionMsg::Commit { .. } | SessionMsg::Abort { .. } | SessionMsg::Detach
        )
    }
}

/// Reply to a session request, tagged with the request's `seq`.
pub struct WorkerReply {
    /// The request's sequence number (stale replies are discarded by it).
    pub seq: u64,
    /// The machine that produced this reply.
    pub machine: MachineId,
    /// The transaction's local id on this machine (known once any operation
    /// has run). The 2PC decision log records these.
    pub local: Option<TxnId>,
    /// The statement's outcome on this replica.
    pub result: Result<QueryResult>,
}

struct ExecState {
    local: Option<TxnId>,
    finished: bool,
}

/// A transaction's FIFO execution lane on one machine (see module docs).
pub struct Session {
    machine: MachineId,
    engine: Arc<Engine>,
    gtxn: GTxn,
    /// The owning transaction's failure ledger and reply channel.
    shared: Arc<TxnShared>,
    recorder: Option<Arc<Recorder>>,
    /// The cluster's fault injector; consulted at the session-side crash
    /// points (inert unless armed).
    faults: Arc<FaultInjector>,
    /// Closed by the terminal message: later sends fail.
    mailbox: Mutex<Lane<SessionMsg>>,
    /// Only ever touched by the single active drainer; the lock is
    /// uncontended and exists to make the sharing safe.
    exec: Mutex<ExecState>,
    /// The machine's pool: where the lane is scheduled when it has work
    /// and no drainer.
    pool: Arc<PoolShared>,
}

impl Session {
    fn enqueue(self: &Arc<Self>, msg: SessionMsg) -> Result<()> {
        let terminal = msg.is_terminal();
        let start = {
            let mut mb = self.mailbox.lock();
            // A closed lane: the session finished (or is finishing); matches
            // the seed behaviour of sending to an exited worker.
            let start = mb
                .push(msg)
                .map_err(|_| ClusterError::from(tenantdb_storage::StorageError::Unavailable))?;
            if terminal {
                mb.close();
            }
            start
        };
        if start {
            self.pool.submit(PoolJob::Session(Arc::clone(self)));
        }
        Ok(())
    }

    /// Drain the mailbox in arrival order (called by the pool worker that
    /// holds the lane's single-drainer slot).
    pub(crate) fn drain(&self) {
        loop {
            let Some(batch) = self.mailbox.lock().take() else {
                return;
            };
            for msg in batch {
                if let Some(reply) = self.process(msg) {
                    let _ = self.shared.channel().0.send(reply);
                }
            }
        }
    }

    /// Consult the injector at `point`; a `Crash` takes this machine's
    /// engine down (every later operation on it sees `Unavailable`), a
    /// `Delay` stalls this session's lane like a slow machine would.
    fn fault_hook(&self, point: CrashPoint) {
        if let Some(action) = self.faults.check(point, self.machine) {
            match action {
                FaultAction::Crash => self.engine.crash(),
                FaultAction::Delay(d) => std::thread::sleep(d),
            }
        }
    }

    /// Record a replica-side error in the transaction's failure ledger.
    /// Whatever a statement reports once its engine is down is the crash
    /// speaking — a crash discards live transactions under the statements
    /// still in flight, which then trip over `NoSuchTxn` or a lock wait
    /// nobody will end — so it is recorded as the machine failure it is
    /// (`Unavailable`, which the connection masks) rather than as a
    /// statement error that would abort the transaction on the survivors.
    fn note_failure(&self, result: Result<QueryResult>) -> Result<QueryResult> {
        result.map_err(|e| {
            let e = if self.engine.is_failed() {
                ClusterError::from(tenantdb_storage::StorageError::Unavailable)
            } else {
                e
            };
            self.shared.push(self.machine, e.clone());
            e
        })
    }

    /// Execute one message against the local transaction and hand back its
    /// reply — `None` when nobody wants one (`Detach`, `want_reply: false`,
    /// anything behind a terminal message). The one execution path of a
    /// lane: [`Session::drain`] sends the reply down the transaction's
    /// channel, a caller-run [`Turn`] just returns it.
    fn process(&self, msg: SessionMsg) -> Option<WorkerReply> {
        let mut exec = self.exec.lock();
        if exec.finished {
            // A message behind a terminal one (cannot happen through the
            // public API; defensive for direct pool users).
            return None;
        }
        let reply = |seq, local, result| WorkerReply {
            seq,
            machine: self.machine,
            local,
            result,
        };
        match msg {
            SessionMsg::Exec { seq, plan, params } => {
                Some(self.statement(&mut exec, seq, &plan, &params))
            }
            SessionMsg::Prepare { seq } => {
                self.fault_hook(CrashPoint::PrepareApply);
                let result = match exec.local {
                    Some(t) => self
                        .engine
                        .prepare(t)
                        .map(|_| QueryResult::default())
                        .map_err(ClusterError::from),
                    // A machine that saw no operation votes yes trivially.
                    None => Ok(QueryResult::default()),
                };
                let result = self.note_failure(result);
                if result.is_ok() {
                    // Vote persisted; a crash here leaves a prepared
                    // participant whose ack the coordinator never sees.
                    self.fault_hook(CrashPoint::PrepareAck);
                }
                Some(reply(seq, exec.local, result))
            }
            SessionMsg::Commit { seq } => {
                if exec.local.is_some() {
                    self.fault_hook(CrashPoint::CommitApply);
                }
                let result = match exec.local.take() {
                    Some(t) => self
                        .engine
                        .commit(t)
                        .map(|_| QueryResult::default())
                        .map_err(ClusterError::from),
                    None => Ok(QueryResult::default()),
                };
                if result.is_ok() {
                    self.fault_hook(CrashPoint::CommitAck);
                }
                exec.finished = true;
                Some(reply(seq, None, result))
            }
            SessionMsg::Abort { seq, want_reply } => {
                let result = match exec.local.take() {
                    Some(t) => self
                        .engine
                        .abort(t)
                        .map(|_| QueryResult::default())
                        .map_err(ClusterError::from),
                    None => Ok(QueryResult::default()),
                };
                exec.finished = true;
                want_reply.then(|| reply(seq, None, result))
            }
            SessionMsg::Detach => {
                // Leave `local` untouched: a prepared participant must stay
                // prepared across the simulated controller crash.
                exec.finished = true;
                None
            }
        }
    }

    /// Run one statement inside the local transaction (begun now if this
    /// is the session's first).
    fn statement(
        &self,
        exec: &mut ExecState,
        seq: u64,
        plan: &Plan,
        params: &[Value],
    ) -> WorkerReply {
        let is_write = plan.class() == StatementClass::Write;
        if is_write {
            self.fault_hook(CrashPoint::ReplicaWriteApply);
        }
        let engine = &self.engine;
        let result: Result<QueryResult> = (|| {
            let txn = match exec.local {
                Some(t) => t,
                None => {
                    let t = engine.begin()?;
                    exec.local = Some(t);
                    t
                }
            };
            // The touched sets exist for the recorder alone.
            let Some(rec) = &self.recorder else {
                return Ok(tenantdb_sql::run(engine, txn, plan, params)?);
            };
            let r = tenantdb_sql::run_recording(engine, txn, plan, params)?;
            let (site, db) = (Site(self.machine.0), plan.database());
            let touched = [
                (AccessKind::Read, &r.touched_reads),
                (AccessKind::Write, &r.touched_writes),
            ];
            for (kind, rows) in touched {
                for (table, rid) in rows {
                    rec.record(site, self.gtxn, kind, format!("{db}.{table}:{rid}"));
                }
            }
            Ok(r)
        })();
        let result = self.note_failure(result);
        if is_write && result.is_ok() {
            // The write applied; a crash here loses a statement the
            // coordinator is about to count as acknowledged.
            self.fault_hook(CrashPoint::ReplicaWriteAck);
        }
        WorkerReply {
            seq,
            machine: self.machine,
            local: exec.local,
            result,
        }
    }
}

/// Handle through which the connection drives one session. Dropping the
/// handle without having sent a terminal message enqueues a cleanup abort so
/// a dangling local transaction's locks never linger until timeout.
pub struct SessionHandle {
    session: Arc<Session>,
}

impl SessionHandle {
    /// The machine this session executes on.
    pub fn machine(&self) -> MachineId {
        self.session.machine
    }

    /// Send a request; a send failure means the session already finished
    /// (transaction completed) and is reported as `Unavailable`, matching
    /// the seed's exited-worker behaviour.
    pub fn send(&self, msg: SessionMsg) -> Result<()> {
        self.session.enqueue(msg)
    }

    /// Claim the lane's turn for the calling thread, if the lane is idle:
    /// nothing queued, no drainer, not closed. The caller then runs its
    /// message itself ([`Turn::run`]) instead of paying a hand-off to a
    /// pool thread and a reply over the channel — worth it exactly when
    /// the caller would block for the reply anyway. `None` means the lane
    /// is busy (an aggressive background write is still running, say) and
    /// the message must queue behind it with [`SessionHandle::send`]; so
    /// does a pool that cannot grow, whose size is a stated concurrency
    /// bound its callers must not exceed.
    pub fn try_turn(&self) -> Option<Turn> {
        let session = &self.session;
        if !session.pool.lends_turns() || !session.mailbox.lock().try_turn() {
            return None;
        }
        session.pool.note_caller_turn();
        Some(Turn {
            session: Arc::clone(session),
        })
    }

    /// Finish the session without aborting its local transaction (simulated
    /// controller crash: participants stay prepared, no cleanup runs). The
    /// seed modelled this by leaking the worker thread; here nothing leaks.
    pub fn detach(self) {
        let _ = self.session.enqueue(SessionMsg::Detach);
    }
}

impl Drop for SessionHandle {
    fn drop(&mut self) {
        // Fire-and-forget cleanup, refused (and ignored) when a terminal
        // message already closed the lane; errors are deliberately not
        // recorded (the transaction is over — this mirrors the seed's
        // ignored cleanup abort).
        let _ = self.session.enqueue(SessionMsg::Abort {
            seq: 0,
            want_reply: false,
        });
    }
}

/// The single-drainer slot of an idle lane, held by the calling thread
/// (see [`SessionHandle::try_turn`]). Dropping it releases the slot.
pub struct Turn {
    session: Arc<Session>,
}

impl Turn {
    /// Execute `msg` on this thread, as the pool worker that would have
    /// dequeued it does: the pool-job fault hook, then the one
    /// `Session::process`. The reply is returned, not sent.
    pub fn run(self, msg: SessionMsg) -> Option<WorkerReply> {
        if msg.is_terminal() {
            self.session.mailbox.lock().close();
        }
        self.session.pool.job_fault_hook();
        self.session.process(msg)
    }

    /// [`Turn::run`] for a statement borrowed from the caller: its
    /// parameters need no `Arc` when they never leave this thread.
    pub fn exec(self, seq: u64, plan: &Plan, params: &[Value]) -> Option<WorkerReply> {
        self.session.pool.job_fault_hook();
        let mut exec = self.session.exec.lock();
        (!exec.finished).then(|| self.session.statement(&mut exec, seq, plan, params))
    }
}

impl Drop for Turn {
    fn drop(&mut self) {
        // A message enqueued while this thread held the turn found the slot
        // taken and submitted nothing: `release` passes the slot to a pool
        // job for it, or idles the lane.
        let resubmit = self.session.mailbox.lock().release();
        if resubmit {
            let session = &self.session;
            session.pool.submit(PoolJob::Session(Arc::clone(session)));
        }
    }
}

/// Create a session for `gtxn` on the pool owned by a machine (called via
/// [`crate::machine::Machine::session`]).
pub(crate) fn new_session(
    pool: &Arc<PoolShared>,
    machine: MachineId,
    engine: Arc<Engine>,
    gtxn: GTxn,
    shared: Arc<TxnShared>,
    recorder: Option<Arc<Recorder>>,
    faults: Arc<FaultInjector>,
) -> SessionHandle {
    SessionHandle {
        session: Arc::new(Session {
            machine,
            engine,
            gtxn,
            shared,
            recorder,
            faults,
            mailbox: Mutex::new(&WORKER_MAILBOX, Lane::default()),
            exec: Mutex::new(
                &WORKER_EXEC,
                ExecState {
                    local: None,
                    finished: false,
                },
            ),
            pool: Arc::clone(pool),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;
    use tenantdb_sql::{parse, plan};
    use tenantdb_storage::EngineConfig;

    fn machine_with_table() -> Arc<Machine> {
        let m = Arc::new(Machine::new(MachineId(1), EngineConfig::for_tests()));
        m.engine.create_database("app").unwrap();
        let e = &m.engine;
        e.with_txn(|t| {
            tenantdb_sql::execute(
                e,
                t,
                "app",
                "CREATE TABLE kv (k INT NOT NULL, v TEXT, PRIMARY KEY (k))",
                &[],
            )
            .map_err(|err| match err {
                tenantdb_sql::SqlError::Storage(s) => s,
                other => tenantdb_storage::StorageError::SchemaMismatch(other.to_string()),
            })?;
            Ok(())
        })
        .unwrap();
        m
    }

    struct Harness {
        engine: Arc<Engine>,
        handle: SessionHandle,
        shared: Arc<TxnShared>,
        seq: u64,
    }

    fn session(m: &Arc<Machine>, gtxn: u64, failures: &Arc<TxnShared>) -> Harness {
        session_recorded(m, gtxn, failures, None)
    }

    fn session_recorded(
        m: &Arc<Machine>,
        gtxn: u64,
        failures: &Arc<TxnShared>,
        recorder: Option<Arc<Recorder>>,
    ) -> Harness {
        let handle = m.session(GTxn(gtxn), Arc::clone(failures), recorder);
        Harness {
            engine: Arc::clone(&m.engine),
            handle,
            shared: Arc::clone(failures),
            seq: 0,
        }
    }

    impl Harness {
        fn exec(&mut self, sql: &str) -> Result<QueryResult> {
            self.seq += 1;
            let stmt = parse(sql).unwrap();
            self.handle.send(SessionMsg::Exec {
                seq: self.seq,
                plan: Arc::new(plan(&self.engine, "app", &stmt).unwrap()),
                params: Arc::new([]),
            })?;
            self.recv().result
        }

        fn recv(&self) -> WorkerReply {
            loop {
                let r = self
                    .shared
                    .replies()
                    .lock()
                    .recv()
                    .expect("session replies");
                if r.seq == self.seq {
                    return r;
                }
            }
        }

        fn prepare(&mut self) -> WorkerReply {
            self.seq += 1;
            self.handle
                .send(SessionMsg::Prepare { seq: self.seq })
                .unwrap();
            self.recv()
        }

        fn finish(&mut self, commit: bool) -> Result<QueryResult> {
            self.seq += 1;
            let msg = if commit {
                SessionMsg::Commit { seq: self.seq }
            } else {
                SessionMsg::Abort {
                    seq: self.seq,
                    want_reply: true,
                }
            };
            self.handle.send(msg).unwrap();
            self.recv().result
        }
    }

    #[test]
    fn session_executes_and_commits() {
        let m = machine_with_table();
        let failures = Arc::new(TxnShared::default());
        let mut s = session(&m, 1, &failures);
        s.exec("INSERT INTO kv VALUES (1, 'x')").unwrap();
        s.finish(true).unwrap();
        assert!(failures.is_empty());
        // Data visible to a fresh txn.
        let t = m.engine.begin().unwrap();
        assert_eq!(m.engine.scan(t, "app", "kv").unwrap().len(), 1);
        m.engine.commit(t).unwrap();
    }

    #[test]
    fn session_abort_rolls_back() {
        let m = machine_with_table();
        let failures = Arc::new(TxnShared::default());
        let mut s = session(&m, 2, &failures);
        s.exec("INSERT INTO kv VALUES (1, 'x')").unwrap();
        s.finish(false).unwrap();
        let t = m.engine.begin().unwrap();
        assert_eq!(m.engine.scan(t, "app", "kv").unwrap().len(), 0);
        m.engine.commit(t).unwrap();
    }

    #[test]
    fn error_lands_in_failure_ledger() {
        let m = machine_with_table();
        let failures = Arc::new(TxnShared::default());
        let mut s = session(&m, 3, &failures);
        s.exec("INSERT INTO kv VALUES (1, 'x')").unwrap();
        // Unique violation -> statement error -> recorded.
        s.exec("INSERT INTO kv VALUES (1, 'dup')").unwrap_err();
        assert_eq!(failures.len(), 1);
        let drained = failures.drain();
        assert_eq!(drained[0].0, MachineId(1));
        s.finish(false).unwrap();
    }

    #[test]
    fn dropping_handle_aborts_dangling_txn() {
        let m = machine_with_table();
        {
            let failures = Arc::new(TxnShared::default());
            let mut s = session(&m, 4, &failures);
            s.exec("INSERT INTO kv VALUES (9, 'dangling')").unwrap();
            // Dropped without commit/abort.
        }
        // The cleanup abort is asynchronous; a fresh write to the same key
        // succeeds once it lands (lock released), well within the timeout.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
        loop {
            let t = m.engine.begin().unwrap();
            let n = m.engine.scan(t, "app", "kv").unwrap().len();
            m.engine.commit(t).unwrap();
            if n == 0 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "cleanup abort never ran"
            );
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
    }

    #[test]
    fn send_after_finish_fails() {
        let m = machine_with_table();
        let failures = Arc::new(TxnShared::default());
        let mut s = session(&m, 5, &failures);
        s.exec("INSERT INTO kv VALUES (1, 'x')").unwrap();
        s.finish(true).unwrap();
        let err = s.exec("SELECT * FROM kv").unwrap_err();
        assert!(err.is_proactive_rejection());
    }

    #[test]
    fn history_recorded_with_site_and_gtxn() {
        let m = machine_with_table();
        let rec = Arc::new(Recorder::new());
        let failures = Arc::new(TxnShared::default());
        let mut s = session_recorded(&m, 5, &failures, Some(rec.clone()));
        s.exec("INSERT INTO kv VALUES (1, 'x')").unwrap();
        s.exec("SELECT * FROM kv WHERE k = 1").unwrap();
        s.finish(true).unwrap();
        let ops = rec.ops();
        assert_eq!(ops.len(), 2);
        assert_eq!(ops[0].site, Site(1));
        assert_eq!(ops[0].txn, GTxn(5));
        assert!(matches!(ops[0].kind, AccessKind::Write));
        assert!(matches!(ops[1].kind, AccessKind::Read));
        assert_eq!(ops[0].object, ops[1].object);
    }

    #[test]
    fn touched_sets_are_collected_only_for_a_recorder() {
        let m = machine_with_table();
        let failures = Arc::new(TxnShared::default());
        let mut plain = session(&m, 10, &failures);
        let w = plain.exec("INSERT INTO kv VALUES (1, 'x')").unwrap();
        let r = plain.exec("SELECT * FROM kv WHERE k = 1").unwrap();
        assert!(w.touched_writes.is_empty() && r.touched_reads.is_empty());
        assert_eq!(r.rows.len(), 1);
        plain.finish(true).unwrap();

        let rec = Arc::new(Recorder::new());
        let mut recorded = session_recorded(&m, 11, &failures, Some(rec));
        let w = recorded.exec("INSERT INTO kv VALUES (2, 'y')").unwrap();
        let r = recorded.exec("SELECT * FROM kv WHERE k = 2").unwrap();
        assert_eq!(w.touched_writes.len(), 1);
        assert_eq!(r.touched_reads, w.touched_writes);
        recorded.finish(true).unwrap();
    }

    #[test]
    fn prepare_reports_local_txn_id() {
        let m = machine_with_table();
        let failures = Arc::new(TxnShared::default());
        let mut s = session(&m, 6, &failures);
        s.exec("INSERT INTO kv VALUES (2, 'y')").unwrap();
        let reply = s.prepare();
        reply.result.unwrap();
        assert!(
            reply.local.is_some(),
            "prepare must expose the local txn id"
        );
        s.finish(true).unwrap();
    }

    #[test]
    fn failed_machine_surfaces_unavailable() {
        let m = machine_with_table();
        m.engine.crash();
        let failures = Arc::new(TxnShared::default());
        let mut s = session(&m, 7, &failures);
        let err = s.exec("SELECT * FROM kv").unwrap_err();
        assert!(err.is_proactive_rejection());
        assert_eq!(failures.len(), 1);
    }

    #[test]
    fn lane_preserves_order_across_many_statements() {
        // Back-to-back dependent updates in one session must apply in order
        // even though each is a separate pool job submission.
        let m = machine_with_table();
        let failures = Arc::new(TxnShared::default());
        let mut s = session(&m, 8, &failures);
        s.exec("INSERT INTO kv VALUES (1, '0')").unwrap();
        for i in 1..=50 {
            s.exec(&format!("UPDATE kv SET v = '{i}' WHERE k = 1"))
                .unwrap();
        }
        let r = s.exec("SELECT v FROM kv WHERE k = 1").unwrap();
        assert_eq!(r.rows[0][0], Value::Text("50".into()));
        s.finish(true).unwrap();
        assert!(failures.is_empty());
    }
}
