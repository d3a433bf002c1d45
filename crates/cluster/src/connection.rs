//! Client connections: read routing, write-all fan-out, and 2PC
//! coordination — the §3.1 machinery.
//!
//! Error semantics follow the strict ("PostgreSQL-style") model: once any
//! statement of a transaction errors on any replica, the transaction can no
//! longer commit — `commit()` reports the failure and the client retries.
//! The one exception is machine failure (`Unavailable`): a dead replica is
//! silently discarded from the replica set and the transaction continues on
//! the survivors, which is the failure-masking behaviour §3.2 requires.
//!
//! ## Reply plumbing
//!
//! A transaction owns exactly one reply channel for its whole lifetime; the
//! per-machine sessions it attaches all send into it, and every request
//! carries a sequence number minted under the connection lock. The receive
//! side simply discards replies whose `seq` predates the current request —
//! that is where aggressive-mode straggler acks (background replica writes
//! the client did not wait for) go to die. The seed allocated a fresh mpsc
//! channel per statement to get the same isolation; the sequence numbers
//! make the allocation (and the per-statement `HashMap` of pending
//! channels it implied) unnecessary.
//!
//! ## Whose thread
//!
//! Wherever the connection waits for *every* reply anyway — a read (one
//! lane), PREPARE / COMMIT / ABORT, a conservative or single-target write
//! — it takes the turn of each idle lane ([`SessionHandle::try_turn`]) and
//! runs the lanes one after another on the calling thread; only lanes
//! found busy go through the pool and the reply channel. One after
//! another, not one inline and the rest pooled: a statement costs less
//! than one thread hand-off, so Σ over replicas on this thread beats
//! max + hop, and a caller that still blocks on a pool reply waits out the
//! time slice of every session that no longer does. Aggressive fan-out to
//! more than one lane stays on the pool — returning on the first ack while
//! the rest runs in the background is what the pool is for.

use std::collections::HashMap;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::Instant;

use crate::sync::{Mutex, CONN_REPLY, CONN_RNG, CONN_STATE};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tenantdb_obs::Counter;

use tenantdb_history::GTxn;
use tenantdb_sql::{Plan, QueryResult, SqlError, StatementClass};
use tenantdb_storage::{StorageError, TxnId, Value};

use crate::controller::{ClusterController, ReadPolicy, WritePolicy};
use crate::error::{Aborted, ClusterError, Outcome, Refusal, Result};
use crate::fault::{CrashPoint, FaultAction, CONTROLLER};
use crate::machine::MachineId;
use crate::twopc::{self, Ack, Participant};
use crate::worker::{SessionHandle, SessionMsg, Turn, TxnFailures, WorkerReply};

/// A lane turn held by this thread and the message it will run.
type Claimed = (Turn, SessionMsg);

struct ActiveTxn {
    gtxn: GTxn,
    sessions: HashMap<MachineId, SessionHandle>,
    /// Replica chosen for this transaction's reads (Option 2).
    read_pin: Option<MachineId>,
    wrote: bool,
    failures: Arc<TxnFailures>,
    /// Send half of the transaction's single reply channel (sessions clone
    /// it at attach time).
    reply_tx: Sender<WorkerReply>,
    /// Receive half, shared so the connection lock can be dropped while
    /// waiting for replies. Uncontended: one statement is in flight at a
    /// time per connection.
    reply_rx: Arc<Mutex<Receiver<WorkerReply>>>,
    /// Last sequence number minted (0 = none yet; replies at or above the
    /// wait threshold are current, everything below is a stale straggler).
    seq: u64,
}

impl ActiveTxn {
    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    /// Leave the participants prepared: detach the sessions, so no cleanup
    /// abort touches them.
    fn detach(&mut self) {
        for (_, s) in self.sessions.drain() {
            s.detach();
        }
    }
}

/// A client connection to one database, routed through the cluster
/// controller (the JDBC connection of §2).
pub struct Connection {
    controller: Arc<ClusterController>,
    db: String,
    state: Mutex<Option<ActiveTxn>>,
    rng: Mutex<StdRng>,
}

impl Connection {
    pub(crate) fn new(controller: Arc<ClusterController>, db: String) -> Self {
        // Per-connection deterministic RNG stream.
        let seed =
            controller.cfg.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ controller.next_gtxn().0;
        Connection {
            controller,
            db,
            state: Mutex::new(&CONN_STATE, None),
            rng: Mutex::new(&CONN_RNG, StdRng::seed_from_u64(seed)),
        }
    }

    /// The database this connection serves.
    pub fn database(&self) -> &str {
        &self.db
    }

    /// True while an explicit transaction is open.
    pub fn in_txn(&self) -> bool {
        self.state.lock().is_some()
    }

    /// The read-routing and write-acknowledgement policies this connection
    /// is served under (its cluster's — what a serving tier negotiates
    /// against at handshake).
    pub fn policies(&self) -> (ReadPolicy, WritePolicy) {
        let cfg = &self.controller.cfg;
        (cfg.read_policy, cfg.write_policy)
    }

    /// Non-consuming SLA admission peek (see
    /// [`crate::controller::ClusterController::admission_probe`]):
    /// `Some(error)` if a *new* transaction on this connection would be shed
    /// right now. Never blocks — safe on event-loop threads.
    pub fn admission_probe(&self) -> Option<ClusterError> {
        self.controller.admission_probe(&self.db)
    }

    /// Start an explicit transaction.
    pub fn begin(&self) -> Result<()> {
        let mut st = self.state.lock();
        if st.is_some() {
            return Err(ClusterError::aborted("BEGIN inside an open transaction"));
        }
        // §4 proactive rejection: every transaction — explicit, implicit, or
        // batch — enters through here, so this is the one admission point.
        // Free (one atomic load) when no SLA is installed; a shed tenant
        // never reaches routing, sessions, or worker pools.
        self.controller.admit(&self.db)?;
        self.controller.metrics().note_begun(&self.db);
        let (reply_tx, reply_rx) = channel();
        *st = Some(ActiveTxn {
            gtxn: self.controller.next_gtxn(),
            sessions: HashMap::new(),
            read_pin: None,
            wrote: false,
            failures: Arc::new(TxnFailures::default()),
            reply_tx,
            reply_rx: Arc::new(Mutex::new(&CONN_REPLY, reply_rx)),
            seq: 0,
        });
        Ok(())
    }

    /// What `sql` would do to this connection's database — the
    /// classification a serving tier schedules a request by. Answered from
    /// the database's plan cache (the statement is bound now if it is not
    /// there yet, so [`Connection::execute`] finds it).
    pub fn statement_class(&self, sql: &str) -> Result<StatementClass> {
        Ok(self.controller.plan_for(&self.db, sql)?.class())
    }

    /// Execute one SQL statement — the one statement entry point. Outside
    /// an explicit transaction the statement runs in its own auto-committed
    /// transaction. The SQL text is looked up in the database's plan cache;
    /// only a text not seen since the database's last DDL is parsed and
    /// bound.
    pub fn execute(&self, sql: &str, params: &[Value]) -> Result<QueryResult> {
        let plan = self.controller.plan_for(&self.db, sql)?;
        let class = plan.class();
        // DDL bypasses transactions entirely (engine DDL is auto-committed).
        if class == StatementClass::Ddl {
            if self.in_txn() {
                return Err(ClusterError::Sql(SqlError::Plan(
                    "DDL not allowed inside a transaction".into(),
                )));
            }
            self.controller.apply_ddl(&self.db, &plan)?;
            return Ok(QueryResult::default());
        }
        let implicit = !self.in_txn();
        if implicit {
            self.begin()?;
        }
        let result = self.run_stmt(&plan, class, params.into());
        if implicit {
            match &result {
                Ok(_) => {
                    // Auto-commit; a commit failure surfaces to the caller.
                    if self.in_txn() {
                        self.commit()?;
                    }
                }
                Err(_) => {
                    if self.in_txn() {
                        let _ = self.rollback();
                    }
                }
            }
        }
        result
    }

    // ------------------------------------------------------------- reads

    fn pick_read_machine(&self, txn: &mut ActiveTxn) -> Result<MachineId> {
        // Atomic placement + copy snapshot; reads need no routing barrier
        // (a stale pick still lands on a converged full replica).
        let (placement, copy) = self.controller.route_info(&self.db)?;
        let mut alive = self.controller.alive_of(&placement);
        // The copy target is not a full replica yet: never read from it.
        if let Some(copy) = copy {
            alive.retain(|&m| m != copy.target);
        }
        if alive.is_empty() {
            return Err(ClusterError::NoReplicas(self.db.clone()));
        }
        Ok(match self.controller.cfg.read_policy {
            ReadPolicy::PinnedReplica => {
                if alive.contains(&placement.pinned) {
                    placement.pinned
                } else {
                    alive[0]
                }
            }
            ReadPolicy::PerTransaction => {
                if let Some(pin) = txn.read_pin {
                    if !alive.contains(&pin) {
                        return Err(ClusterError::NoReplicas(self.db.clone()));
                    }
                    pin
                } else {
                    let pick = alive[self.rng.lock().gen_range(0..alive.len())];
                    txn.read_pin = Some(pick);
                    pick
                }
            }
            ReadPolicy::PerOperation => alive[self.rng.lock().gen_range(0..alive.len())],
        })
    }

    // ----------------------------------------------------------- dispatch

    fn ensure_session<'a>(
        &self,
        txn: &'a mut ActiveTxn,
        machine: MachineId,
    ) -> Result<&'a SessionHandle> {
        use std::collections::hash_map::Entry;
        match txn.sessions.entry(machine) {
            Entry::Occupied(e) => Ok(e.into_mut()),
            Entry::Vacant(e) => {
                let m = self.controller.machine(machine)?;
                let handle = m.session(
                    txn.gtxn,
                    Arc::clone(&txn.failures),
                    self.controller.recorder.read().clone(),
                    txn.reply_tx.clone(),
                );
                Ok(e.insert(handle))
            }
        }
    }

    fn run_stmt(
        &self,
        plan: &Arc<Plan>,
        class: StatementClass,
        params: Arc<[Value]>,
    ) -> Result<QueryResult> {
        // SELECT ... FOR UPDATE acquires exclusive locks, so it must execute
        // on *every* replica like a write — locking on a single replica
        // while writes fan out to all would manufacture distributed
        // deadlocks between the lock holder and its own write set.
        let result = if class == StatementClass::Read {
            self.run_read(plan, params)
        } else {
            self.run_write(plan, class == StatementClass::LockingRead, params)
        };
        if let Err(e) = &result {
            // A refusal counted as a deadlock or a rejection aborts the whole
            // distributed txn so the client can retry from a clean slate
            // (MySQL behaves the same on deadlock).
            if e.outcome() != Outcome::Aborted {
                self.abort_internal(e);
            }
        }
        result
    }

    /// Receive replies for request `seq`, discarding stale stragglers from
    /// earlier aggressive-mode writes, until `want` current replies arrived
    /// or `stop` says enough. With `want == 0` every current reply was
    /// produced on the calling thread, so whatever already sits in the
    /// channel is a straggler this call would have met while blocking:
    /// discard (and count) it without waiting.
    fn collect_replies(
        rx: &Arc<Mutex<Receiver<WorkerReply>>>,
        stragglers: &Counter,
        seq: u64,
        want: usize,
        mut stop: impl FnMut(&WorkerReply) -> bool,
    ) -> Vec<WorkerReply> {
        let rx = rx.lock();
        let mut out = Vec::with_capacity(want);
        if want == 0 {
            while rx.try_recv().is_ok() {
                stragglers.inc();
            }
        }
        while out.len() < want {
            tenantdb_lockdep::assert_may_block("a replica-reply recv");
            let Ok(reply) = rx.recv() else { break };
            if reply.seq != seq {
                // Straggler ack of an earlier request (aggressive-mode
                // background write): already accounted for via TxnFailures.
                stragglers.inc();
                continue;
            }
            let done = stop(&reply);
            out.push(reply);
            if done {
                break;
            }
        }
        out
    }

    /// Take the lane's turn for this thread, keeping `msg` to run once the
    /// connection lock is dropped; a busy lane gets `msg` queued instead.
    fn claim_or_send(session: &SessionHandle, msg: SessionMsg) -> Result<Option<Claimed>> {
        match session.try_turn() {
            Some(turn) => Ok(Some((turn, msg))),
            None => session.send(msg).map(|()| None),
        }
    }

    /// Run the claimed lanes one after another on this thread, then wait
    /// for the `pooled` replies of the lanes that were busy.
    fn run_claimed(
        &self,
        claimed: impl IntoIterator<Item = Claimed>,
        rx: &Arc<Mutex<Receiver<WorkerReply>>>,
        seq: u64,
        pooled: usize,
    ) -> Vec<WorkerReply> {
        let claimed = claimed.into_iter();
        let mut replies: Vec<WorkerReply> = Vec::with_capacity(claimed.size_hint().0 + pooled);
        replies.extend(claimed.filter_map(|(turn, msg)| turn.run(msg)));
        let stragglers = &self.controller.metrics().straggler_acks;
        replies.extend(Self::collect_replies(rx, stragglers, seq, pooled, |_| {
            false
        }));
        replies
    }

    fn run_read(&self, plan: &Arc<Plan>, params: Arc<[Value]>) -> Result<QueryResult> {
        let started = Instant::now();
        let metrics = self.controller.metrics();
        let mut st = self.state.lock();
        let txn = st.as_mut().ok_or(ClusterError::NoActiveTxn)?;
        let machine = self.pick_read_machine(txn)?;
        metrics.note_read_route(self.controller.cfg.read_policy, machine);
        let seq = txn.next_seq();
        let rx = Arc::clone(&txn.reply_rx);
        let session = self.ensure_session(txn, machine)?;
        let claimed = Self::claim_or_send(
            session,
            SessionMsg::Exec {
                seq,
                plan: Arc::clone(plan),
                params,
            },
        )?;
        drop(st); // don't hold the connection lock while the engine works
        let pooled = usize::from(claimed.is_none());
        let mut replies = self.run_claimed(claimed, &rx, seq, pooled);
        metrics.stmt_read_latency.observe_since(started);
        match replies.pop() {
            Some(r) => r.result,
            None => Err(ClusterError::from(StorageError::Unavailable)),
        }
    }

    /// Broadcast a write or a locking read to every replica.
    fn run_write(
        &self,
        plan: &Arc<Plan>,
        is_locking_read: bool,
        params: Arc<[Value]>,
    ) -> Result<QueryResult> {
        // Geo fence: a cluster that lost write authority to a promoted
        // standby colo accepts no writes. One relaxed load while unfenced.
        self.controller.check_geo_fence()?;
        let started = Instant::now();
        let metrics = self.controller.metrics();
        // The written table for DML, every referenced table for a locking
        // SELECT.
        let tables = plan.locked_tables();
        let table = tables
            .first()
            .ok_or_else(|| ClusterError::Sql(SqlError::Plan("not a DML statement".into())))?
            .clone();

        let mut st = self.state.lock();
        let txn = st.as_mut().ok_or(ClusterError::NoActiveTxn)?;

        // Algorithm 1: route around an in-flight replica copy. The copy
        // state is read atomically with the placement (`route_info`), and
        // the routing barrier's read side is held from here until the last
        // replica ack below, so the recovery path's `quiesce_routing` can
        // drain every statement routed with the old copy state before it
        // dumps a table (otherwise a write routed to the old replicas
        // alone could apply on the source *after* the dump's scan and be
        // permanently missing from the copy target).
        let _route = self.controller.route_guard();
        let (placement, copy) = self.controller.route_info(&self.db)?;
        let mut targets = self.controller.alive_of(&placement);
        if let Some(copy) = copy {
            targets.retain(|&m| m != copy.target);
            let rejected = (copy.db_level && !is_locking_read)
                || tables.iter().any(|t| copy.current.as_deref() == Some(t));
            if rejected {
                metrics.note_write_rejected(&self.db, &table);
                return Err(ClusterError::WriteRejected {
                    db: self.db.clone(),
                    table,
                });
            }
            // DML on an already-copied table also lands on the new replica.
            // Locking reads never target the copy (its data is incomplete).
            if !is_locking_read && copy.copied.contains(&table) {
                targets.push(copy.target);
            }
        }
        if targets.is_empty() {
            return Err(ClusterError::NoReplicas(self.db.clone()));
        }

        // Conservative waits for all replicas, and a single target leaves
        // nothing to run in the background: either way this thread would
        // block for every reply, so it takes the idle lanes' turns itself.
        // Aggressive fan-out returns on the first success and goes to the
        // pool whole.
        let wait_all =
            self.controller.cfg.write_policy == WritePolicy::Conservative || targets.len() == 1;
        let seq = txn.next_seq();
        let rx = Arc::clone(&txn.reply_rx);
        let mut claimed: Vec<Claimed> = Vec::new();
        let mut pooled = 0usize;
        for &m in &targets {
            let session = self.ensure_session(txn, m)?;
            let msg = SessionMsg::Exec {
                seq,
                plan: Arc::clone(plan),
                params: Arc::clone(&params),
            };
            let claim = if wait_all {
                Self::claim_or_send(session, msg)?
            } else {
                session.send(msg)?;
                None
            };
            match claim {
                Some(c) => claimed.push(c),
                None => pooled += 1,
            }
        }
        txn.wrote = true;
        drop(st);

        // Aggressive: return on the first success — the lagging replicas'
        // acks arrive as stragglers on this same channel and are discarded
        // by later requests, while any *failure* among them lands in the
        // shared TxnFailures ledger, which commit() refuses to overlook.
        // (Aggressive's early return also drops the routing barrier guard
        // while background replicas are still applying — a §3.1
        // durability/latency trade-off the copy quiescence deliberately
        // does not pay for.)
        let replies = if wait_all {
            self.run_claimed(claimed, &rx, seq, pooled)
        } else {
            Self::collect_replies(&rx, &metrics.straggler_acks, seq, pooled, |r| {
                r.result.is_ok()
            })
        };
        metrics.stmt_write_latency.observe_since(started);

        // Drop replicas that died; any other replica error is fatal for the
        // statement (a write that half-applied across replicas cannot be
        // allowed to commit).
        let (mut first_ok, mut fatal) = (None, None);
        for reply in replies {
            match reply.result {
                Ok(r) => first_ok = first_ok.or(Some(r)),
                Err(e) if e.refusal() == Some(Refusal::NoReplica) => {
                    self.controller.drop_failed_replica(&self.db, reply.machine)
                }
                Err(e) => fatal = fatal.or(Some(e)),
            }
        }
        match (fatal, first_ok) {
            (Some(e), _) => Err(e),
            (None, Some(r)) => Ok(r),
            (None, None) => Err(ClusterError::NoReplicas(self.db.clone())),
        }
    }

    // ------------------------------------------------------------ commit

    /// Commit the open transaction (2PC across replicas when it wrote).
    pub fn commit(&self) -> Result<()> {
        let commit_started = Instant::now();
        let metrics = self.controller.metrics();
        let Some(mut txn) = self.state.lock().take() else {
            return Err(ClusterError::NoActiveTxn);
        };

        // Aggressive background failures land in the ledger.
        if let Some(e) = self.settle_failures(&mut txn) {
            return self.refuse_commit(&mut txn, "replica write failed", &e);
        }
        if !txn.wrote || txn.sessions.is_empty() {
            // One-phase commit for read-only transactions (and none for
            // one that has no machine left).
            self.broadcast(&mut txn, |seq| SessionMsg::Commit { seq });
            self.note_outcome_commit(&txn);
            metrics
                .commit_latency_readonly
                .observe_since(commit_started);
            return Ok(());
        }

        // Geo fence: refuse to *decide* a writing transaction once this
        // cluster lost write authority — a commit here would never ship to
        // the promoted colo and the two sides would fork.
        if let Err(e) = self.controller.check_geo_fence() {
            self.finish_abort(&mut txn, e.outcome());
            return Err(e);
        }

        // Phase 1: PREPARE everywhere.
        let prepare_started = Instant::now();
        let votes = self.broadcast(&mut txn, |seq| SessionMsg::Prepare { seq });
        metrics.twopc_prepare_latency.observe_since(prepare_started);
        let mut yes: Vec<(MachineId, TxnId)> = Vec::new();
        let mut fatal: Option<ClusterError> = None;
        for (m, local, res) in votes {
            match res {
                Ok(_) => yes.push((m, local.unwrap_or(TxnId(0)))),
                Err(e) if e.refusal() == Some(Refusal::NoReplica) => {
                    // Participant died before voting: discard the replica.
                    self.controller.drop_failed_replica(&self.db, m);
                    txn.sessions.remove(&m);
                }
                Err(e) => {
                    if fatal.is_none() {
                        fatal = Some(e);
                    }
                }
            }
        }
        // Settle the ledger *again*: a background write that failed after
        // the first drain reports its error before its session answers the
        // PREPARE (session lanes are strictly ordered), so by now it is
        // visible.
        let late = self.settle_failures(&mut txn);
        if let Some(e) = fatal.or(late) {
            return self.refuse_commit(&mut txn, "replica write failed", &e);
        }
        yes.retain(|(m, _)| txn.sessions.contains_key(m));
        if yes.is_empty() {
            let e = ClusterError::NoReplicas(self.db.clone());
            self.finish_abort(&mut txn, e.outcome());
            return Err(e);
        }

        let gtxn = txn.gtxn;
        match twopc::coordinate(&mut Lanes(self, &mut txn), gtxn, yes) {
            Ok(()) => {
                self.note_outcome_commit(&txn);
                metrics.commit_latency_2pc.observe_since(commit_started);
                Ok(())
            }
            Err(e @ ClusterError::InDoubt(_)) => {
                // Recovery or a takeover resolves the participants once the
                // group heals.
                txn.detach();
                Err(e)
            }
            // The sessions already ended with the ABORT `coordinate` sent.
            Err(e) => self.refuse_commit(&mut txn, "no commit decision", &e),
        }
    }

    /// Drop the replicas the failure ledger reports dead, and return the
    /// first other failure: a commit may not overlook it.
    fn settle_failures(&self, txn: &mut ActiveTxn) -> Option<ClusterError> {
        let mut fatal = None;
        for (m, e) in txn.failures.drain() {
            if e.refusal() == Some(Refusal::NoReplica) {
                self.controller.drop_failed_replica(&self.db, m);
                txn.sessions.remove(&m);
            } else if fatal.is_none() {
                fatal = Some(e);
            }
        }
        fatal
    }

    /// Abort a commit `cause` stopped at `stage`: the tenant counts
    /// `cause`, the client gets an abort that keeps its refusal.
    fn refuse_commit(&self, txn: &mut ActiveTxn, stage: &str, cause: &ClusterError) -> Result<()> {
        self.finish_abort(txn, cause.outcome());
        Err(ClusterError::TxnAborted(Aborted {
            cause: cause.refusal(),
            message: format!("{stage}: {cause}"),
        }))
    }

    /// Roll back the open transaction.
    pub fn rollback(&self) -> Result<()> {
        let Some(mut txn) = self.state.lock().take() else {
            return Err(ClusterError::NoActiveTxn);
        };
        self.finish_abort(&mut txn, Outcome::Aborted);
        Ok(())
    }

    /// Abort after a fatal statement error, classifying the outcome.
    fn abort_internal(&self, cause: &ClusterError) {
        // Taken out in its own statement: the ABORTs below run on this
        // thread and must not hold the connection lock.
        let txn = self.state.lock().take();
        if let Some(mut txn) = txn {
            self.finish_abort(&mut txn, cause.outcome());
        }
    }

    fn finish_abort(&self, txn: &mut ActiveTxn, outcome: Outcome) {
        self.broadcast(txn, |seq| SessionMsg::Abort {
            seq,
            want_reply: true,
        });
        if let Some(rec) = self.controller.recorder.read().as_ref() {
            rec.abort(txn.gtxn);
        }
        self.controller.metrics().note_failed(&self.db, outcome);
    }

    fn note_outcome_commit(&self, txn: &ActiveTxn) {
        if let Some(rec) = self.controller.recorder.read().as_ref() {
            rec.commit(txn.gtxn);
        }
        self.controller.metrics().note_committed(&self.db);
    }

    /// Send a message to every live session and collect one reply each.
    fn broadcast(
        &self,
        txn: &mut ActiveTxn,
        make: impl Fn(u64) -> SessionMsg,
    ) -> Vec<(MachineId, Option<TxnId>, Result<QueryResult>)> {
        let seq = txn.next_seq();
        let mut claimed: Vec<Claimed> = Vec::new();
        let mut pooled = 0;
        for s in txn.sessions.values() {
            match Self::claim_or_send(s, make(seq)) {
                Ok(Some(c)) => claimed.push(c),
                Ok(None) => pooled += 1,
                // The session already finished: nothing to wait for.
                Err(_) => {}
            }
        }
        self.run_claimed(claimed, &txn.reply_rx, seq, pooled)
            .into_iter()
            .map(|r| (r.machine, r.local, r.result))
            .collect()
    }

    /// The current transaction's global id (tests and diagnostics).
    pub fn current_gtxn(&self) -> Option<GTxn> {
        self.state.lock().as_ref().map(|t| t.gtxn)
    }
}

/// `Connection::commit`'s executor for [`twopc::coordinate`]: proposals go
/// to the controller group, COMMIT and ABORT down the transaction's session
/// lanes.
struct Lanes<'a>(&'a Connection, &'a mut ActiveTxn);

impl twopc::Executor for Lanes<'_> {
    fn propose(&mut self, cmd: twopc::Command) -> twopc::Verdict {
        self.0.controller.controllers().propose(cmd)
    }

    fn commit(&mut self, participants: &[Participant]) -> Vec<Ack> {
        let conn = self.0;
        // The controller-side crash point: decided, no COMMIT sent yet. A
        // `Delay` widens the window in which the decision exists only in
        // the replicated log. A crash delivers nothing, so the coordinator's
        // `Resolve` settles no one, and the takeover finds them prepared.
        let faults = conn.controller.faults();
        match faults.check(CrashPoint::CommitDecision, CONTROLLER) {
            Some(FaultAction::Crash) => {
                self.1.detach();
                return vec![Ack::Down; participants.len()];
            }
            Some(FaultAction::Delay(d)) => std::thread::sleep(d),
            None => {}
        }
        let started = Instant::now();
        let acks = conn.broadcast(self.1, |seq| SessionMsg::Commit { seq });
        let metrics = conn.controller.metrics();
        metrics.twopc_commit_latency.observe_since(started);
        let ack = |&(m, _): &Participant| match acks.iter().find(|a| a.0 == m) {
            Some((_, _, Err(e))) if e.refusal() == Some(Refusal::NoReplica) => {
                // Died after voting yes: its replica is dropped here
                // (recovery copies a new one).
                conn.controller.drop_failed_replica(&conn.db, m);
                Ack::Down
            }
            Some((_, _, Err(_))) => Ack::Failed,
            _ => Ack::Committed,
        };
        participants.iter().map(ack).collect()
    }

    fn abort(&mut self, _: &[Participant]) {
        self.0.broadcast(self.1, |seq| SessionMsg::Abort {
            seq,
            want_reply: true,
        });
    }
}

impl Drop for Connection {
    fn drop(&mut self) {
        if self.in_txn() {
            let _ = self.rollback();
        }
    }
}
