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
//! ## What a connection resolves once
//!
//! `connect` resolves the database's controller entry (`plans::DbEntry`); the
//! connection caches its last `route_info` answer with the replicas'
//! handles and read-route counters, and re-reads it only when the
//! controller's routing epoch moved. A dropped entry sends it back to the
//! name. Replica liveness is still read per statement.
//!
//! ## Reply plumbing
//!
//! An idle lane runs on the calling thread and its reply is a return
//! value; a busy lane gets the message queued, and its pool drain answers
//! on the reply channel of the transaction's [`TxnShared`], made only then.
//! Every request carries a sequence number the connection never reuses;
//! the receive side discards replies of any other — that is where
//! aggressive-mode straggler acks go to die. A finished transaction's
//! ledger, channel and session vector serve the next one once nothing else
//! holds them.
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

use std::sync::Arc;
use std::time::Instant;

use crate::sync::{Mutex, MutexGuard, CONN_STATE};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tenantdb_obs::Counter;

use tenantdb_history::GTxn;
use tenantdb_sql::{Plan, QueryResult, SqlError, StatementClass};
use tenantdb_storage::{StorageError, TxnId, Value};

use crate::controller::{ClusterController, CopyProgress, ReadPolicy, WritePolicy};
use crate::error::{Aborted, ClusterError, Outcome, Refusal, Result};
use crate::fault::{CrashPoint, FaultAction, CONTROLLER};
use crate::machine::{Machine, MachineId};
use crate::plans::DbEntry;
use crate::twopc::{self, Ack, Participant};
use crate::worker::{SessionHandle, SessionMsg, Turn, TxnShared, WorkerReply};

struct ActiveTxn {
    gtxn: GTxn,
    entry: Arc<DbEntry>,
    shared: Arc<TxnShared>,
    sessions: Vec<SessionHandle>,
    /// Replica chosen for this transaction's reads (Option 2).
    read_pin: Option<MachineId>,
    wrote: bool,
    /// Last sequence number minted (0 = none yet); carried on with the
    /// channel, so no reply of an earlier transaction is ever current.
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
        for s in self.sessions.drain(..) {
            s.detach();
        }
    }
}

/// Lane turns claimed under the connection lock and run once it is
/// dropped: a replica set's worth in place, any more spilled.
#[derive(Default)]
struct Turns {
    held: [Option<Turn>; 4],
    spill: Vec<Turn>,
}

impl Turns {
    fn push(&mut self, turn: Turn) {
        match self.held.iter_mut().find(|t| t.is_none()) {
            Some(slot) => *slot = Some(turn),
            None => self.spill.push(turn),
        }
    }

    fn all(self) -> impl Iterator<Item = Turn> {
        self.held.into_iter().flatten().chain(self.spill)
    }
}

/// One replica of a cached route.
struct Replica {
    machine: Arc<Machine>,
    reads: Arc<Counter>,
    /// Up and not the copy target (not a full replica yet), as of the
    /// statement's liveness snapshot.
    serving: bool,
}

/// The connection's last `route_info` answer and the routing epoch it was
/// read at (`None`: never read).
#[derive(Default)]
struct Route {
    epoch: Option<u64>,
    replicas: Vec<Replica>,
    pinned: Option<MachineId>,
    copy: Option<Box<CopyProgress>>,
    /// The copy target's machine, while a copy is in flight.
    target: Option<Arc<Machine>>,
}

impl Route {
    /// Take the liveness snapshot a whole statement routes by.
    fn snapshot(&mut self) {
        let target = self.copy.as_ref().map(|c| c.target);
        for r in &mut self.replicas {
            r.serving = !r.machine.is_failed() && Some(r.machine.id) != target;
        }
    }

    /// The serving replicas of the last snapshot, in placement order.
    fn serving(&self) -> impl Iterator<Item = &Replica> + Clone {
        self.replicas.iter().filter(|r| r.serving)
    }
}

struct ConnState {
    entry: Arc<DbEntry>,
    route: Route,
    txn: Option<ActiveTxn>,
    /// The last finished transaction, kept for its ledger, channel and
    /// session vector.
    spare: Option<ActiveTxn>,
    /// Per-connection deterministic read-routing randomness.
    rng: StdRng,
}

/// A client connection to one database, routed through the cluster
/// controller (the JDBC connection of §2).
pub struct Connection {
    controller: Arc<ClusterController>,
    db: String,
    state: Mutex<ConnState>,
}

impl Connection {
    pub(crate) fn new(controller: Arc<ClusterController>, entry: Arc<DbEntry>) -> Self {
        // Per-connection deterministic RNG stream.
        let seed =
            controller.cfg.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ controller.next_gtxn().0;
        let db = entry.name().to_string();
        let rng = StdRng::seed_from_u64(seed);
        let (route, txn, spare) = Default::default();
        let state = Mutex::new(
            &CONN_STATE,
            ConnState {
                entry,
                route,
                txn,
                spare,
                rng,
            },
        );
        Connection {
            controller,
            db,
            state,
        }
    }

    /// The database this connection serves.
    pub fn database(&self) -> &str {
        &self.db
    }

    /// True while an explicit transaction is open.
    pub fn in_txn(&self) -> bool {
        self.state.lock().txn.is_some()
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

    /// The connection's entry, looked up by name again once it was dropped
    /// (the database may have been re-created since, anywhere).
    fn entry<'a>(&self, st: &'a mut ConnState) -> Result<&'a Arc<DbEntry>> {
        if st.entry.dropped() {
            st.entry = self.controller.dbs.get(&self.db)?;
            st.route.epoch = None;
        }
        Ok(&st.entry)
    }

    /// Start an explicit transaction.
    pub fn begin(&self) -> Result<()> {
        let mut st = self.state.lock();
        self.entry(&mut st)?;
        self.begin_locked(&mut st)
    }

    fn begin_locked(&self, st: &mut ConnState) -> Result<()> {
        if st.txn.is_some() {
            return Err(ClusterError::aborted("BEGIN inside an open transaction"));
        }
        // §4 proactive rejection: every transaction — explicit, implicit, or
        // batch — enters through here, so this is the one admission point.
        // Free (one atomic load) when no SLA is installed; a shed tenant
        // never reaches routing, sessions, or worker pools.
        self.controller.admit(&st.entry)?;
        st.entry.counters(self.controller.metrics()).begun();
        let (gtxn, entry) = (self.controller.next_gtxn(), Arc::clone(&st.entry));
        let spare = st.spare.take().map(|t| (t.shared, t.sessions, t.seq));
        let (shared, sessions, seq) = spare.unwrap_or_default();
        st.txn = Some(ActiveTxn {
            gtxn,
            entry,
            shared,
            sessions,
            read_pin: None,
            wrote: false,
            seq,
        });
        Ok(())
    }

    /// What `sql` would do to this connection's database — the
    /// classification a serving tier schedules a request by. Answered from
    /// the database's plan cache (the statement is bound now if it is not
    /// there yet, so [`Connection::execute`] finds it).
    pub fn statement_class(&self, sql: &str) -> Result<StatementClass> {
        let mut st = self.state.lock();
        Ok(self.controller.plan_for(self.entry(&mut st)?, sql)?.class())
    }

    /// Execute one SQL statement — the one statement entry point. Outside
    /// an explicit transaction the statement runs in its own auto-committed
    /// transaction. The SQL text is looked up in the database's plan cache;
    /// only a text not seen since the database's last DDL is parsed and
    /// bound.
    pub fn execute(&self, sql: &str, params: &[Value]) -> Result<QueryResult> {
        let mut st = self.state.lock();
        let plan = self.controller.plan_for(self.entry(&mut st)?, sql)?;
        let class = plan.class();
        // DDL bypasses transactions entirely (engine DDL is auto-committed).
        if class == StatementClass::Ddl {
            if st.txn.is_some() {
                return Err(ClusterError::Sql(SqlError::Plan(
                    "DDL not allowed inside a transaction".into(),
                )));
            }
            let entry = Arc::clone(&st.entry);
            drop(st);
            self.controller.apply_ddl(&entry, &plan)?;
            return Ok(QueryResult::default());
        }
        let implicit = st.txn.is_none();
        if implicit {
            self.begin_locked(&mut st)?;
        }
        let result = self.run_stmt(st, &plan, class, params);
        if implicit {
            // Auto-commit; a commit failure surfaces to the caller.
            match &result {
                Ok(_) => self.commit()?,
                Err(_) => _ = self.rollback(),
            }
        }
        result
    }

    // ------------------------------------------------------------ routing

    /// The cached route with a fresh liveness snapshot, re-read under the
    /// controller group only when the routing epoch moved since it was
    /// read.
    fn route<'a>(&self, entry: &DbEntry, route: &'a mut Route) -> Result<&'a Route> {
        let epoch = self.controller.dbs.epoch();
        if route.epoch != Some(epoch) {
            // Read after the epoch: a bump landing in between makes the
            // next statement read again, never the other way round.
            let (placement, copy) = self.controller.route_info(entry.name())?;
            let (metrics, policy) = (self.controller.metrics(), self.controller.cfg.read_policy);
            route.replicas.clear();
            route.replicas.reserve_exact(placement.replicas.len());
            for &id in &placement.replicas {
                if let Ok(machine) = self.controller.machine(id) {
                    let reads = metrics.read_route(policy, id);
                    route.replicas.push(Replica {
                        machine,
                        reads,
                        serving: false,
                    });
                }
            }
            route.target = copy
                .as_ref()
                .and_then(|c| self.controller.machine(c.target).ok());
            (route.pinned, route.copy) = (Some(placement.pinned), copy.map(Box::new));
            route.epoch = Some(epoch);
        }
        route.snapshot();
        Ok(route)
    }

    // ------------------------------------------------------------- reads

    fn pick_read_replica<'a>(
        &self,
        route: &'a Route,
        txn: &mut ActiveTxn,
        rng: &mut StdRng,
    ) -> Result<&'a Replica> {
        // Reads need no routing barrier: a stale pick still lands on a
        // converged full replica.
        let n = route.serving().count();
        let no_replicas = || ClusterError::NoReplicas(self.db.clone());
        let nth = |k| route.serving().nth(k).ok_or_else(no_replicas);
        let find = |id| route.serving().find(|r| r.machine.id == id);
        if n == 0 {
            return Err(no_replicas());
        }
        match self.controller.cfg.read_policy {
            ReadPolicy::PinnedReplica => route.pinned.and_then(find).map_or_else(|| nth(0), Ok),
            ReadPolicy::PerTransaction => match txn.read_pin {
                Some(pin) => find(pin).ok_or_else(no_replicas),
                None => {
                    let pick = nth(rng.gen_range(0..n))?;
                    txn.read_pin = Some(pick.machine.id);
                    Ok(pick)
                }
            },
            ReadPolicy::PerOperation => nth(rng.gen_range(0..n)),
        }
    }

    // ----------------------------------------------------------- dispatch

    fn ensure_session<'a>(&self, txn: &'a mut ActiveTxn, m: &Machine) -> &'a SessionHandle {
        let i = match txn.sessions.iter().position(|s| s.machine() == m.id) {
            Some(i) => i,
            None => {
                let shared = Arc::clone(&txn.shared);
                let session = m.session(txn.gtxn, shared, self.controller.recorder());
                txn.sessions.push(session);
                txn.sessions.len() - 1
            }
        };
        &txn.sessions[i]
    }

    fn run_stmt(
        &self,
        st: MutexGuard<'_, ConnState>,
        plan: &Arc<Plan>,
        class: StatementClass,
        params: &[Value],
    ) -> Result<QueryResult> {
        // SELECT ... FOR UPDATE acquires exclusive locks, so it must execute
        // on *every* replica like a write — locking on a single replica
        // while writes fan out to all would manufacture distributed
        // deadlocks between the lock holder and its own write set.
        let result = if class == StatementClass::Read {
            self.run_read(st, plan, params)
        } else {
            self.run_write(st, plan, class == StatementClass::LockingRead, params)
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
    /// earlier aggressive-mode writes, and hand each current one to `each`
    /// until `want` arrived or `each` says enough. With `want == 0` every
    /// current reply was produced on the calling thread, so whatever
    /// already sits in the channel is a straggler this call would have met
    /// while blocking: discard (and count) it without waiting.
    fn collect_replies(
        &self,
        shared: &TxnShared,
        seq: u64,
        want: usize,
        mut each: impl FnMut(WorkerReply) -> bool,
    ) {
        let stragglers = &self.controller.metrics().straggler_acks;
        // Without a channel nothing can have straggled into one.
        let Some(rx) = (want > 0)
            .then(|| shared.replies())
            .or(shared.made_replies())
        else {
            return;
        };
        let rx = rx.lock();
        if want == 0 {
            while rx.try_recv().is_ok() {
                stragglers.inc();
            }
        }
        let mut got = 0;
        while got < want {
            tenantdb_lockdep::assert_may_block("a replica-reply recv");
            let Ok(reply) = rx.recv() else { break };
            if reply.seq != seq {
                // Straggler ack of an earlier request (aggressive-mode
                // background write): any failure is in the ledger already.
                stragglers.inc();
                continue;
            }
            got += 1;
            if each(reply) {
                break;
            }
        }
    }

    /// Send statement `seq` to the session on each of `targets`: when the
    /// caller waits for every reply anyway (`wait_all`) an idle lane's turn
    /// is claimed for this thread, any other lane gets the statement
    /// queued. Returns the claimed turns and how many replies are pooled.
    fn fan_out<'m>(
        &self,
        txn: &mut ActiveTxn,
        targets: impl Iterator<Item = &'m Arc<Machine>>,
        wait_all: bool,
        (seq, plan, params): (u64, &Arc<Plan>, &[Value]),
    ) -> Result<(Turns, usize)> {
        let (mut turns, mut pooled) = (Turns::default(), 0);
        let mut queued: Option<Arc<[Value]>> = None;
        for m in targets {
            let session = self.ensure_session(txn, m);
            if let Some(turn) = wait_all.then(|| session.try_turn()).flatten() {
                turns.push(turn);
                continue;
            }
            let params = Arc::clone(queued.get_or_insert_with(|| params.into()));
            let plan = Arc::clone(plan);
            session.send(SessionMsg::Exec { seq, plan, params })?;
            pooled += 1;
        }
        Ok((turns, pooled))
    }

    /// Run the claimed turns with the caller's parameters, then wait for
    /// the pooled replies, handing each reply to `each` (see
    /// [`Self::collect_replies`]).
    fn gather(
        &self,
        shared: &TxnShared,
        (turns, pooled): (Turns, usize),
        (seq, plan, params): (u64, &Arc<Plan>, &[Value]),
        mut each: impl FnMut(WorkerReply) -> bool,
    ) {
        for turn in turns.all() {
            if let Some(reply) = turn.exec(seq, plan, params) {
                each(reply);
            }
        }
        self.collect_replies(shared, seq, pooled, each);
    }

    fn run_read(
        &self,
        mut st: MutexGuard<'_, ConnState>,
        plan: &Arc<Plan>,
        params: &[Value],
    ) -> Result<QueryResult> {
        let started = Instant::now();
        let ConnState {
            entry,
            route,
            txn,
            rng,
            ..
        } = &mut *st;
        let txn = txn.as_mut().ok_or(ClusterError::NoActiveTxn)?;
        let route = self.route(entry, route)?;
        let replica = self.pick_read_replica(route, txn, rng)?;
        replica.reads.inc();
        let stmt = (txn.next_seq(), plan, params);
        let sent = self.fan_out(txn, std::iter::once(&replica.machine), true, stmt)?;
        let shared = Arc::clone(&txn.shared);
        drop(st); // don't hold the connection lock while the engine works
        let mut reply = None;
        self.gather(&shared, sent, stmt, |r| reply.insert(r).result.is_ok());
        let metrics = self.controller.metrics();
        metrics.stmt_read_latency.observe_since(started);
        match reply {
            Some(r) => r.result,
            None => Err(ClusterError::from(StorageError::Unavailable)),
        }
    }

    /// Broadcast a write or a locking read to every replica.
    fn run_write(
        &self,
        mut st: MutexGuard<'_, ConnState>,
        plan: &Arc<Plan>,
        is_locking_read: bool,
        params: &[Value],
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
            .ok_or_else(|| ClusterError::Sql(SqlError::Plan("not a DML statement".into())))?;
        let ConnState {
            entry, route, txn, ..
        } = &mut *st;
        let txn = txn.as_mut().ok_or(ClusterError::NoActiveTxn)?;

        // Algorithm 1: route around an in-flight replica copy. The routing
        // barrier's read side is held from here until the last replica ack
        // below, so the recovery path's `quiesce_routing` can drain every
        // statement routed with the old copy state before it dumps a table
        // (otherwise a write routed to the old replicas alone could apply
        // on the source *after* the dump's scan and be permanently missing
        // from the copy target).
        let _route = self.controller.route_guard();
        // ordering: the routing epoch is loaded after entering the guard
        // (whose generation load is SeqCst). A copy-state change bumps the
        // epoch before `quiesce_routing` flips the generation, so a write
        // whose guard entered after the flip sees the bump and re-reads the
        // route; one that entered before it is waited out by the quiesce.
        let route = self.route(entry, route)?;
        let mut copy_target = None;
        if let Some(copy) = &route.copy {
            let rejected = (copy.db_level && !is_locking_read)
                || tables.iter().any(|t| copy.current.as_ref() == Some(t));
            if rejected {
                metrics.write_rejected(entry.counters(metrics), &self.db, table);
                return Err(ClusterError::WriteRejected {
                    db: self.db.clone(),
                    table: table.clone(),
                });
            }
            // DML on an already-copied table also lands on the new replica.
            // Locking reads never target the copy (its data is incomplete).
            if !is_locking_read && copy.copied.contains(table) {
                copy_target = Some(route.target.as_ref().ok_or(ClusterError::NoMachines)?);
            }
        }
        let targets = || route.serving().map(|r| &r.machine).chain(copy_target);
        let n = targets().count();
        if n == 0 {
            return Err(ClusterError::NoReplicas(self.db.clone()));
        }

        // Conservative waits for all replicas, and a single target leaves
        // nothing to run in the background: either way this thread would
        // block for every reply, so it takes the idle lanes' turns itself.
        // Aggressive fan-out returns on the first success and goes to the
        // pool whole.
        let wait_all = self.controller.cfg.write_policy == WritePolicy::Conservative || n == 1;
        let stmt = (txn.next_seq(), plan, params);
        let sent = self.fan_out(txn, targets(), wait_all, stmt)?;
        txn.wrote = true;
        let shared = Arc::clone(&txn.shared);
        drop(st);

        // Aggressive: return on the first success — the lagging replicas'
        // acks arrive as stragglers on this same channel and are discarded
        // by later requests, while any *failure* among them lands in the
        // transaction's failure ledger, which commit() refuses to overlook.
        // (Aggressive's early return also drops the routing barrier guard
        // while background replicas are still applying — a §3.1
        // durability/latency trade-off the copy quiescence deliberately
        // does not pay for.)
        //
        // Drop replicas that died; any other replica error is fatal for the
        // statement (a write that half-applied across replicas cannot be
        // allowed to commit).
        let (mut first_ok, mut fatal) = (None, None);
        self.gather(&shared, sent, stmt, |reply| {
            match reply.result {
                Ok(r) => _ = first_ok.get_or_insert(r),
                Err(e) if e.refusal() == Some(Refusal::NoReplica) => {
                    self.controller.drop_failed_replica(&self.db, reply.machine)
                }
                Err(e) => _ = fatal.get_or_insert(e),
            }
            !wait_all && first_ok.is_some()
        });
        metrics.stmt_write_latency.observe_since(started);
        match (fatal, first_ok) {
            (Some(e), _) => Err(e),
            (None, Some(r)) => Ok(r),
            (None, None) => Err(ClusterError::NoReplicas(self.db.clone())),
        }
    }

    // ------------------------------------------------------------ commit

    /// Commit the open transaction (2PC across replicas when it wrote).
    pub fn commit(&self) -> Result<()> {
        let Some(mut txn) = self.state.lock().txn.take() else {
            return Err(ClusterError::NoActiveTxn);
        };
        let result = self.commit_txn(&mut txn);
        self.retire(txn);
        result
    }

    fn commit_txn(&self, txn: &mut ActiveTxn) -> Result<()> {
        let commit_started = Instant::now();
        let metrics = self.controller.metrics();
        // Aggressive background failures land in the ledger.
        if let Some(e) = self.settle_failures(txn) {
            return self.refuse_commit(txn, "replica write failed", &e);
        }
        if !txn.wrote || txn.sessions.is_empty() {
            // One-phase commit for read-only transactions (and none for
            // one that has no machine left).
            self.broadcast(txn, |seq| SessionMsg::Commit { seq }, |_| {});
            self.note_outcome_commit(txn);
            metrics
                .commit_latency_readonly
                .observe_since(commit_started);
            return Ok(());
        }

        // Geo fence: refuse to *decide* a writing transaction once this
        // cluster lost write authority — a commit here would never ship to
        // the promoted colo and the two sides would fork.
        if let Err(e) = self.controller.check_geo_fence() {
            self.finish_abort(txn, e.outcome());
            return Err(e);
        }

        // Phase 1: PREPARE everywhere.
        let prepare_started = Instant::now();
        let mut votes = Vec::new();
        self.broadcast(txn, |seq| SessionMsg::Prepare { seq }, |r| votes.push(r));
        metrics.twopc_prepare_latency.observe_since(prepare_started);
        let mut yes: Vec<(MachineId, TxnId)> = Vec::new();
        let mut fatal: Option<ClusterError> = None;
        for r in votes {
            match r.result {
                Ok(_) => yes.push((r.machine, r.local.unwrap_or(TxnId(0)))),
                Err(e) if e.refusal() == Some(Refusal::NoReplica) => {
                    // Participant died before voting: discard the replica.
                    self.controller.drop_failed_replica(&self.db, r.machine);
                    txn.sessions.retain(|s| s.machine() != r.machine);
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
        let late = self.settle_failures(txn);
        if let Some(e) = fatal.or(late) {
            return self.refuse_commit(txn, "replica write failed", &e);
        }
        yes.retain(|(m, _)| txn.sessions.iter().any(|s| s.machine() == *m));
        if yes.is_empty() {
            let e = ClusterError::NoReplicas(self.db.clone());
            self.finish_abort(txn, e.outcome());
            return Err(e);
        }

        let gtxn = txn.gtxn;
        match twopc::coordinate(&mut Lanes(self, txn), gtxn, yes) {
            Ok(()) => {
                self.note_outcome_commit(txn);
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
            Err(e) => self.refuse_commit(txn, "no commit decision", &e),
        }
    }

    /// Keep a finished transaction's ledger, channel and session vector
    /// for the connection's next one, once nothing else holds them.
    fn retire(&self, mut txn: ActiveTxn) {
        // A finished lane refuses its handle's cleanup abort.
        txn.sessions.clear();
        if Arc::strong_count(&txn.shared) > 1 {
            return; // a pool job still runs one of its lanes
        }
        txn.shared.drain();
        if let Some(rx) = txn.shared.made_replies() {
            while rx.lock().try_recv().is_ok() {}
        }
        self.state.lock().spare = Some(txn);
    }

    /// Drop the replicas the failure ledger reports dead, and return the
    /// first other failure: a commit may not overlook it.
    fn settle_failures(&self, txn: &mut ActiveTxn) -> Option<ClusterError> {
        let mut fatal = None;
        for (m, e) in txn.shared.drain() {
            if e.refusal() == Some(Refusal::NoReplica) {
                self.controller.drop_failed_replica(&self.db, m);
                txn.sessions.retain(|s| s.machine() != m);
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
        let Some(mut txn) = self.state.lock().txn.take() else {
            return Err(ClusterError::NoActiveTxn);
        };
        self.finish_abort(&mut txn, Outcome::Aborted);
        self.retire(txn);
        Ok(())
    }

    /// Abort after a fatal statement error, classifying the outcome.
    fn abort_internal(&self, cause: &ClusterError) {
        // Taken out in its own statement: the ABORTs below run on this
        // thread and must not hold the connection lock.
        let txn = self.state.lock().txn.take();
        if let Some(mut txn) = txn {
            self.finish_abort(&mut txn, cause.outcome());
            self.retire(txn);
        }
    }

    fn finish_abort(&self, txn: &mut ActiveTxn, outcome: Outcome) {
        let abort = |seq| SessionMsg::Abort {
            seq,
            want_reply: true,
        };
        self.broadcast(txn, abort, |_| {});
        if let Some(rec) = self.controller.recorder() {
            rec.abort(txn.gtxn);
        }
        txn.entry
            .counters(self.controller.metrics())
            .failed(outcome);
    }

    fn note_outcome_commit(&self, txn: &ActiveTxn) {
        if let Some(rec) = self.controller.recorder() {
            rec.commit(txn.gtxn);
        }
        txn.entry.counters(self.controller.metrics()).committed();
    }

    /// Send a message to every live session, running the idle lanes on
    /// this thread once every busy one has its message, and hand each
    /// reply to `each`.
    fn broadcast(
        &self,
        txn: &mut ActiveTxn,
        make: impl Fn(u64) -> SessionMsg,
        mut each: impl FnMut(WorkerReply),
    ) {
        let seq = txn.next_seq();
        let (mut turns, mut pooled) = (Turns::default(), 0);
        for s in &txn.sessions {
            match s.try_turn() {
                Some(turn) => turns.push(turn),
                // A finished session refuses: nothing to wait for.
                None => pooled += usize::from(s.send(make(seq)).is_ok()),
            }
        }
        for turn in turns.all() {
            if let Some(reply) = turn.run(make(seq)) {
                each(reply);
            }
        }
        self.collect_replies(&txn.shared, seq, pooled, |r| {
            each(r);
            false
        });
    }

    /// The current transaction's global id (tests and diagnostics).
    pub fn current_gtxn(&self) -> Option<GTxn> {
        self.state.lock().txn.as_ref().map(|t| t.gtxn)
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
        let mut acks = Vec::new();
        conn.broadcast(self.1, |seq| SessionMsg::Commit { seq }, |r| acks.push(r));
        let metrics = conn.controller.metrics();
        metrics.twopc_commit_latency.observe_since(started);
        let ack = |&(m, _): &Participant| match acks.iter().find(|a| a.machine == m) {
            Some(WorkerReply { result: Err(e), .. }) if e.refusal() == Some(Refusal::NoReplica) => {
                // Died after voting yes: its replica is dropped here
                // (recovery copies a new one).
                conn.controller.drop_failed_replica(&conn.db, m);
                Ack::Down
            }
            Some(WorkerReply { result: Err(_), .. }) => Ack::Failed,
            _ => Ack::Committed,
        };
        participants.iter().map(ack).collect()
    }

    fn abort(&mut self, _: &[Participant]) {
        let abort = |seq| SessionMsg::Abort {
            seq,
            want_reply: true,
        };
        self.0.broadcast(self.1, abort, |_| {});
    }
}

impl Drop for Connection {
    fn drop(&mut self) {
        if self.in_txn() {
            let _ = self.rollback();
        }
    }
}
