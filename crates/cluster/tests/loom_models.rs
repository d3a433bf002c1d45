//! Exhaustive interleaving checks (via `tenantdb-loom`) for the three
//! protocols whose correctness is purely about ordering:
//!
//! 1. **Pool session-lane handoff** (`worker.rs` `enqueue`/`drain` over the
//!    product [`Lane`]): all messages a transaction sends to one machine
//!    execute in arrival order, exactly once, with a single drainer at a
//!    time — including when a `Detach` races ordinary sends.
//! 2. **Settling a 2PC decision** (`Connection::commit`'s phase 2 and abort
//!    arbitration, `ClusterController::{takeover, restart_machine}` over
//!    the product [`Decisions`]): a transaction whose decision reached the
//!    log commits at every participant, or stays recoverable at one that is
//!    down, whether the coordinator crashes before phase 2, takeover and a
//!    restart race its phase 2, a participant fails mid-takeover, or the
//!    coordinator's abort arbitration races a restart's claim.
//! 3. **The caller takes the lane's turn** (`worker.rs` `try_turn` /
//!    `Turn::run` / `Turn::drop`, on model 1's lane): the same guarantee
//!    when the drainer is the calling thread and sends — the cleanup
//!    `Abort` among them — arrive while it holds the slot.
//!
//! Models 1 and 3 drive the product's own [`Lane`] — the state machine the
//! replica sessions and the TCP server's request queues run — and model 2
//! the product's own [`Decisions`], each under a `tenantdb_loom` mutex
//! standing in for the ordered lockdep wrapper its owner keeps it under
//! (the checker cannot instrument those). Only the code around them is
//! the model's: a spawned thread for a pool job and the session's
//! execution step; the settlers' drivers and the participants' engines.
//! Each model has `*_model_has_teeth` tests that seed a historical bug
//! shape in that driver code to prove the checker would catch a
//! regression.

use tenantdb_cluster::meta::Decisions;
use tenantdb_cluster::pool::Lane;
use tenantdb_cluster::MachineId;
use tenantdb_history::GTxn;
use tenantdb_loom as loom;
use tenantdb_storage::TxnId;

/// CHESS-style bounded exploration: every schedule with at most two
/// preemptions. Unbounded DFS over these models (up to six threads once
/// drainers spawn) is intractable, and the empirical CHESS result is that
/// almost all real concurrency bugs need very few preemptions — the
/// `*_model_has_teeth` tests confirm their seeded bugs surface within this
/// bound.
fn bounded() -> loom::Builder {
    loom::Builder {
        preemption_bound: Some(2),
        ..Default::default()
    }
}

use loom::sync::atomic::{AtomicBool, Ordering};
use loom::sync::{Arc, Mutex};
use loom::thread::JoinHandle;

// ---------------------------------------------------------------------------
// Model 1: session-lane handoff
// ---------------------------------------------------------------------------

/// What `Session::mailbox` guards — the product lane — plus the model's
/// ground truth for the FIFO assertion: arrival order, recorded in the same
/// hold that queues (or lends the turn to) each message.
struct Mailbox {
    lane: Lane<u32>,
    arrivals: Vec<u32>,
}

/// Mirrors `worker::ExecState`, plus the order messages were executed in.
struct Exec {
    /// Set when the terminal message is processed; later messages are
    /// skipped.
    finished: bool,
    processed: Vec<u32>,
}

/// One replica session: the lane under its mailbox lock, the execution
/// state, and the drain loop a pool job runs (a parameter, so a teeth test
/// can seed a broken one).
struct Session {
    mailbox: Mutex<Mailbox>,
    exec: Mutex<Exec>,
    /// Single-drainer witness: set for the duration of one `process`.
    processing: AtomicBool,
    drain: fn(&Session),
}

const TERMINAL: u32 = 99;

impl Session {
    fn new(drain: fn(&Session)) -> Arc<Self> {
        Arc::new(Session {
            mailbox: Mutex::new(Mailbox {
                lane: Lane::default(),
                arrivals: Vec::new(),
            }),
            exec: Mutex::new(Exec {
                finished: false,
                processed: Vec::new(),
            }),
            processing: AtomicBool::new(false),
            drain,
        })
    }

    /// `pool.submit(PoolJob::Session(..))`, as a spawned thread: the pool's
    /// only relevant guarantee is that a submitted job eventually runs on
    /// *some* thread, which a spawned thread models while letting loom
    /// explore every handoff interleaving.
    fn start_drainer(self: &Arc<Self>) -> JoinHandle<()> {
        let s = Arc::clone(self);
        loom::thread::spawn(move || (s.drain)(&s))
    }

    /// `Session::enqueue`: push (and close on the terminal) in one hold;
    /// start the drainer the lane asks for.
    fn enqueue(self: &Arc<Self>, msg: u32) -> Result<Option<JoinHandle<()>>, ()> {
        let start = {
            let mut mb = self.mailbox.lock();
            let start = mb.lane.push(msg).map_err(drop)?;
            if msg == TERMINAL {
                mb.lane.close();
            }
            mb.arrivals.push(msg);
            start
        };
        Ok(start.then(|| self.start_drainer()))
    }

    /// `Session::drain`: batches until `take` finds the queue empty, which
    /// releases the drainer slot *in the same hold* — the step the FIFO
    /// invariant hinges on.
    fn drain(&self) {
        loop {
            let Some(batch) = self.mailbox.lock().lane.take() else {
                return;
            };
            for msg in batch {
                self.process(msg);
            }
        }
    }

    /// `Session::process`: whoever holds the drainer slot — a pool worker
    /// in `drain`, or the caller in `Turn::run` — executes one message.
    fn process(&self, msg: u32) {
        // ordering: Relaxed — loom is sequentially consistent; the flag only
        // witnesses that no two threads are ever in here at once.
        assert!(
            !self.processing.swap(true, Ordering::Relaxed),
            "two drainers"
        );
        let mut exec = self.exec.lock();
        if !exec.finished {
            exec.finished = msg == TERMINAL;
            exec.processed.push(msg);
        }
        drop(exec);
        // ordering: Relaxed — see above.
        self.processing.store(false, Ordering::Relaxed);
    }

    /// (arrivals, processed), read once the lane is quiescent.
    fn history(&self) -> (Vec<u32>, Vec<u32>) {
        let arrivals = self.mailbox.lock().arrivals.clone();
        (arrivals, self.exec.lock().processed.clone())
    }

    /// No drainer still owns the lane, and nothing is left in it.
    fn assert_released(&self) {
        assert!(self.mailbox.lock().lane.is_idle(), "drainer slot released");
    }

    /// `SessionHandle::try_turn`: claim the drainer slot of an idle lane
    /// for the calling thread. (The turn's message heads the lane from the
    /// moment the slot is claimed, so its arrival is recorded in this hold.
    /// The pool's `lends_turns` gate is a constant per pool and not
    /// modelled.)
    fn try_turn(&self, msg: u32) -> bool {
        let mut mb = self.mailbox.lock();
        let turn = mb.lane.try_turn();
        if turn {
            mb.arrivals.push(msg);
        }
        turn
    }
}

/// Two producers race their sends; every accepted message must be processed
/// exactly once, in mailbox arrival order, across however many drainer
/// handoffs the schedule produces.
#[test]
fn pool_lane_fifo_exactly_once() {
    bounded().check(|| {
        let session = Session::new(Session::drain);
        let l1 = Arc::clone(&session);
        let p1 = loom::thread::spawn(move || {
            let _ = l1.enqueue(1).expect("open").map(|h| h.join());
            let _ = l1.enqueue(2).expect("open").map(|h| h.join());
        });
        let l2 = Arc::clone(&session);
        let p2 = loom::thread::spawn(move || {
            let _ = l2.enqueue(10).expect("open").map(|h| h.join());
        });
        p1.join().expect("producer 1");
        p2.join().expect("producer 2");
        // Any drainer spawned by a producer finished before that producer's
        // join returned, so the lane is quiescent here.
        let (arrivals, processed) = session.history();
        assert_eq!(
            processed, arrivals,
            "every accepted message, exactly once, in arrival order"
        );
        session.assert_released();
    });
}

/// A `Detach` (terminal) races an ordinary send. Sends that lose the race
/// fail cleanly; everything accepted *before* the terminal in arrival order
/// is processed, nothing is processed after it.
#[test]
fn pool_lane_fifo_under_concurrent_detach() {
    bounded().check(|| {
        let session = Session::new(Session::drain);
        let l1 = Arc::clone(&session);
        let p1 = loom::thread::spawn(move || {
            let accepted = l1.enqueue(1).map(|h| h.map(|h| h.join())).is_ok();
            let second = l1.enqueue(2).map(|h| h.map(|h| h.join())).is_ok();
            (accepted, second)
        });
        let l2 = Arc::clone(&session);
        let p2 = loom::thread::spawn(move || {
            // The handle-drop path: detach() enqueues the terminal.
            l2.enqueue(TERMINAL).map(|h| h.map(|h| h.join())).is_ok()
        });
        let (first_ok, second_ok) = p1.join().expect("producer");
        let detach_ok = p2.join().expect("detacher");
        assert!(detach_ok, "the first terminal send always wins");

        let (arrivals, processed) = session.history();
        // Arrival order is truncated at the terminal: the drain loop must
        // process exactly the prefix up to and including TERMINAL.
        let cut = arrivals
            .iter()
            .position(|&m| m == TERMINAL)
            .expect("terminal arrived");
        assert_eq!(processed, arrivals[..=cut], "prefix up to the terminal");
        // Accepted sends are exactly the arrivals (a rejected send pushes
        // nothing); rejected sends arrive nowhere.
        let sent_ok = [(1, first_ok), (2, second_ok)];
        for (msg, ok) in sent_ok {
            assert_eq!(ok, arrivals.contains(&msg), "accept ⇔ arrived for {msg}");
        }
    });
}

/// Teeth check: a drainer that sees the queue empty in one hold and gives
/// the slot back in another, ignoring `release`'s answer (the obvious
/// refactor), loses messages — a producer can slip a message in between,
/// find the slot taken, and start no drainer; `release` then says one is
/// needed and nobody starts it. The checker must find that schedule.
#[test]
fn lane_model_has_teeth() {
    fn buggy_drain(s: &Session) {
        loop {
            let batch = {
                let mut mb = s.mailbox.lock();
                if mb.lane.is_empty() {
                    break;
                }
                mb.lane.take()
            };
            for msg in batch.into_iter().flatten() {
                s.process(msg);
            }
        }
        let _ = s.mailbox.lock().lane.release(); // BUG: answer ignored
    }
    let found = std::panic::catch_unwind(|| {
        bounded().check(|| {
            let session = Session::new(buggy_drain);
            let l1 = Arc::clone(&session);
            let p1 = loom::thread::spawn(move || {
                let h1 = l1.enqueue(1).expect("open");
                let h2 = l1.enqueue(2).expect("open");
                for h in [h1, h2].into_iter().flatten() {
                    h.join().expect("drainer");
                }
            });
            p1.join().expect("producer");
            let (arrivals, processed) = session.history();
            assert_eq!(processed, arrivals, "lost message");
        });
    });
    assert!(
        found.is_err(),
        "the checker must find the lost-message schedule in the buggy drain"
    );
}

// ---------------------------------------------------------------------------
// Model 3: the caller takes the lane's turn (same `Session` as model 1)
// ---------------------------------------------------------------------------

/// `Turn::run` followed by `Drop for Turn`: close the lane on a terminal,
/// run the message on this thread, then `release` the turn and start the
/// drainer it asks for — the hand-over for a message enqueued meanwhile.
fn run_turn(s: &Arc<Session>, msg: u32) -> Option<JoinHandle<()>> {
    if msg == TERMINAL {
        s.mailbox.lock().lane.close();
    }
    s.process(msg);
    let more = s.mailbox.lock().lane.release();
    more.then(|| s.start_drainer())
}

/// A statement's sender: take the lane's turn if it is idle, else queue
/// (refused — arriving nowhere — once the cleanup abort closed the lane).
/// Joins whatever drainer its own hand-over spawned.
fn caller(s: &Arc<Session>, msg: u32, run: fn(&Arc<Session>, u32) -> Option<JoinHandle<()>>) {
    let drainer = if s.try_turn(msg) {
        run(s, msg)
    } else {
        s.enqueue(msg).unwrap_or(None)
    };
    if let Some(h) = drainer {
        h.join().expect("drainer");
    }
}

/// The caller-turn race: one thread runs a statement on the lane's turn
/// while this one sends a second statement to the same lane (which the
/// caller's turn must neither overtake nor strand) and then drops the
/// handle, whose cleanup `Abort` — a plain enqueue of the terminal, see
/// `Drop for SessionHandle` — closes the lane. Returns the session once
/// every thread and every drainer it spawned has finished.
fn caller_turn_race(run: fn(&Arc<Session>, u32) -> Option<JoinHandle<()>>) -> Arc<Session> {
    let session = Session::new(Session::drain);
    let l1 = Arc::clone(&session);
    let p1 = loom::thread::spawn(move || caller(&l1, 1, run));
    // As in model 1, a sender joins the drainer its own send spawned
    // before it goes on.
    let _ = session.enqueue(10).expect("open").map(|h| h.join());
    let _ = session
        .enqueue(TERMINAL)
        .expect("first terminal wins")
        .map(|h| h.join());
    p1.join().expect("caller");
    session
}

/// Every accepted message is processed exactly once, in arrival order, by
/// one drainer at a time — whether the caller got the turn or found the
/// lane busy, and wherever the concurrent send and the cleanup abort land.
#[test]
fn caller_turn_fifo_exactly_once() {
    bounded().check(|| {
        let session = caller_turn_race(run_turn);
        let (arrivals, processed) = session.history();
        // A closed lane accepts no send and lends no turn.
        assert_eq!(arrivals.last(), Some(&TERMINAL), "nothing follows it");
        assert_eq!(
            processed, arrivals,
            "every accepted message, exactly once, in arrival order"
        );
        session.assert_released();
    });
}

/// Teeth check: a turn that ignores `release`'s answer strands the message
/// that was enqueued while the caller held it.
#[test]
fn caller_turn_model_has_teeth() {
    let found = std::panic::catch_unwind(|| {
        bounded().check(|| {
            let (arrivals, processed) = caller_turn_race(|s, msg| {
                s.process(msg);
                let _ = s.mailbox.lock().lane.release(); // BUG: answer ignored
                None
            })
            .history();
            assert_eq!(processed, arrivals, "stranded message");
        });
    });
    assert!(
        found.is_err(),
        "the checker must find the stranded-message schedule in the buggy release"
    );
}

// ---------------------------------------------------------------------------
// Model 2: the 2PC decision log vs. takeover, restart and machine failure
// ---------------------------------------------------------------------------

const G: GTxn = GTxn(7);
const M0: MachineId = MachineId(0);
/// The participant that fails (and restarts) in these models.
const M1: MachineId = MachineId(1);
const MACHINES: [MachineId; 2] = [M0, M1];

/// A participant's local transaction, prepared when the model starts.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Local {
    Prepared,
    Committed,
    Aborted,
}

/// One participant machine: its local transaction and whether it is down.
struct Participant {
    local: Mutex<Local>,
    failed: AtomicBool,
}

impl Participant {
    fn is_failed(&self) -> bool {
        // ordering: Relaxed — the loom scheduler is sequentially consistent
        // anyway; the flag mirrors `Engine::failed`'s gate role.
        self.failed.load(Ordering::Relaxed)
    }

    /// `Engine::commit`: a down machine refuses (`Unavailable`, which the
    /// coordinator reads as `Refusal::NoReplica`). An up one commits a
    /// prepared txn; an already-finished one answers with the error every
    /// caller ignores, modelled as `Ok` without a change.
    fn commit(&self) -> Result<(), ()> {
        if self.is_failed() {
            return Err(());
        }
        let mut local = self.local.lock();
        if *local == Local::Prepared {
            *local = Local::Committed;
        }
        Ok(())
    }

    /// `Engine::abort`, the coordinator's after a lost arbitration.
    fn abort(&self) {
        if !self.is_failed() {
            let mut local = self.local.lock();
            if *local == Local::Prepared {
                *local = Local::Aborted;
            }
        }
    }
}

/// The product decision log under a mutex standing in for the group's
/// `CTRL_META` lock (every replica lives under it, so one hold is one
/// proposal or one read of `ControllerGroup`), and the two participants.
struct TwoPc {
    decisions: Mutex<Decisions>,
    machines: [Participant; 2],
}

/// How the coordinator thread ended, mirroring `Connection::commit`'s exits.
#[derive(PartialEq, Debug)]
enum Coord {
    /// Crashed before the decision was logged: nothing to recover.
    NotDecided,
    /// Decision logged, coordinator crashed before phase 2
    /// (`CrashPoint::CommitDecision`): takeover or restart completes it.
    DecidedCrashed,
    /// Phase 2 ran; the client is acked.
    Committed,
    /// The abort arbitration won; the client sees an abort.
    Aborted,
}

impl TwoPc {
    /// Both participants prepared; `m1_down`: M1 died after voting yes.
    fn new(m1_down: bool) -> Arc<Self> {
        let p = |down| Participant {
            local: Mutex::new(Local::Prepared),
            failed: AtomicBool::new(down),
        };
        Arc::new(TwoPc {
            decisions: Mutex::new(Decisions::default()),
            machines: [p(false), p(m1_down)],
        })
    }

    fn at(&self, m: MachineId) -> &Participant {
        &self.machines[m.0 as usize]
    }

    /// `ControllerGroup::log_decision` of what `Connection::commit` logs.
    fn log(decisions: &mut Decisions) {
        decisions.log(G, vec![(M0, TxnId(10)), (M1, TxnId(11))]);
    }

    /// `Connection::commit` from the decision point. `crashed` is the
    /// coordinator failure flag; checking it inside the decision's lock
    /// hold models "a dead primary decides nothing".
    fn coordinator(&self, crashed: &AtomicBool) -> Coord {
        self.decide(crashed).unwrap_or_else(|| self.phase_two())
    }

    /// The decision point; `Some` when the coordinator crashed around it,
    /// `None` when phase 2 is next.
    fn decide(&self, crashed: &AtomicBool) -> Option<Coord> {
        {
            let mut d = self.decisions.lock();
            // ordering: Relaxed — loom is sequentially consistent; mirrors
            // the cooperative takeover handoff.
            if crashed.load(Ordering::Relaxed) {
                return Some(Coord::NotDecided);
            }
            Self::log(&mut d);
        }
        // ordering: Relaxed — see above.
        crashed
            .load(Ordering::Relaxed)
            .then_some(Coord::DecidedCrashed)
    }

    /// Phase 2: COMMIT every participant, then one `Resolve` of each whose
    /// COMMIT did not come back from a down machine.
    fn phase_two(&self) -> Coord {
        let settled: Vec<MachineId> = MACHINES
            .into_iter()
            .filter(|&m| self.at(m).commit().is_ok())
            .collect();
        self.decisions.lock().resolve(G, &settled);
        Coord::Committed
    }

    /// `Connection::commit` after an ambiguous `LogDecision` ack (the
    /// decision is in the log): arbitrate, then abort or run phase 2.
    fn arbitrate(&self) -> Coord {
        if !self.decisions.lock().abort(G) {
            return self.phase_two();
        }
        for m in MACHINES {
            self.at(m).abort();
        }
        Coord::Aborted
    }

    /// `ControllerGroup::decisions`, for the one transaction.
    fn open(&self) -> Vec<(MachineId, TxnId)> {
        let d = self.decisions.lock();
        d.get(G).map(<[_]>::to_vec).unwrap_or_default()
    }

    /// `ClusterController::settle`: claim, commit each participant, one
    /// `Resolve` of those settled.
    fn settle(&self, parts: Vec<(MachineId, TxnId)>, commit: impl Fn(MachineId) -> bool) {
        if parts.is_empty() || !self.decisions.lock().claim(G) {
            return;
        }
        let settled: Vec<MachineId> = parts
            .into_iter()
            .map(|(m, _)| m)
            .filter(|&m| commit(m))
            .collect();
        self.decisions.lock().resolve(G, &settled);
    }

    /// `ClusterController::takeover`'s decided-commit pass (its in-doubt
    /// abort pass needs the coordinators gone, which these races are not).
    fn takeover(&self) {
        self.settle(self.open(), |m| {
            self.at(m).commit().is_ok() || !self.at(m).is_failed()
        });
    }

    /// `ClusterController::restart_machine(M1)` of a down M1: commit its
    /// in-doubt txn from a decision that lists it, then replay aborts
    /// whatever is still prepared, and the machine is up.
    fn restart(&self) {
        let p = self.at(M1);
        if !p.is_failed() {
            return;
        }
        let mine = self.open().into_iter().filter(|&(m, _)| m == M1).collect();
        self.settle(mine, |_| {
            let mut local = p.local.lock();
            if *local == Local::Prepared {
                *local = Local::Committed;
            }
            true
        });
        let mut local = p.local.lock();
        if *local == Local::Prepared {
            *local = Local::Aborted;
        }
        // ordering: Relaxed — loom is sequentially consistent.
        p.failed.store(false, Ordering::Relaxed);
    }

    fn locals(&self) -> [Local; 2] {
        MACHINES.map(|m| *self.at(m).local.lock())
    }
}

/// Atomicity, checked when every thread is done: a decided transaction is
/// committed at each participant or still recoverable there (prepared, with
/// its entry in the log for the restart to commit); an undecided or
/// aborted one committed nowhere and left no decision behind.
fn check_atomic(sys: &TwoPc, outcome: &Coord) {
    let locals = sys.locals();
    let open = sys.open();
    match outcome {
        Coord::NotDecided | Coord::Aborted => {
            assert!(
                !locals.contains(&Local::Committed),
                "{outcome:?} txn committed at a participant: {locals:?}"
            );
            assert!(open.is_empty(), "ghost decision: {open:?}");
        }
        Coord::DecidedCrashed | Coord::Committed => {
            for (m, local) in MACHINES.into_iter().zip(locals) {
                let recoverable = local == Local::Prepared && open.iter().any(|&(pm, _)| pm == m);
                assert!(
                    local == Local::Committed || recoverable,
                    "decided txn lost at {m}: {local:?}, log {open:?}"
                );
            }
        }
    }
}

/// Then the sim's quiesce restarts M1 if it is down: every participant
/// ends with the outcome, and the decision log is empty.
fn check_settled(sys: &TwoPc, outcome: &Coord) {
    check_atomic(sys, outcome);
    sys.restart();
    let decided = matches!(outcome, Coord::DecidedCrashed | Coord::Committed);
    for local in sys.locals() {
        assert_eq!(local == Local::Committed, decided, "{outcome:?}: {local:?}");
    }
    assert!(sys.open().is_empty(), "unsettled: {:?}", sys.open());
}

/// A coordinator and a takeover (which declares it dead first) on `sys`,
/// with `coordinator` as the coordinator's driver, and a `fail_machine(M1)`
/// thread if `fail`.
fn race_takeover(
    sys: &Arc<TwoPc>,
    coordinator: fn(&TwoPc, &AtomicBool) -> Coord,
    fail: bool,
) -> Coord {
    let crashed = Arc::new(AtomicBool::new(false));
    let (s1, c1) = (Arc::clone(sys), Arc::clone(&crashed));
    let coord = loom::thread::spawn(move || coordinator(&s1, &c1));
    let (s2, c2) = (Arc::clone(sys), Arc::clone(&crashed));
    let backup = loom::thread::spawn(move || {
        // ordering: Relaxed — loom is sequentially consistent.
        c2.store(true, Ordering::Relaxed);
        s2.takeover();
    });
    let s3 = Arc::clone(sys);
    let failer = fail.then(|| {
        loom::thread::spawn(move || {
            // ordering: Relaxed — loom is sequentially consistent.
            s3.at(M1).failed.store(true, Ordering::Relaxed);
        })
    });
    let outcome = coord.join().expect("coordinator");
    backup.join().expect("backup");
    if let Some(f) = failer {
        f.join().expect("failer");
    }
    outcome
}

/// Takeover races the coordinator's own phase 2 (no machine failure):
/// whatever the interleaving, the decided txn commits everywhere and
/// double delivery is absorbed by engine idempotence.
#[test]
fn takeover_races_phase_two() {
    bounded().check(|| {
        let sys = TwoPc::new(false);
        let outcome = race_takeover(&sys, TwoPc::coordinator, false);
        check_settled(&sys, &outcome);
    });
}

/// The same race with `fail_machine(M1)` in the mix: a participant that
/// goes down keeps its entry while it is down, and its restart commits.
#[test]
fn takeover_races_phase_two_and_fail_machine() {
    bounded().check(|| {
        let sys = TwoPc::new(false);
        let outcome = race_takeover(&sys, TwoPc::coordinator, true);
        check_settled(&sys, &outcome);
    });
}

/// M1 died after voting yes and the decision is durable: the coordinator's
/// phase 2, M1's restart and a takeover all settle it at once.
#[test]
fn restart_races_phase_two_and_takeover() {
    bounded().check(|| {
        let sys = TwoPc::new(true);
        TwoPc::log(&mut sys.decisions.lock());
        let s1 = Arc::clone(&sys);
        let coord = loom::thread::spawn(move || s1.phase_two());
        let s2 = Arc::clone(&sys);
        let restart = loom::thread::spawn(move || s2.restart());
        let s3 = Arc::clone(&sys);
        let backup = loom::thread::spawn(move || s3.takeover());
        let outcome = coord.join().expect("coordinator");
        restart.join().expect("restart");
        backup.join().expect("backup");
        check_settled(&sys, &outcome);
    });
}

/// The coordinator's `LogDecision` ack was lost, so it arbitrates with
/// `abort` while the restart of M1 (down since voting yes) claims the same
/// decision: exactly one wins, and both participants follow it.
fn race_arbitration(arbitrate: fn(&TwoPc) -> Coord) {
    bounded().check(move || {
        let sys = TwoPc::new(true);
        TwoPc::log(&mut sys.decisions.lock());
        let s1 = Arc::clone(&sys);
        let coord = loom::thread::spawn(move || arbitrate(&s1));
        let s2 = Arc::clone(&sys);
        let restart = loom::thread::spawn(move || s2.restart());
        let outcome = coord.join().expect("coordinator");
        restart.join().expect("restart");
        check_settled(&sys, &outcome);
    });
}

#[test]
fn abort_arbitration_races_restart_claim() {
    race_arbitration(TwoPc::arbitrate);
}

/// Teeth check: the invariant the coordinator relies on is *resolve after
/// phase 2*. A coordinator that resolves before running phase 2 loses the
/// txn when it crashes in between — the checker must find that schedule.
#[test]
fn takeover_model_has_teeth() {
    fn resolve_first(sys: &TwoPc, crashed: &AtomicBool) -> Coord {
        {
            let mut d = sys.decisions.lock();
            // ordering: Relaxed — loom is sequentially consistent.
            if crashed.load(Ordering::Relaxed) {
                return Coord::NotDecided;
            }
            TwoPc::log(&mut d);
        }
        sys.decisions.lock().resolve(G, &MACHINES); // BUG: before phase 2
                                                    // ordering: Relaxed — see above.
        if crashed.load(Ordering::Relaxed) {
            return Coord::DecidedCrashed;
        }
        sys.phase_two()
    }
    let found = std::panic::catch_unwind(|| {
        bounded().check(|| {
            let sys = TwoPc::new(false);
            let outcome = race_takeover(&sys, resolve_first, false);
            check_settled(&sys, &outcome);
        });
    });
    assert!(
        found.is_err(),
        "the checker must find the decided-then-lost schedule in the buggy coordinator"
    );
}

/// Teeth check: the coordinator rule before this model drove the product.
/// Dropping the whole decision after phase 2, even when a participant's
/// COMMIT found its machine down, makes that participant's restart abort
/// what the other one committed — the checker must find that schedule.
#[test]
fn settle_rule_model_has_teeth() {
    fn resolve_all(sys: &TwoPc, crashed: &AtomicBool) -> Coord {
        sys.decide(crashed).unwrap_or_else(|| {
            for m in MACHINES {
                let _ = sys.at(m).commit();
            }
            sys.decisions.lock().resolve(G, &MACHINES); // BUG: down ones too
            Coord::Committed
        })
    }
    let found = std::panic::catch_unwind(|| {
        bounded().check(|| {
            let sys = TwoPc::new(false);
            let outcome = race_takeover(&sys, resolve_all, true);
            check_settled(&sys, &outcome);
        });
    });
    assert!(
        found.is_err(),
        "the checker must find the restart aborting a committed txn"
    );
}

/// Teeth check: a coordinator that aborts its participants after an
/// ambiguous ack without arbitrating lets M1's restart claim and commit the
/// same decision — the checker must find the split outcome.
#[test]
fn arbitration_model_has_teeth() {
    fn abort_unarbitrated(sys: &TwoPc) -> Coord {
        for m in MACHINES {
            sys.at(m).abort(); // BUG: no `abort(G)` through the log first
        }
        Coord::Aborted
    }
    let found = std::panic::catch_unwind(|| race_arbitration(abort_unarbitrated));
    assert!(
        found.is_err(),
        "the checker must find the restart committing what the coordinator aborted"
    );
}
