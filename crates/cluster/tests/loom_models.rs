//! Exhaustive interleaving checks (via `tenantdb-loom`) for the three
//! protocols whose correctness is purely about ordering:
//!
//! 1. **Pool session-lane handoff** (`worker.rs` `enqueue`/`drain` over the
//!    product [`Lane`]): all messages a transaction sends to one machine
//!    execute in arrival order, exactly once, with a single drainer at a
//!    time — including when a `Detach` races ordinary sends.
//! 2. **Takeover vs. crashes** (`connection.rs` decision logging +
//!    `ClusterController::takeover`): a 2PC transaction whose decision
//!    reached the replicated log is never lost, whether the coordinator
//!    crashes before phase 2, takeover races the coordinator's own phase 2,
//!    or a participant machine fails mid-takeover.
//! 3. **The caller takes the lane's turn** (`worker.rs` `try_turn` /
//!    `Turn::run` / `Turn::drop`, on model 1's lane): the same guarantee
//!    when the drainer is the calling thread and sends — the cleanup
//!    `Abort` among them — arrive while it holds the slot.
//!
//! Models 1 and 3 drive the product's own [`Lane`] — the state machine the
//! replica sessions and the TCP server's request queues run — under a
//! `tenantdb_loom` mutex standing in for the ordered lockdep wrapper its
//! owners keep it under (the checker cannot instrument those). Only the
//! code around it is the model's: a spawned thread for a pool job, and
//! the session's execution step. Model 2 still re-states its protocol over
//! `tenantdb_loom` primitives, mirroring the cited functions line by line.
//! Each model has a `*_model_has_teeth` test that seeds the historical bug
//! shape in that code to prove the checker would catch a regression.

use tenantdb_cluster::pool::Lane;
use tenantdb_loom as loom;

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
// Model 2: 2PC decision log vs. takeover vs. machine failure
// ---------------------------------------------------------------------------

/// One participant machine: a prepared local txn either commits once or
/// stays prepared. `fail_machine` flips `failed`; commits then error, like
/// `Engine::check_up`.
struct Participant {
    state: Mutex<PState>,
    failed: AtomicBool,
}

#[derive(Clone, Copy, PartialEq, Debug)]
enum PState {
    Prepared,
    Committed,
}

impl Participant {
    /// `Engine::commit`: idempotent from the coordinator's point of view —
    /// an already-committed txn reports success (the real engine reports an
    /// "already finished" error that both callers ignore), a failed machine
    /// reports `Unavailable`.
    fn commit(&self) -> Result<(), ()> {
        // ordering: Relaxed — the loom scheduler is sequentially consistent
        // anyway; the flag mirrors `Engine::failed`'s gate role.
        if self.failed.load(Ordering::Relaxed) {
            return Err(());
        }
        let mut st = self.state.lock();
        *st = PState::Committed;
        Ok(())
    }
}

struct TwoPc {
    /// `ClusterController::commit_log`, reduced to one decision slot.
    log: Mutex<Option<u64>>,
    participant: Participant,
}

const GTXN: u64 = 7;

/// Outcome of the coordinator thread, mirroring `Connection::commit`'s
/// three exits.
#[derive(PartialEq, Debug)]
enum Coord {
    /// Crashed before the decision was logged: the client saw a failure,
    /// nothing to recover.
    NotDecided,
    /// Decision logged, coordinator crashed before phase 2
    /// (`CrashAfterDecision`): takeover or restart must complete it.
    DecidedCrashed,
    /// Phase 2 ran; on participant failure the decision stays logged for
    /// restart recovery, otherwise it is removed.
    Applied,
}

impl TwoPc {
    fn new() -> Arc<Self> {
        Arc::new(TwoPc {
            log: Mutex::new(None),
            participant: Participant {
                state: Mutex::new(PState::Prepared),
                failed: AtomicBool::new(false),
            },
        })
    }

    /// The coordinator: decision point → (maybe crash) → phase 2 → log GC.
    /// `crashed` is the coordinator failure flag; checking it inside the
    /// decision lock hold models "a dead primary decides nothing".
    fn coordinator(&self, crashed: &AtomicBool) -> Coord {
        {
            let mut log = self.log.lock();
            // ordering: Relaxed — loom is sequentially consistent; mirrors
            // the cooperative takeover handoff.
            if crashed.load(Ordering::Relaxed) {
                return Coord::NotDecided;
            }
            *log = Some(GTXN);
        }
        // ordering: Relaxed — see above.
        if crashed.load(Ordering::Relaxed) {
            return Coord::DecidedCrashed;
        }
        // Phase 2. A participant failure leaves the decision in the log
        // (connection.rs removes the replica but keeps the decision until
        // the participant's restart resolves it).
        if self.participant.commit().is_err() {
            return Coord::Applied;
        }
        *self.log.lock() = None;
        Coord::Applied
    }

    /// `ClusterController::takeover` step 1: drain the decision log, complete
    /// decided commits, retain decisions whose participant is down.
    fn takeover(&self) {
        let decided = self.log.lock().take();
        if let Some(gtxn) = decided {
            if self.participant.commit().is_err() {
                // Participant down: the decision must survive for restart
                // recovery (the entry stays unresolved in `takeover`).
                *self.log.lock() = Some(gtxn);
            }
        }
    }
}

/// The never-lost invariant, checked when all threads are done: a decided
/// transaction is either applied at the participant or still recoverable
/// from the decision log; an undecided one left nothing behind.
fn check_durability(sys: &TwoPc, outcome: Coord) {
    let p = *sys.participant.state.lock();
    let logged = *sys.log.lock();
    match outcome {
        Coord::NotDecided => {
            assert_eq!(p, PState::Prepared, "nothing decided, nothing applied");
            assert_eq!(logged, None, "no ghost decision");
        }
        Coord::DecidedCrashed | Coord::Applied => {
            assert!(
                p == PState::Committed || logged == Some(GTXN),
                "decided txn lost: participant {p:?}, log {logged:?}"
            );
        }
    }
}

/// Pair takeover races the coordinator's own phase 2 (no machine failure):
/// whatever the interleaving, the decided txn commits and double-delivery
/// is absorbed by engine idempotence.
#[test]
fn takeover_races_phase_two() {
    bounded().check(|| {
        let sys = TwoPc::new();
        let crashed = Arc::new(AtomicBool::new(false));
        let s1 = Arc::clone(&sys);
        let c1 = Arc::clone(&crashed);
        let coord = loom::thread::spawn(move || s1.coordinator(&c1));
        let s2 = Arc::clone(&sys);
        let c2 = Arc::clone(&crashed);
        let backup = loom::thread::spawn(move || {
            // The coordinator is declared dead, then takeover completes the log.
            // ordering: Relaxed — loom is sequentially consistent.
            c2.store(true, Ordering::Relaxed);
            s2.takeover();
        });
        let outcome = coord.join().expect("coordinator");
        backup.join().expect("backup");
        check_durability(&sys, outcome);
    });
}

/// Same race with a participant `fail_machine` thread in the mix: the
/// decision may stay in the log (for restart recovery) but is never
/// dropped while the participant sits prepared.
#[test]
fn takeover_races_phase_two_and_fail_machine() {
    bounded().check(|| {
        let sys = TwoPc::new();
        let crashed = Arc::new(AtomicBool::new(false));
        let s1 = Arc::clone(&sys);
        let c1 = Arc::clone(&crashed);
        let coord = loom::thread::spawn(move || s1.coordinator(&c1));
        let s2 = Arc::clone(&sys);
        let c2 = Arc::clone(&crashed);
        let backup = loom::thread::spawn(move || {
            // ordering: Relaxed — loom is sequentially consistent.
            c2.store(true, Ordering::Relaxed);
            s2.takeover();
        });
        let s3 = Arc::clone(&sys);
        let failer = loom::thread::spawn(move || {
            // ordering: Relaxed — loom is sequentially consistent.
            s3.participant.failed.store(true, Ordering::Relaxed);
        });
        let outcome = coord.join().expect("coordinator");
        backup.join().expect("backup");
        failer.join().expect("failer");

        let p = *sys.participant.state.lock();
        let logged = *sys.log.lock();
        if outcome != Coord::NotDecided && p == PState::Prepared {
            assert_eq!(
                logged,
                Some(GTXN),
                "prepared participant must still find the decision on restart"
            );
        }
        check_durability(&sys, outcome);
    });
}

/// Teeth check: the invariant the coordinator actually relies on is
/// *remove after phase 2*. A coordinator that GCs the log entry before
/// running phase 2 loses the txn when it crashes in between — the checker
/// must find that schedule.
#[test]
fn takeover_model_has_teeth() {
    let found = std::panic::catch_unwind(|| {
        bounded().check(|| {
            let sys = TwoPc::new();
            let crashed = Arc::new(AtomicBool::new(false));
            let s1 = Arc::clone(&sys);
            let c1 = Arc::clone(&crashed);
            let coord = loom::thread::spawn(move || {
                {
                    let mut log = s1.log.lock();
                    // ordering: Relaxed — loom is sequentially consistent.
                    if c1.load(Ordering::Relaxed) {
                        return Coord::NotDecided;
                    }
                    *log = Some(GTXN);
                }
                *s1.log.lock() = None; // BUG: GC before phase 2
                                       // ordering: Relaxed — see above.
                if c1.load(Ordering::Relaxed) {
                    return Coord::DecidedCrashed;
                }
                let _ = s1.participant.commit();
                Coord::Applied
            });
            let s2 = Arc::clone(&sys);
            let c2 = Arc::clone(&crashed);
            let backup = loom::thread::spawn(move || {
                // ordering: Relaxed — loom is sequentially consistent.
                c2.store(true, Ordering::Relaxed);
                s2.takeover();
            });
            let outcome = coord.join().expect("coordinator");
            backup.join().expect("backup");
            check_durability(&sys, outcome);
        });
    });
    assert!(
        found.is_err(),
        "the checker must find the decided-then-lost schedule in the buggy coordinator"
    );
}
