//! Exhaustive interleaving checks (via `tenantdb-loom`) for the three
//! protocols whose correctness is purely about ordering:
//!
//! 1. **Pool session-lane handoff** (`worker.rs` `enqueue`/`drain` over the
//!    product [`Lane`]): all messages a transaction sends to one machine
//!    execute in arrival order, exactly once, with a single drainer at a
//!    time — including when a `Detach` races ordinary sends.
//! 2. **The 2PC drivers** (`cluster::twopc`, over the product
//!    [`Decisions`]): a transaction commits at every participant or at
//!    none, or stays recoverable at one that is down — whatever takeover,
//!    restarts, a machine failure or a quorum loss race: its phase 2, its
//!    decision point or its abort arbitration.
//! 3. **The caller takes the lane's turn** (`worker.rs` `try_turn` /
//!    `Turn::run` / `Turn::drop`, on model 1's lane): the same guarantee
//!    when the drainer is the calling thread and sends — the cleanup
//!    `Abort` among them — arrive while it holds the slot.
//!
//! Models 1 and 3 drive the product's own [`Lane`] — the state machine the
//! replica sessions and the TCP server's request queues run — and model 2
//! runs the product's own drivers over its [`Decisions`], each under a
//! `tenantdb_loom` mutex standing in for the ordered lockdep wrapper its
//! owner keeps it under (the checker cannot instrument those). Only the
//! code around them is the model's: a spawned thread for a pool job and
//! the session's execution step; model 2's executor and its participants.
//! Each model has `*_model_has_teeth` tests that seed a historical bug
//! shape — in model 2, as a corrupted executor — to prove the checker
//! would catch a regression.

use tenantdb_cluster::meta::Decisions;
use tenantdb_cluster::pool::Lane;
use tenantdb_cluster::twopc::{self, Ack, Command, Participant, Role, Verdict};
use tenantdb_cluster::{ClusterError, MachineId};
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
// Model 2: the 2PC drivers vs. takeover, restart and machine failure
// ---------------------------------------------------------------------------

const G: GTxn = GTxn(7);
const M0: MachineId = MachineId(0);
const M1: MachineId = MachineId(1);
/// The transaction's participants, both prepared when a model starts.
const PARTICIPANTS: [Participant; 2] = [(M0, TxnId(10)), (M1, TxnId(11))];

/// A participant's local transaction.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Local {
    Prepared,
    Committed,
    Aborted,
}

/// One participant machine: its local transaction and whether it is down.
struct Machine {
    local: Mutex<Local>,
    failed: AtomicBool,
}

impl Machine {
    fn is_failed(&self) -> bool {
        // ordering: Relaxed — the loom scheduler is sequentially consistent
        // anyway; the flag mirrors `Engine::failed`'s gate role.
        self.failed.load(Ordering::Relaxed)
    }

    /// Give a prepared local transaction its outcome; a finished one keeps
    /// its own (the engine's error every caller ignores).
    fn finish(&self, outcome: Local) {
        let mut local = self.local.lock();
        if *local == Local::Prepared {
            *local = outcome;
        }
    }
}

/// A bug seeded in an executor, for the teeth tests.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Bug {
    /// A dead coordinator's COMMITs are reported acked, never delivered.
    PhantomAcks,
    /// A COMMIT that found its machine down is reported settled.
    DownSettled,
    /// The coordinator's `Abort` answers "aborted" without being proposed.
    Unarbitrated,
    /// A restart abandons as a takeover does: it leaves no tombstone.
    NoTombstone,
    /// A restart's `Resolve` closes the decision: it leaves no marker.
    NoMarker,
    /// A restart's `Abandon` that reached no quorum answers "no decision".
    Guessed,
}

/// The product decision log under a mutex standing in for the group's
/// `CTRL_META` lock (one hold is one proposal or one read), the machines,
/// the coordinator's and the quorum's failure, whether the coordinator's
/// `Log`'s ack is lost, and the bug the executors seed.
struct TwoPc {
    decisions: Mutex<Decisions>,
    machines: [Machine; 2],
    crashed: AtomicBool,
    no_quorum: AtomicBool,
    ack_lost: bool,
    bug: Option<Bug>,
}

/// Who runs a driver: `Connection::commit`, `ClusterController::takeover`
/// or `restart_machine`, which writes outcomes to its down machine's log.
#[derive(Clone, Copy, PartialEq)]
enum Side {
    Coordinator,
    Takeover,
    Restart,
}

/// The model's executor: the product `Decisions` for proposals, the model's
/// machines for COMMIT and ABORT. It decides nothing; a seeded [`Bug`]
/// corrupts what it does.
struct Io<'a>(&'a TwoPc, Side);

impl twopc::Executor for Io<'_> {
    fn propose(&mut self, mut cmd: Command) -> Verdict {
        let (sys, side, lost) = (self.0, self.1, || ClusterError::NotLeader { hint: None });
        match (&mut cmd, side, sys.bug) {
            (Command::Abort(_), Side::Coordinator, Some(Bug::Unarbitrated)) => {
                return Verdict::Abort
            }
            (Command::Abandon(_, by), Side::Restart, Some(Bug::NoTombstone))
            | (Command::Resolve(_, _, by), Side::Restart, Some(Bug::NoMarker)) => {
                *by = Role::Coordinator
            }
            _ => {}
        }
        let mut d = sys.decisions.lock();
        let log = side == Side::Coordinator && matches!(cmd, Command::Log(..));
        // ordering: Relaxed — loom is sequentially consistent.
        let no_quorum = sys.no_quorum.load(Ordering::Relaxed);
        // Checked inside the log's lock hold: without a quorum nothing
        // decides, nor does a dead primary.
        match &cmd {
            Command::Abandon(ps, _) if no_quorum && sys.bug == Some(Bug::Guessed) => {
                return Verdict::Joined(vec![None; ps.len()])
            }
            _ if no_quorum || log && sys.is_crashed() => return Verdict::NotProposed(lost()),
            _ => {}
        }
        d.apply(&cmd);
        if log && sys.ack_lost {
            return Verdict::Unknown(lost());
        }
        d.answer(&cmd)
    }

    fn commit(&mut self, participants: &[Participant]) -> Vec<Ack> {
        let (sys, side) = (self.0, self.1);
        let ack = |&(m, _): &Participant| {
            let machine = sys.at(m);
            // A dead coordinator delivers nothing.
            if side == Side::Coordinator && sys.is_crashed() {
                let phantom = sys.bug == Some(Bug::PhantomAcks);
                return if phantom { Ack::Committed } else { Ack::Down };
            }
            if side != Side::Restart && machine.is_failed() {
                let settled = sys.bug == Some(Bug::DownSettled);
                return if settled { Ack::Failed } else { Ack::Down };
            }
            machine.finish(Local::Committed);
            Ack::Committed
        };
        participants.iter().map(ack).collect()
    }

    fn abort(&mut self, participants: &[Participant]) {
        for &(m, _) in participants {
            // A down machine's ABORT is lost, but a restart writes its log.
            if self.1 == Side::Restart || !self.0.at(m).is_failed() {
                self.0.at(m).finish(Local::Aborted);
            }
        }
    }
}

impl TwoPc {
    fn at(&self, m: MachineId) -> &Machine {
        &self.machines[m.0 as usize]
    }

    fn is_crashed(&self) -> bool {
        // ordering: Relaxed — loom is sequentially consistent.
        self.crashed.load(Ordering::Relaxed)
    }

    /// `ClusterController::takeover`: settle every decision, then abandon
    /// what is still prepared on the machines that are up.
    fn takeover(&self) {
        let mut io = Io(self, Side::Takeover);
        let decided: Vec<_> = (self.decisions.lock().iter())
            .map(|(g, p)| (g, p.to_vec()))
            .collect();
        for (gtxn, participants) in decided {
            twopc::settle(&mut io, gtxn, &participants);
        }
        let in_doubt = PARTICIPANTS.into_iter().filter(|&(m, _)| {
            !self.at(m).is_failed() && *self.at(m).local.lock() == Local::Prepared
        });
        _ = twopc::abandon(&mut io, in_doubt.collect(), Role::Coordinator);
    }

    /// `ClusterController::restart_machine(m)` of a down `m`: abandon its
    /// transaction if it is in doubt; the machine is up once that got a
    /// verdict.
    fn restart(&self, m: MachineId) {
        let machine = self.at(m);
        let prepared = *machine.local.lock() == Local::Prepared;
        let mine = PARTICIPANTS.into_iter().filter(|p| p.0 == m && prepared);
        let mut io = Io(self, Side::Restart);
        if machine.is_failed() && twopc::abandon(&mut io, mine.collect(), Role::Restart).is_ok() {
            // ordering: Relaxed — loom is sequentially consistent.
            machine.failed.store(false, Ordering::Relaxed);
        }
    }

    fn locals(&self) -> [Local; 2] {
        [M0, M1].map(|m| *self.at(m).local.lock())
    }
}

/// Atomicity, checked when every thread is done: a decided transaction is
/// committed at each participant or still recoverable there (prepared, with
/// its entry in the log for the restart to commit); an aborted one
/// committed nowhere and left no decision behind.
fn check_atomic(sys: &TwoPc, outcome: &Result<(), ClusterError>) {
    let open = sys.decisions.lock().get(G).map(<[_]>::to_vec);
    let (locals, open) = (sys.locals(), open.unwrap_or_default());
    if outcome.is_err() {
        assert!(
            !locals.contains(&Local::Committed),
            "{outcome:?} txn committed at a participant: {locals:?}"
        );
        assert!(open.is_empty(), "ghost decision: {open:?}");
        return;
    }
    for ((m, _), local) in PARTICIPANTS.into_iter().zip(locals) {
        let recoverable = local == Local::Prepared && open.iter().any(|&(pm, _)| pm == m);
        assert!(
            local == Local::Committed || recoverable,
            "decided txn lost at {m}: {local:?}, log {open:?}"
        );
    }
}

/// Then the sim's quiesce — heal the group, restart the down machines,
/// take over: every participant ends with the outcome, and the log holds no
/// decision, no marker and no tombstone.
fn check_settled(sys: &TwoPc, outcome: &Result<(), ClusterError>) {
    check_atomic(sys, outcome);
    // ordering: Relaxed — loom is sequentially consistent.
    sys.no_quorum.store(false, Ordering::Relaxed);
    sys.restart(M0);
    sys.restart(M1);
    sys.takeover();
    let decided = outcome.is_ok();
    for local in sys.locals() {
        assert_eq!(local == Local::Committed, decided, "{outcome:?}: {local:?}");
    }
    let d = sys.decisions.lock();
    let left = (d.iter().count(), d.tombstones().count());
    assert_eq!(left, (0, 0), "unsettled (decisions, tombstones)");
}

/// One race: the coordinator, from the decision point, against `racers`;
/// the machines `down` since they voted, and whether its `Log`'s ack is lost.
#[derive(Clone, Copy)]
struct Race {
    down: [bool; 2],
    ack_lost: bool,
    racers: &'static [fn(&TwoPc)],
}

/// The takeover, which declares the coordinator dead first.
fn takeover(sys: &TwoPc) {
    // ordering: Relaxed — loom is sequentially consistent.
    sys.crashed.store(true, Ordering::Relaxed);
    sys.takeover();
}

/// Every schedule of `race` with `bug` seeded ends atomic and settles.
fn check(race: Race, bug: Option<Bug>) {
    bounded().check(move || {
        let machine = |down| Machine {
            local: Mutex::new(Local::Prepared),
            failed: AtomicBool::new(down),
        };
        let sys = Arc::new(TwoPc {
            decisions: Mutex::new(Decisions::default()),
            machines: race.down.map(machine),
            crashed: AtomicBool::new(false),
            no_quorum: AtomicBool::new(false),
            ack_lost: race.ack_lost,
            bug,
        });
        let s = Arc::clone(&sys);
        let coord = loom::thread::spawn(move || {
            twopc::coordinate(&mut Io(&s, Side::Coordinator), G, PARTICIPANTS.to_vec())
        });
        let racers: Vec<_> = (race.racers.iter())
            .map(|&r| {
                let s = Arc::clone(&sys);
                loom::thread::spawn(move || r(&s))
            })
            .collect();
        let outcome = coord.join().expect("coordinator");
        for r in racers {
            r.join().expect("racer");
        }
        check_settled(&sys, &outcome);
    });
}

/// Whether the checker finds a broken schedule of `race` with `bug` seeded.
fn finds(race: Race, bug: Bug) -> bool {
    std::panic::catch_unwind(|| check(race, Some(bug))).is_err()
}

/// Takeover races the coordinator's own phase 2: the decided txn commits
/// everywhere, and engine idempotence absorbs double delivery.
const PHASE_TWO: Race = Race {
    down: [false; 2],
    ack_lost: false,
    racers: &[takeover],
};

/// The same with `fail_machine(M1)`: a participant that goes down keeps its
/// entry while it is down, and its restart commits.
const PHASE_TWO_AND_FAILURE: Race = Race {
    // ordering: Relaxed — loom is sequentially consistent.
    racers: &[takeover, |s| s.at(M1).failed.store(true, Ordering::Relaxed)],
    ..PHASE_TWO
};

/// The `Log`'s ack is lost, so the coordinator arbitrates with `Abort`
/// while the restart of M1 (down since it voted) claims the decision.
const ARBITRATION: Race = Race {
    down: [false, true],
    ack_lost: true,
    racers: &[|s| s.restart(M1)],
};

/// M1's restart races the coordinator's `Log`: the tombstone it leaves
/// refuses a `Log` that comes after it.
const DECISION_POINT: Race = Race {
    ack_lost: false,
    ..ARBITRATION
};

/// M1 died after voting yes: the coordinator, its restart and a takeover
/// all settle the transaction at once.
const RESTART_AND_TAKEOVER: Race = Race {
    racers: &[|s| s.restart(M1), takeover],
    ..DECISION_POINT
};

/// Both participants restart before the coordinator arbitrates a lost
/// ack: the marker the last one leaves answers its `Abort` "committed".
const EVERY_RESTART: Race = Race {
    down: [true; 2],
    ack_lost: true,
    racers: &[|s| s.restart(M0), |s| s.restart(M1)],
};

/// The group loses its quorum while M1 restarts: with no verdict on its
/// `Abandon`, M1 stays down until the group heals.
const NO_QUORUM: Race = Race {
    // ordering: Relaxed — loom is sequentially consistent.
    racers: &[
        |s| s.no_quorum.store(true, Ordering::Relaxed),
        |s| s.restart(M1),
    ],
    ..DECISION_POINT
};

#[test]
fn takeover_races_phase_two() {
    check(PHASE_TWO, None);
}

#[test]
fn takeover_races_phase_two_and_fail_machine() {
    check(PHASE_TWO_AND_FAILURE, None);
}

#[test]
fn restart_races_phase_two_and_takeover() {
    check(RESTART_AND_TAKEOVER, None);
}

#[test]
fn abort_arbitration_races_restart_claim() {
    check(ARBITRATION, None);
}

#[test]
fn restart_races_the_decision_point() {
    check(DECISION_POINT, None);
}

#[test]
fn every_participant_restarts_before_arbitration() {
    check(EVERY_RESTART, None);
}

#[test]
fn restart_races_a_quorum_loss() {
    check(NO_QUORUM, None);
}

/// Teeth: a dead coordinator that acks COMMITs it never delivered resolves
/// the decision of prepared participants; the takeover finds none.
#[test]
fn takeover_model_has_teeth() {
    assert!(finds(PHASE_TWO, Bug::PhantomAcks));
}

/// Teeth: a COMMIT that found M1 down, reported settled, drops its entry,
/// and M1's restart aborts what M0 committed.
#[test]
fn settle_rule_model_has_teeth() {
    assert!(finds(PHASE_TWO_AND_FAILURE, Bug::DownSettled));
}

/// Teeth: an abort after a lost ack without arbitrating lets M1's restart
/// commit the same decision.
#[test]
fn arbitration_model_has_teeth() {
    assert!(finds(ARBITRATION, Bug::Unarbitrated));
}

/// Teeth: with no tombstone, M1's restart aborts, and a `Log` after it
/// commits M0.
#[test]
fn decision_point_model_has_teeth() {
    assert!(finds(DECISION_POINT, Bug::NoTombstone));
}

/// Teeth: with no marker, the last restart's `Resolve` drops the decision,
/// and `Abort` reports "aborted" for a transaction committed everywhere.
#[test]
fn arbitration_marker_model_has_teeth() {
    assert!(finds(EVERY_RESTART, Bug::NoMarker));
}

/// Teeth: a restart that takes no verdict for "no decision" aborts M1, and
/// the decision commits M0.
#[test]
fn restart_verdict_model_has_teeth() {
    assert!(finds(NO_QUORUM, Bug::Guessed));
}
