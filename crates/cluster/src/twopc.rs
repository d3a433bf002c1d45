//! The 2PC drivers (DESIGN.md §12.2): every protocol decision of a
//! coordinator, a takeover and a participant's restart. The product and
//! loom model 2 run them over an [`Executor`] that is I/O and nothing else.
//!
//! A commit is decided once a controller quorum has its `Log` durable. A
//! `Log` never proposed does not exist: abort. One proposed but not acked
//! may still commit, and a settler would then COMMIT a participant the
//! coordinator aborted: an `Abort` arbitrates through the log — it lands
//! (abort is safe) or loses to a settler's claim (phase 2 runs). With no
//! quorum for even that, the participants stay prepared, in doubt.
//!
//! A restart knows its prepared transactions by participant, not by gtxn,
//! so it [`abandon`]s them: each joins the decision that lists it, or
//! leaves a tombstone that refuses the `Log` still to come.

use tenantdb_history::GTxn;
use tenantdb_storage::{StorageError, TxnId};

use crate::error::{ClusterError, Result};
use crate::machine::MachineId;

/// One participant: a machine and its local transaction.
pub type Participant = (MachineId, TxnId);

/// Who proposes a `Resolve` or an `Abandon`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Role {
    /// The coordinator, or the takeover that replaced it: nothing logs or
    /// arbitrates the transaction after it.
    Coordinator,
    /// A participant's restart: its coordinator may still be deciding.
    Restart,
}

/// A command on the replicated decision log: one transition of
/// [`Decisions`](crate::meta::Decisions).
#[derive(Debug, Clone, PartialEq, Hash)]
pub enum Command {
    /// The decision point: the transaction commits at its yes-voters.
    /// Refused, consuming the tombstones, if a restart abandoned one first.
    Log(GTxn, Vec<Participant>),
    /// A settler is about to commit a participant: the point of no return
    /// an `Abort` observes.
    Claim(GTxn),
    /// Arbitration after an ambiguous `Log`: an unclaimed decision goes.
    Abort(GTxn),
    /// Drop the settled participants' machines. The decision goes with the
    /// last one, unless a settler claimed it before its coordinator
    /// resolved: then a committed marker stays until the coordinator's own
    /// `Resolve`.
    Resolve(GTxn, Vec<MachineId>, Role),
    /// Prepared participants with no outcome: each claims the decision
    /// that lists it. A restart tombstones the others; a takeover leaves no
    /// coordinator to refuse, so it clears every tombstone instead.
    Abandon(Vec<Participant>, Role),
}

/// The group's answer to a [`Command`].
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Applied, and the decision stands: `Log` is durable, `Claim` and
    /// `Abort` found it claimed.
    Commit,
    /// Applied, and no decision stands: `Log` was refused, `Claim` found
    /// none, `Abort` dropped it.
    Abort,
    /// `Abandon` applied: the decision each participant joined, or `None`.
    Joined(Vec<Option<GTxn>>),
    /// No proposal reached a leader's log: the command never applies.
    NotProposed(ClusterError),
    /// A proposal reached a log, but whether it commits is unknown.
    Unknown(ClusterError),
}

/// A participant's answer to a COMMIT.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ack {
    /// It committed.
    Committed,
    /// Its machine is down: it stays prepared for its restart.
    Down,
    /// It failed on a machine that is up: the transaction already ended.
    Failed,
}

/// The I/O the drivers run on, and nothing else: an executor never decides
/// what to propose, who is settled, or whether to abort.
pub trait Executor {
    /// Propose `cmd` to the decision log; the group's verdict.
    fn propose(&mut self, cmd: Command) -> Verdict;
    /// COMMIT each participant; one answer each, in order.
    fn commit(&mut self, participants: &[Participant]) -> Vec<Ack>;
    /// ABORT each participant.
    fn abort(&mut self, participants: &[Participant]);
}

/// The coordinator, from the decision point to its client's answer; `ps`
/// are the yes-voters. `Err` is the cause of an abort everywhere, or
/// [`ClusterError::InDoubt`]: an ambiguous `Log` could not be arbitrated,
/// and the participants stay prepared until the group heals.
pub fn coordinate(io: &mut impl Executor, gtxn: GTxn, ps: Vec<Participant>) -> Result<()> {
    let decided = match io.propose(Command::Log(gtxn, ps.clone())) {
        Verdict::Commit => Ok(()),
        Verdict::Unknown(e) => match io.propose(Command::Abort(gtxn)) {
            Verdict::Commit => Ok(()),
            Verdict::Abort => Err(e),
            _ => return Err(ClusterError::InDoubt(e.to_string())),
        },
        Verdict::NotProposed(e) => Err(e),
        // Refused: a participant's machine restarted before the decision.
        _ => Err(StorageError::Unavailable.into()),
    };
    match decided {
        Ok(()) => finish(io, gtxn, &ps, Role::Coordinator),
        Err(_) => io.abort(&ps),
    }
    decided
}

/// A takeover completes a logged decision: claim it, commit `ps`, resolve.
/// False when the claim found no decision.
pub fn settle(io: &mut impl Executor, gtxn: GTxn, ps: &[Participant]) -> bool {
    // Without a quorum neither a claim nor an `Abort` can commit, so the
    // decision as read from the log stands.
    let found = io.propose(Command::Claim(gtxn)) != Verdict::Abort;
    if found {
        finish(io, gtxn, ps, Role::Coordinator);
    }
    found
}

/// Give prepared `ps` an outcome: each commits with the decision that lists
/// it, the others abort (returned). `Err` when the group gave no verdict:
/// they stay prepared, and a restart leaves its machine down.
pub fn abandon(io: &mut impl Executor, ps: Vec<Participant>, by: Role) -> Result<Vec<Participant>> {
    if ps.is_empty() && by == Role::Restart {
        return Ok(ps);
    }
    let joined = match io.propose(Command::Abandon(ps.clone(), by)) {
        Verdict::Joined(joined) => joined,
        Verdict::NotProposed(e) | Verdict::Unknown(e) => return Err(e),
        v => unreachable!("`Abandon` answered {v:?}"),
    };
    let mut aborted = Vec::new();
    for (p, gtxn) in ps.into_iter().zip(joined) {
        match gtxn {
            Some(gtxn) => finish(io, gtxn, &[p], by),
            None => aborted.push(p),
        }
    }
    io.abort(&aborted);
    Ok(aborted)
}

/// One settler's phase 2: commit `ps`, then one `Resolve` of those settled.
/// **A participant is settled once its commit succeeded or its machine is
/// up**; a down one keeps its entry for its restart.
fn finish(io: &mut impl Executor, gtxn: GTxn, ps: &[Participant], by: Role) {
    let acks = io.commit(ps);
    let up = |(p, ack): (&Participant, Ack)| (ack != Ack::Down).then_some(p.0);
    let settled = ps.iter().zip(acks).filter_map(up).collect();
    io.propose(Command::Resolve(gtxn, settled, by));
}
