//! The replicated control plane: controller metadata as a Raft-backed
//! state machine (DESIGN.md §12).
//!
//! Everything the controller used to keep in ad-hoc maps — the placement
//! map, the Algorithm-1 copy table, the 2PC decision log, the SLA table —
//! now lives in `MetaState`, a deterministic state machine replicated by
//! `tenantdb-consensus` across N in-process controller replicas. The
//! [`ClusterController`](crate::ClusterController) is a thin leader-side
//! API over this group: every metadata *write* is a `MetaCommand`
//! proposed to the Raft leader and pumped synchronously to quorum before
//! the call returns, every *read* is served from the leaseholder's applied
//! state.
//!
//! ## Why a synchronous pump
//!
//! The replicas are passive [`RaftNode`]s driven under one group mutex:
//! proposing ticks and delivers messages until the command commits. That
//! keeps the pre-replication API contract — `create_database` returns with
//! the placement durable — while making controller crashes *expressible*:
//! the sim harness crashes/partitions/restarts individual replicas, and
//! the next proposal transparently runs an election first. With
//! `controllers = 1` (the default) the single node self-elects and commits
//! instantly, so the unreplicated behaviour is preserved bit-for-bit.
//!
//! ## What may mutate state
//!
//! Only [`StateMachine::apply`] mutates `MetaState` — enforced by an
//! `xtask lint` rule (`consensus-apply`) that forbids the `MetaState` /
//! `MetaCommand` / `RaftNode` tokens outside this module. Side effects
//! (metric bumps, event emission, engine calls) stay at the controller API
//! layer: apply() runs once per replica, and N-fold side effects would be
//! a correctness bug.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet, HashSet, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use tenantdb_consensus::{Config, Index, Message, NodeId, RaftNode, StateMachine, Term};
use tenantdb_history::GTxn;
use tenantdb_sla::{ResourceVector, Sla};

use crate::controller::{CopyProgress, Placement};
use crate::error::{ClusterError, Result};
use crate::fault::{CrashPoint, FaultAction, FaultInjector, CONTROLLER};
use crate::machine::MachineId;
use crate::plans::Dbs;
use crate::sync::{Mutex, CTRL_META};
use crate::twopc::{Command, Participant, Role, Verdict};

/// One replicated controller metadata mutation. Private on purpose: the
/// command grammar is an implementation detail of the replicated state
/// machine, and the lint rule keeps it that way.
#[derive(Debug, Clone, Hash)]
enum MetaCommand {
    /// Leader barrier entry (no effect).
    Noop,
    /// Install a database's placement.
    CreateDb {
        name: String,
        replicas: Vec<MachineId>,
        pinned: MachineId,
        demand: ResourceVector,
    },
    /// Remove a database's placement, copy state and SLA.
    DropDb { name: String },
    /// Add a machine to a database's replica set.
    AddReplica { db: String, machine: MachineId },
    /// Remove a machine from a database's replica set (repinning if the
    /// pinned replica was removed). `owed` marks a replica dropped because
    /// its machine died: recovery still owes the database a new one.
    RemoveReplica {
        db: String,
        machine: MachineId,
        owed: bool,
    },
    /// Recovery of a failed machine begins: strip it from every replica
    /// set and clear its owed list (the caller re-creates those replicas).
    DetachMachine { machine: MachineId },
    /// Start tracking an Algorithm-1 copy.
    BeginCopy {
        db: String,
        target: MachineId,
        db_level: bool,
    },
    /// Set the table currently being copied (t′).
    SetCopyCurrent { db: String, table: Option<String> },
    /// Move a table into the copied set (T).
    MarkCopied { db: String, table: String },
    /// Copy complete: the target joins the replica set.
    FinishCopy { db: String },
    /// Copy abandoned (target died mid-copy).
    AbandonCopy { db: String },
    /// A transition of the 2PC decision log (see [`Command`]).
    Decision(Command),
    /// Record a database's SLA.
    SetSla { db: String, sla: Sla },
    /// Raise the cross-colo fencing epoch (monotonic max). Proposed by the
    /// georep promotion protocol: once a standby colo is promoted at epoch
    /// `e`, every cluster whose local write authority is below `e` must
    /// reject writes (see `ClusterController::fence_geo`).
    SetGeoEpoch { epoch: u64 },
    /// Exactly-once envelope: `cmd` applies only if no entry with the same
    /// request id has applied before (a `submit` retry after an ambiguous
    /// leader change can commit the same proposal twice).
    Tagged { req: u64, cmd: Box<MetaCommand> },
}

/// The replicated controller metadata. All mutation happens in `apply`.
#[derive(Debug, Clone, Default)]
struct MetaState {
    /// Database → replica set and demand (the paper's partition map).
    placements: BTreeMap<String, Placement>,
    /// Machine → what the placements and copies in flight put on it.
    /// Derived from `placements` + `copies` and kept by `apply`, so
    /// `choose` and `create_db` read a machine's load without counting
    /// every placement; machines that host and pin nothing are absent.
    tally: BTreeMap<MachineId, MachineTally>,
    /// (failed machine, database) pairs whose replica a connection already
    /// dropped while masking the failure. `databases_on` no longer lists
    /// them, so without this ledger recovery would leave them one replica
    /// short for good.
    owed: BTreeSet<(MachineId, String)>,
    /// Databases with an Algorithm-1 copy in flight.
    copies: BTreeMap<String, CopyProgress>,
    /// The 2PC decision log.
    decisions: Decisions,
    /// Database → SLA (the §4.1 contract table).
    slas: BTreeMap<String, Sla>,
    /// Highest cross-colo fencing epoch this cluster has durably observed.
    /// A cluster whose write authority is below this is fenced.
    geo_epoch: u64,
    /// Request ids of applied `Tagged` envelopes. Ids are minted and all
    /// their proposals made under one held group lock, so in the committed
    /// log every entry of id `r` precedes every entry of any `r' > r` —
    /// applying `r` can therefore prune everything below `r`, keeping this
    /// set O(1) in steady state.
    applied_reqs: BTreeSet<u64>,
}

/// What the placements and copies in flight put on one machine: the load
/// `ControllerGroup::choose` ranks and fits machines by.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MachineTally {
    /// Databases with a replica here or a copy on its way here.
    pub hosted: usize,
    /// Placements that pin reads here.
    pub pinned: usize,
    /// The summed demand of the `hosted` databases.
    pub load: ResourceVector,
}

/// The 2PC decision log (DESIGN.md §12.2): each commit decision with its
/// participants not yet settled, and the participants a restart abandoned
/// before any decision listed them. Its transitions are the [`Command`]s.
/// It holds no lock: `MetaState` keeps one under the group's [`CTRL_META`]
/// mutex.
#[derive(Debug, Clone, Default)]
pub struct Decisions {
    open: BTreeMap<GTxn, Decision>,
    tombstones: BTreeSet<Participant>,
}

#[derive(Debug, Clone)]
struct Decision {
    participants: Vec<Participant>,
    /// A settler claimed it: no `Abort` drops it any more.
    claimed: bool,
    /// Its coordinator, or the takeover that replaced it, resolved it: no
    /// `Abort` can follow, so it leaves no marker.
    closed: bool,
}

impl Decisions {
    /// Apply `cmd`: the transition each [`Command`] documents.
    pub fn apply(&mut self, cmd: &Command) {
        match cmd {
            Command::Log(gtxn, participants) => {
                let tombstoned = |t, p| self.tombstones.remove(p) | t;
                if !participants.iter().fold(false, tombstoned) {
                    let participants = participants.clone();
                    let d = Decision {
                        participants,
                        claimed: false,
                        closed: false,
                    };
                    self.open.insert(*gtxn, d);
                }
            }
            Command::Claim(gtxn) => {
                if let Some(d) = self.open.get_mut(gtxn) {
                    d.claimed = true;
                }
            }
            Command::Abort(gtxn) => {
                if !self.is_claimed(*gtxn) {
                    self.open.remove(gtxn);
                }
            }
            Command::Resolve(gtxn, settled, by) => {
                if let Some(d) = self.open.get_mut(gtxn) {
                    d.participants.retain(|(m, _)| !settled.contains(m));
                    d.closed |= *by == Role::Coordinator;
                    if d.participants.is_empty() && (d.closed || !d.claimed) {
                        self.open.remove(gtxn);
                    }
                }
            }
            Command::Abandon(participants, by) => {
                for p in participants {
                    match self.open.values_mut().find(|d| d.participants.contains(p)) {
                        Some(d) => d.claimed = true,
                        None if *by == Role::Restart => _ = self.tombstones.insert(*p),
                        None => {}
                    }
                }
                if *by == Role::Coordinator {
                    self.tombstones.clear();
                }
            }
        }
    }

    /// What `cmd` answers, read from the state its [`Self::apply`] left.
    pub fn answer(&self, cmd: &Command) -> Verdict {
        let stands = match cmd {
            Command::Log(gtxn, _) => self.open.contains_key(gtxn),
            Command::Claim(gtxn) | Command::Abort(gtxn) => self.is_claimed(*gtxn),
            Command::Resolve(..) => true,
            Command::Abandon(participants, _) => {
                let joined = |p| self.iter().find(|(_, ps)| ps.contains(p)).map(|(g, _)| g);
                return Verdict::Joined(participants.iter().map(joined).collect());
            }
        };
        if stands {
            Verdict::Commit
        } else {
            Verdict::Abort
        }
    }

    /// The participants of `gtxn` not yet settled, if it is decided (none
    /// for a committed marker).
    pub fn get(&self, gtxn: GTxn) -> Option<&[Participant]> {
        self.open.get(&gtxn).map(|d| d.participants.as_slice())
    }

    fn is_claimed(&self, gtxn: GTxn) -> bool {
        self.open.get(&gtxn).is_some_and(|d| d.claimed)
    }

    /// Every open decision and marker with its unsettled participants, in
    /// id order.
    pub fn iter(&self) -> impl Iterator<Item = (GTxn, &[Participant])> {
        self.open
            .iter()
            .map(|(g, d)| (*g, d.participants.as_slice()))
    }

    /// The participants abandoned with no decision: a `Log` that lists one
    /// is refused.
    pub fn tombstones(&self) -> impl Iterator<Item = Participant> + '_ {
        self.tombstones.iter().copied()
    }
}

/// What one database puts on machines: its replicas plus the target of a
/// copy in flight (each machine once), its pin, and its demand.
struct Footprint {
    machines: Vec<MachineId>,
    pinned: Option<MachineId>,
    demand: ResourceVector,
}

impl MetaCommand {
    /// The one database whose footprint this command can change.
    fn database(&self) -> Option<&str> {
        match self {
            MetaCommand::CreateDb { name: db, .. }
            | MetaCommand::DropDb { name: db }
            | MetaCommand::AddReplica { db, .. }
            | MetaCommand::RemoveReplica { db, .. }
            | MetaCommand::BeginCopy { db, .. }
            | MetaCommand::FinishCopy { db }
            | MetaCommand::AbandonCopy { db } => Some(db),
            _ => None,
        }
    }

    /// True if this command can change some database's `route_info`
    /// answer.
    fn routes(&self) -> bool {
        match self {
            MetaCommand::SetCopyCurrent { .. }
            | MetaCommand::MarkCopied { .. }
            | MetaCommand::DetachMachine { .. } => true,
            MetaCommand::Tagged { cmd, .. } => cmd.routes(),
            _ => self.database().is_some(),
        }
    }
}

impl MetaState {
    fn footprint(&self, db: &str) -> Footprint {
        let p = self.placements.get(db);
        let mut machines = p.map_or_else(Vec::new, |p| p.replicas.clone());
        if let Some(c) = self.copies.get(db) {
            if !machines.contains(&c.target) {
                machines.push(c.target);
            }
        }
        Footprint {
            machines,
            pinned: p.map(|p| p.pinned),
            demand: p.map_or(ResourceVector::ZERO, |p| p.demand),
        }
    }

    /// Move `db`'s share of the tally from its footprint `before` to the
    /// one it has now. Machines on both sides keep their share untouched.
    fn retally(&mut self, db: &str, before: Footprint) {
        let after = self.footprint(db);
        let same_demand = before.demand == after.demand;
        for &m in &before.machines {
            if !(same_demand && after.machines.contains(&m)) {
                self.tally_at(m, |t| {
                    t.hosted -= 1;
                    t.load = t.load - before.demand;
                });
            }
        }
        for &m in &after.machines {
            if !(same_demand && before.machines.contains(&m)) {
                self.tally_at(m, |t| {
                    t.hosted += 1;
                    t.load += after.demand;
                });
            }
        }
        if before.pinned != after.pinned {
            if let Some(m) = before.pinned {
                self.tally_at(m, |t| t.pinned -= 1);
            }
            if let Some(m) = after.pinned {
                self.tally_at(m, |t| t.pinned += 1);
            }
        }
    }

    /// Update one machine's tally, forgetting it once it hosts and pins
    /// nothing (which also drops the rounding its load picked up).
    fn tally_at(&mut self, m: MachineId, f: impl FnOnce(&mut MachineTally)) {
        let t = self.tally.entry(m).or_default();
        f(t);
        if t.hosted == 0 && t.pinned == 0 {
            self.tally.remove(&m);
        }
    }

    /// See [`ControllerGroup::choose`].
    fn choose(
        &self,
        db: &str,
        n: usize,
        demand: ResourceVector,
        alive: &[MachineId],
        capacity: ResourceVector,
    ) -> Result<Vec<MachineId>> {
        let taken = self.footprint(db).machines;
        let mut fit: Vec<(usize, MachineId)> = alive
            .iter()
            .filter(|m| !taken.contains(m))
            .filter_map(|&m| {
                let t = self.tally.get(&m).copied().unwrap_or_default();
                (t.load + demand)
                    .fits_in(&capacity)
                    .then_some((t.hosted, m))
            })
            .collect();
        if fit.len() < n {
            return Err(ClusterError::NoMachines);
        }
        fit.sort_unstable();
        Ok(fit[..n].iter().map(|&(_, m)| m).collect())
    }
}

impl StateMachine for MetaState {
    type Command = MetaCommand;
    type Snapshot = MetaState;

    fn apply(&mut self, _index: u64, cmd: &MetaCommand) {
        let touched = cmd.database().map(|db| (db, self.footprint(db)));
        match cmd {
            MetaCommand::Noop => {}
            MetaCommand::CreateDb {
                name,
                replicas,
                pinned,
                demand,
            } => {
                self.placements.insert(
                    name.clone(),
                    Placement {
                        replicas: replicas.clone(),
                        pinned: *pinned,
                        demand: *demand,
                    },
                );
            }
            MetaCommand::DropDb { name } => {
                self.placements.remove(name);
                self.copies.remove(name);
                self.slas.remove(name);
                self.owed.retain(|(_, db)| db != name);
            }
            MetaCommand::AddReplica { db, machine } => {
                if let Some(p) = self.placements.get_mut(db) {
                    if !p.replicas.contains(machine) {
                        p.replicas.push(*machine);
                    }
                }
            }
            MetaCommand::RemoveReplica { db, machine, owed } => {
                if let Some(p) = self.placements.get_mut(db) {
                    if *owed && p.replicas.contains(machine) {
                        self.owed.insert((*machine, db.clone()));
                    }
                    // Repin reads if the pinned replica went.
                    p.replicas.retain(|m| m != machine);
                    if p.pinned == *machine {
                        if let Some(&first) = p.replicas.first() {
                            p.pinned = first;
                        }
                    }
                }
            }
            MetaCommand::DetachMachine { machine } => {
                let hit: Vec<String> = self
                    .placements
                    .iter()
                    .filter(|(_, p)| p.replicas.contains(machine) || p.pinned == *machine)
                    .map(|(db, _)| db.clone())
                    .collect();
                for db in hit {
                    let strip = MetaCommand::RemoveReplica {
                        db,
                        machine: *machine,
                        owed: false,
                    };
                    self.apply(_index, &strip);
                }
                self.owed.retain(|(m, _)| m != machine);
            }
            MetaCommand::BeginCopy {
                db,
                target,
                db_level,
            } => {
                self.copies.insert(
                    db.clone(),
                    CopyProgress {
                        target: *target,
                        copied: HashSet::new(),
                        current: None,
                        db_level: *db_level,
                    },
                );
            }
            MetaCommand::SetCopyCurrent { db, table } => {
                if let Some(c) = self.copies.get_mut(db) {
                    c.current = table.clone();
                }
            }
            MetaCommand::MarkCopied { db, table } => {
                if let Some(c) = self.copies.get_mut(db) {
                    c.current = None;
                    c.copied.insert(table.clone());
                }
            }
            MetaCommand::FinishCopy { db } => {
                if let Some(c) = self.copies.remove(db) {
                    if let Some(p) = self.placements.get_mut(db) {
                        if !p.replicas.contains(&c.target) {
                            p.replicas.push(c.target);
                        }
                    }
                }
            }
            MetaCommand::AbandonCopy { db } => {
                self.copies.remove(db);
            }
            MetaCommand::Decision(cmd) => self.decisions.apply(cmd),
            MetaCommand::SetSla { db, sla } => {
                self.slas.insert(db.clone(), *sla);
            }
            MetaCommand::SetGeoEpoch { epoch } => {
                self.geo_epoch = self.geo_epoch.max(*epoch);
            }
            MetaCommand::Tagged { req, cmd } => {
                if !self.applied_reqs.contains(req) {
                    // Prune ids below `req` (see the field docs for why no
                    // duplicate of an older id can still commit), then
                    // apply the inner command exactly once.
                    self.applied_reqs = self.applied_reqs.split_off(req);
                    self.applied_reqs.insert(*req);
                    self.apply(_index, cmd);
                }
            }
        }
        if let Some((db, before)) = touched {
            self.retally(db, before);
        }
    }

    fn snapshot(&self) -> MetaState {
        self.clone()
    }

    fn restore(&mut self, snap: &MetaState) {
        *self = snap.clone();
    }

    fn noop() -> MetaCommand {
        MetaCommand::Noop
    }
}

/// Position-independent fingerprint of one applied command, used for the
/// cross-replica log-matching check (`CopyProgress` holds a `HashSet`, so
/// hashing the state itself would not be deterministic; the command stream
/// is). It runs per applied command on every replica, so it hashes the
/// command's structure (a FLOAT term by its bits), formatting nothing.
fn hash_cmd(cmd: &MetaCommand) -> u64 {
    let mut h = DefaultHasher::new();
    cmd.hash(&mut h);
    h.finish()
}

/// A point-in-time view of the controller group (`\ctrl status` in the
/// shell, `tenantdb_ctrl_*` gauges in `render_metrics()`).
#[derive(Debug, Clone)]
pub struct CtrlStatus {
    /// Number of controller replicas in the group.
    pub replicas: usize,
    /// The current leader replica, if one is elected and reachable.
    pub leader: Option<NodeId>,
    /// Highest Raft term among alive replicas.
    pub term: Term,
    /// Highest committed log index among alive replicas.
    pub commit_index: u64,
    /// Max applied-index spread across alive replicas (0 = fully caught up).
    pub replication_lag: u64,
    /// Elections won since the group was built.
    pub elections: u64,
    /// Whether the leader currently holds a read lease.
    pub leader_has_lease: bool,
    /// Crashed replica ids.
    pub crashed: Vec<NodeId>,
    /// Partitioned (isolated) replica ids.
    pub isolated: Vec<NodeId>,
}

struct GroupInner {
    nodes: Vec<RaftNode<MetaState>>,
    crashed: Vec<bool>,
    isolated: Vec<bool>,
    queue: VecDeque<Message<MetaCommand, MetaState>>,
    /// Per-node election-win counters already accounted for.
    last_won: Vec<u64>,
    /// Every election ever observed, as (term, winner) — the
    /// single-leader-per-term invariant checks this.
    elections: Vec<(Term, NodeId)>,
    /// Elections not yet drained by [`ControllerGroup::take_elections`].
    fresh_elections: Vec<(Term, NodeId)>,
    /// The database entries, whose routing epoch applied commands bump.
    dbs: Arc<Dbs>,
    /// The first fingerprint applied at each log index (and by whom), kept
    /// while some node can still apply it: the log-matching invariant
    /// compares every later apply with it (a node caught up via
    /// `InstallSnapshot` never applies the folded indices one by one).
    fingerprints: BTreeMap<Index, (u64, NodeId)>,
    /// Per node pair (lower id first), the lowest index they disagree at.
    diverged: BTreeMap<(NodeId, NodeId), Index>,
    /// Per node, the last applied index `observe` saw.
    seen: Vec<Index>,
    /// The node reads were last served from.
    read_from: usize,
    /// 2PC decisions acked to a coordinator and not yet resolved: each
    /// must still be in the log (see [`GroupInner::ledger`]).
    acked_decisions: BTreeSet<GTxn>,
    /// Decisions resolved before their ack was recorded, which lands after
    /// `submit_full` releases its hold: a takeover can resolve first.
    resolved_decisions: BTreeSet<GTxn>,
    /// Next request id for `Tagged` envelopes. Minted under the group
    /// lock, which `submit_full` holds across every retry of a proposal —
    /// that full serialization is what makes the pruning in
    /// `MetaState::apply` sound.
    next_req: u64,
}

impl GroupInner {
    /// Node `i` applied the command fingerprinted `hash` at `idx`.
    fn fingerprint(&mut self, i: usize, idx: Index, hash: u64) {
        let (first, by) = *self.fingerprints.entry(idx).or_insert((hash, i as NodeId));
        if first != hash {
            let pair = (by.min(i as NodeId), by.max(i as NodeId));
            let at = self.diverged.entry(pair).or_insert(idx);
            *at = (*at).min(idx);
        }
    }

    /// Bump the routing epoch when reads move to another node, whose
    /// applied state may differ.
    fn reread(&mut self) {
        let node = ControllerGroup::read_node(self);
        if node != self.read_from {
            self.read_from = node;
            self.dbs.bump();
        }
    }

    /// Record that `gtxn`'s decision was acked (`ack`) or resolved: the
    /// second of the two removes the first's entry and inserts nothing, so
    /// both ledgers stay empty in steady state.
    fn ledger(&mut self, gtxn: GTxn, ack: bool) {
        let (a, r) = (&mut self.acked_decisions, &mut self.resolved_decisions);
        let (mine, other) = if ack { (a, r) } else { (r, a) };
        if !other.remove(&gtxn) {
            mine.insert(gtxn);
        }
    }
}

/// Bounded synchronous pumping: election timeouts are < 20 ticks, so a few
/// hundred ticks cover several back-to-back elections before we declare
/// the quorum lost.
const TICK_BUDGET: usize = 400;

/// What `submit_full` knows about a proposal's fate.
pub(crate) struct SubmitOutcome<R> {
    /// The submission result; `Ok` carries the post-apply `check` value.
    pub(crate) result: Result<R>,
    /// Whether any proposal for this command was appended to a leader's
    /// log. When false, an `Err` result is definitive: the command is not
    /// and can never become committed.
    pub(crate) proposed: bool,
}

/// The in-process replicated controller group.
///
/// All replicas live under one [`CTRL_META`]-ranked mutex; proposals are
/// pumped to quorum synchronously (see the module docs). Failover controls
/// ([`crash`](Self::crash), [`isolate`](Self::isolate),
/// [`restart`](Self::restart)) are how the sim harness and the shell
/// exercise controller loss.
pub struct ControllerGroup {
    inner: Mutex<GroupInner>,
    faults: Arc<FaultInjector>,
    /// Every machine's capacity, which [`Self::choose`] fits demand into.
    capacity: ResourceVector,
}

impl ControllerGroup {
    /// A group of `replicas` controller nodes (min 1) with deterministic
    /// election timing derived from `seed`, placing onto machines of
    /// `capacity`.
    pub(crate) fn new(
        replicas: usize,
        seed: u64,
        capacity: ResourceVector,
        faults: Arc<FaultInjector>,
        dbs: Arc<Dbs>,
    ) -> Self {
        let n = replicas.max(1);
        let voters: Vec<NodeId> = (0..n as NodeId).collect();
        let nodes: Vec<RaftNode<MetaState>> = (0..n)
            .map(|i| {
                RaftNode::new(
                    Config::new(i as NodeId, voters.clone(), seed),
                    MetaState::default(),
                )
            })
            .collect();
        ControllerGroup {
            inner: Mutex::new(
                &CTRL_META,
                GroupInner {
                    crashed: vec![false; n],
                    isolated: vec![false; n],
                    queue: VecDeque::new(),
                    last_won: vec![0; n],
                    elections: Vec::new(),
                    fresh_elections: Vec::new(),
                    dbs,
                    fingerprints: BTreeMap::new(),
                    diverged: BTreeMap::new(),
                    seen: vec![0; n],
                    read_from: 0,
                    acked_decisions: BTreeSet::new(),
                    resolved_decisions: BTreeSet::new(),
                    next_req: 0,
                    nodes,
                },
            ),
            faults,
            capacity,
        }
    }

    // ------------------------------------------------------------ plumbing

    /// Record observable progress on node `i`: elections won and commands
    /// applied (for the invariant checkers), and bump the routing epoch
    /// if an applied command changed some database's route.
    fn observe(inner: &mut GroupInner, i: usize) {
        let won = inner.nodes[i].elections_won();
        if won > inner.last_won[i] {
            inner.last_won[i] = won;
            let t = inner.nodes[i].term();
            inner.elections.push((t, i as NodeId));
            inner.fresh_elections.push((t, i as NodeId));
        }
        let mut moved = false;
        for (idx, cmd) in inner.nodes[i].take_applied() {
            // A node caught up by `InstallSnapshot` applied none of the
            // entries its new state folds in: any database may have moved.
            moved |= idx != inner.seen[i] + 1 || cmd.routes();
            inner.seen[i] = idx;
            inner.fingerprint(i, idx, hash_cmd(&cmd));
        }
        let applied = inner.nodes[i].last_applied();
        if moved || applied != inner.seen[i] {
            inner.seen[i] = applied;
            inner.dbs.bump();
        }
        // Every node at or past an index applied it (or skipped it).
        let floor = inner.nodes.iter().map(|n| n.last_applied()).min();
        while let Some(e) = inner.fingerprints.first_entry() {
            if floor.is_none_or(|f| *e.key() > f) {
                break;
            }
            e.remove();
        }
        inner.reread();
    }

    /// Deliver queued messages to quiescence. Messages to or from crashed
    /// or isolated replicas are dropped (fail-stop; partitions are total).
    fn pump(inner: &mut GroupInner) {
        while let Some(m) = inner.queue.pop_front() {
            let (f, t) = (m.from as usize, m.to as usize);
            if inner.crashed[f] || inner.crashed[t] || inner.isolated[f] || inner.isolated[t] {
                continue;
            }
            let out = inner.nodes[t].step(m);
            inner.queue.extend(out);
            Self::observe(inner, t);
        }
    }

    /// One tick on every non-crashed replica (isolated replicas tick too —
    /// their messages just never arrive), then pump.
    fn tick_all(inner: &mut GroupInner) {
        for i in 0..inner.nodes.len() {
            if !inner.crashed[i] {
                let out = inner.nodes[i].tick();
                inner.queue.extend(out);
                Self::observe(inner, i);
            }
        }
        Self::pump(inner);
    }

    /// Tick until a usable leader exists: alive, connected, and at the
    /// highest term on the connected side. Returns `None` when fewer than a
    /// quorum of replicas are alive and connected — no election can succeed.
    fn wait_leader(inner: &mut GroupInner) -> Option<usize> {
        let n = inner.nodes.len();
        let quorum = n / 2 + 1;
        for _ in 0..TICK_BUDGET {
            let connected: Vec<usize> = (0..n)
                .filter(|&i| !inner.crashed[i] && !inner.isolated[i])
                .collect();
            if connected.len() < quorum {
                return None;
            }
            let max_term = connected
                .iter()
                .map(|&i| inner.nodes[i].term())
                .max()
                .unwrap_or(0);
            if let Some(&l) = connected
                .iter()
                .find(|&&i| inner.nodes[i].is_leader() && inner.nodes[i].term() == max_term)
            {
                return Some(l);
            }
            Self::tick_all(inner);
        }
        None
    }

    /// Propose the command built by `make` (from the leader's applied
    /// state, so check-then-propose is linearizable) and pump it to quorum.
    fn submit(&self, make: impl FnMut(&MetaState) -> Result<MetaCommand>) -> Result<()> {
        self.submit_full(make, |_| ()).result
    }

    /// [`Self::submit`] with full plumbing: every proposal is wrapped in a
    /// `Tagged` exactly-once envelope, so a retry after an ambiguous
    /// leader change can never double-apply — and a retry that finds its
    /// own earlier attempt already applied reports success instead of a
    /// spurious precondition failure from `make` observing its own effect.
    /// On success `check` runs against the leader's applied state in the
    /// same critical section, so callers can read the post-apply outcome
    /// atomically with the proposal.
    fn submit_full<R>(
        &self,
        mut make: impl FnMut(&MetaState) -> Result<MetaCommand>,
        check: impl FnOnce(&MetaState) -> R,
    ) -> SubmitOutcome<R> {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        let req = inner.next_req;
        inner.next_req += 1;
        // Whether any proposal was appended to a leader's log: once true,
        // an `Err` result no longer proves the command did not commit.
        let mut proposed = false;
        for _ in 0..5 {
            let Some(l) = Self::wait_leader(inner) else {
                // Quorum lost: no election can succeed, so there is no
                // leader to redirect to. Clients see a retryable
                // leadership error (the net tier forwards it as wire
                // tag 8; `NetClient` retries after a backoff).
                return SubmitOutcome {
                    result: Err(ClusterError::NotLeader { hint: None }),
                    proposed,
                };
            };
            // The controller-side crash point: a `Crash` here kills the
            // *leader replica* right before the proposal, forcing the next
            // attempt through an election. A single-replica group ignores
            // Crash (there is no failover to exercise, only deadlock).
            match self.faults.check(CrashPoint::CtrlPropose, CONTROLLER) {
                Some(FaultAction::Crash) if inner.nodes.len() > 1 => {
                    inner.crashed[l] = true;
                    continue;
                }
                Some(FaultAction::Delay(_)) => {
                    // A slow controller: let group time pass instead.
                    for _ in 0..3 {
                        Self::tick_all(inner);
                    }
                }
                _ => {}
            }
            // A prior attempt may have committed despite being reported
            // ambiguous; if its envelope already applied, this call
            // already succeeded.
            if inner.nodes[l].state().applied_reqs.contains(&req) {
                return SubmitOutcome {
                    result: Ok(check(inner.nodes[l].state())),
                    proposed,
                };
            }
            let cmd = match make(inner.nodes[l].state()) {
                Ok(c) => c,
                Err(e) => {
                    return SubmitOutcome {
                        result: Err(e),
                        proposed,
                    }
                }
            };
            let term = inner.nodes[l].term();
            let Ok((idx, out)) = inner.nodes[l].propose(MetaCommand::Tagged {
                req,
                cmd: Box::new(cmd),
            }) else {
                continue;
            };
            proposed = true;
            inner.queue.extend(out);
            Self::observe(inner, l);
            Self::pump(inner);
            for _ in 0..TICK_BUDGET {
                if inner.nodes[l].last_applied() >= idx {
                    if inner.nodes[l].term() == term {
                        return SubmitOutcome {
                            result: Ok(check(inner.nodes[l].state())),
                            proposed,
                        };
                    }
                    break; // deposed mid-flight: outcome ambiguous, retry
                }
                if inner.crashed[l] || !inner.nodes[l].is_leader() || inner.nodes[l].term() != term
                {
                    break;
                }
                Self::tick_all(inner);
            }
        }
        // Five elections in a row deposed the proposer mid-flight. Surface
        // the current leader (if any) as a redirect hint for the client.
        let hint = (0..inner.nodes.len())
            .find(|&i| !inner.crashed[i] && !inner.isolated[i] && inner.nodes[i].is_leader())
            .map(|i| i as u32);
        SubmitOutcome {
            result: Err(ClusterError::NotLeader { hint }),
            proposed,
        }
    }

    /// The replica to serve a read: the leaseholder if one exists (leases
    /// guarantee no newer leader can have committed past it), otherwise the
    /// most-caught-up alive replica.
    fn read_node(inner: &GroupInner) -> usize {
        if let Some(l) = (0..inner.nodes.len())
            .find(|&i| !inner.crashed[i] && !inner.isolated[i] && inner.nodes[i].has_lease())
        {
            return l;
        }
        (0..inner.nodes.len())
            .filter(|&i| !inner.crashed[i])
            .max_by_key(|&i| inner.nodes[i].last_applied())
            .unwrap_or(0)
    }

    fn read<R>(&self, f: impl FnOnce(&MetaState) -> R) -> R {
        let inner = self.inner.lock();
        let i = Self::read_node(&inner);
        f(inner.nodes[i].state())
    }

    // ----------------------------------------------------- typed commands

    /// Install a placement for `name` whose replicas each demand `demand`,
    /// pinning reads to the machine with the fewest pinned databases. Fails
    /// if the name exists.
    pub(crate) fn create_db(
        &self,
        name: &str,
        machines: &[MachineId],
        demand: ResourceVector,
    ) -> SubmitOutcome<()> {
        let name_s = name.to_string();
        let machines = machines.to_vec();
        let make = move |st: &MetaState| {
            if st.placements.contains_key(&name_s) {
                return Err(ClusterError::AlreadyExists(name_s.clone()));
            }
            let pinned = machines
                .iter()
                .copied()
                .min_by_key(|m| (st.tally.get(m).map_or(0, |t| t.pinned), *m))
                .ok_or(ClusterError::NoMachines)?;
            Ok(MetaCommand::CreateDb {
                name: name_s.clone(),
                replicas: machines.clone(),
                pinned,
                demand,
            })
        };
        self.submit_full(make, |_| ())
    }

    /// Remove `db`'s placement (and copy/SLA state), returning the removed
    /// placement so the caller can clean up the hosting engines.
    pub(crate) fn drop_db(&self, db: &str) -> Result<Placement> {
        let db_s = db.to_string();
        let mut removed: Option<Placement> = None;
        self.submit(|st| {
            let p = st
                .placements
                .get(&db_s)
                .cloned()
                .ok_or_else(|| ClusterError::NoSuchDatabase(db_s.clone()))?;
            removed = Some(p);
            Ok(MetaCommand::DropDb { name: db_s.clone() })
        })?;
        removed.ok_or_else(|| ClusterError::NoSuchDatabase(db.to_string()))
    }

    /// Add a machine to `db`'s replica set (best-effort, idempotent).
    pub(crate) fn add_replica(&self, db: &str, machine: MachineId) {
        let _ = self.submit(|_| {
            Ok(MetaCommand::AddReplica {
                db: db.to_string(),
                machine,
            })
        });
    }

    /// Remove a machine from `db`'s replica set (best-effort, idempotent).
    /// `owed`: the machine died and the database is owed a new replica
    /// (see [`Self::detach_machine`]).
    pub(crate) fn remove_replica(&self, db: &str, machine: MachineId, owed: bool) {
        let _ = self.submit(|_| {
            Ok(MetaCommand::RemoveReplica {
                db: db.to_string(),
                machine,
                owed,
            })
        });
    }

    /// Begin recovering a failed machine: strip it from every replica set
    /// (reads and writes are served by the survivors from here on) and
    /// return every database that had a replica on it when it failed —
    /// those still placed there plus those a connection already dropped
    /// while masking the failure.
    pub(crate) fn detach_machine(&self, machine: MachineId) -> Vec<String> {
        let mut dbs = BTreeSet::new();
        let _ = self.submit(|st| {
            dbs = st
                .placements
                .iter()
                .filter(|(_, p)| p.replicas.contains(&machine))
                .map(|(db, _)| db)
                .chain(
                    st.owed
                        .iter()
                        .filter(|(m, _)| *m == machine)
                        .map(|(_, db)| db),
                )
                .cloned()
                .collect();
            Ok(MetaCommand::DetachMachine { machine })
        });
        dbs.into_iter().collect()
    }

    /// Start tracking an Algorithm-1 copy of `db` onto `target`, or, with
    /// none given, onto the machine [`Self::choose`] picks from the
    /// leader's applied state inside the proposal, so two copies cannot
    /// race to one machine. Returns the target the copy committed with.
    pub(crate) fn begin_copy(
        &self,
        db: &str,
        target: Option<MachineId>,
        alive: &[MachineId],
        db_level: bool,
    ) -> Result<MachineId> {
        self.submit_full(
            |st| {
                let target = match target {
                    Some(t) => t,
                    None => {
                        let p = st
                            .placements
                            .get(db)
                            .ok_or_else(|| ClusterError::NoSuchDatabase(db.to_string()))?;
                        st.choose(db, 1, p.demand, alive, self.capacity)?[0]
                    }
                };
                Ok(MetaCommand::BeginCopy {
                    db: db.to_string(),
                    target,
                    db_level,
                })
            },
            |st| st.copies.get(db).map(|c| c.target),
        )
        .result?
        .ok_or_else(|| ClusterError::NoSuchDatabase(db.to_string()))
    }

    /// Record the table currently being copied.
    pub(crate) fn set_copy_current(&self, db: &str, table: Option<&str>) {
        let _ = self.submit(|_| {
            Ok(MetaCommand::SetCopyCurrent {
                db: db.to_string(),
                table: table.map(String::from),
            })
        });
    }

    /// Move a table into the copied set.
    pub(crate) fn mark_copied(&self, db: &str, table: &str) {
        let _ = self.submit(|_| {
            Ok(MetaCommand::MarkCopied {
                db: db.to_string(),
                table: table.to_string(),
            })
        });
    }

    /// Finish a copy: the target joins the replica set. Returns the final
    /// progress (pre-removal) so the caller can emit events, or `None` if
    /// no copy was in flight.
    pub(crate) fn finish_copy(&self, db: &str) -> Option<CopyProgress> {
        let mut progress: Option<CopyProgress> = None;
        let r = self.submit(|st| match st.copies.get(db) {
            Some(c) => {
                progress = Some(c.clone());
                Ok(MetaCommand::FinishCopy { db: db.to_string() })
            }
            None => Err(ClusterError::NoSuchDatabase(db.to_string())),
        });
        if r.is_err() {
            return None;
        }
        progress
    }

    /// Abandon a copy. Returns whether one was in flight.
    pub(crate) fn abandon_copy(&self, db: &str) -> bool {
        let mut existed = false;
        let r = self.submit(|st| {
            if st.copies.contains_key(db) {
                existed = true;
                Ok(MetaCommand::AbandonCopy { db: db.to_string() })
            } else {
                Err(ClusterError::NoSuchDatabase(db.to_string()))
            }
        });
        r.is_ok() && existed
    }

    /// Propose one decision-log command for a [`twopc`](crate::twopc)
    /// driver and read its verdict from the same applied state. A failure
    /// is `NotProposed` when no proposal reached a leader's log (the
    /// command can never apply), `Unknown` otherwise.
    pub(crate) fn propose(&self, cmd: Command) -> Verdict {
        let resolving = match cmd {
            Command::Resolve(gtxn, ..) => Some(gtxn),
            _ => None,
        };
        let open = |st: &MetaState| resolving.is_some_and(|g| st.decisions.get(g).is_some());
        let mut was_open = false;
        let out = self.submit_full(
            |st| {
                was_open = open(st);
                Ok(MetaCommand::Decision(cmd.clone()))
            },
            |st| (st.decisions.answer(&cmd), open(st)),
        );
        let (verdict, still_open) = match out.result {
            Ok(r) => r,
            Err(e) if out.proposed => return Verdict::Unknown(e),
            Err(e) => return Verdict::NotProposed(e),
        };
        // The acked-decision ledger: a decision is acked once its
        // coordinator learns it stands, and leaves the ledger when its last
        // `Resolve` removes it. Only a never-acked decision is aborted.
        match (&cmd, &verdict) {
            (Command::Log(gtxn, _) | Command::Abort(gtxn), Verdict::Commit) => {
                self.inner.lock().ledger(*gtxn, true)
            }
            (Command::Abort(gtxn), _) => _ = self.inner.lock().acked_decisions.remove(gtxn),
            (Command::Resolve(gtxn, ..), _) if was_open && !still_open => {
                self.inner.lock().ledger(*gtxn, false)
            }
            _ => {}
        }
        verdict
    }

    /// Record a database's SLA.
    pub(crate) fn set_sla(&self, db: &str, sla: Sla) -> Result<()> {
        self.submit(|_| {
            Ok(MetaCommand::SetSla {
                db: db.to_string(),
                sla,
            })
        })
    }

    /// Raise the fencing epoch to at least `epoch` (monotonic: a stale
    /// proposal can never lower it) and return the post-apply value. The
    /// quorum round matters: once this returns, no minority partition of
    /// *this* controller group can serve an un-fenced write authority.
    pub(crate) fn set_geo_epoch(&self, epoch: u64) -> Result<u64> {
        self.submit_full(
            |_| Ok(MetaCommand::SetGeoEpoch { epoch }),
            |st| st.geo_epoch,
        )
        .result
    }

    // -------------------------------------------------------------- reads

    /// The `n` machines Algorithm 2 would place a new replica set of `db`
    /// on, each replica demanding `demand`: of the `alive` machines that
    /// neither host nor are receiving `db`, those where the tally's load
    /// plus `demand` fits the machine capacity, fewest hosted databases
    /// first, then lowest id. `NoMachines` when fewer than `n` have room.
    pub(crate) fn choose(
        &self,
        db: &str,
        n: usize,
        demand: ResourceVector,
        alive: &[MachineId],
    ) -> Result<Vec<MachineId>> {
        self.read(|st| st.choose(db, n, demand, alive, self.capacity))
    }

    /// What the placements and copies in flight put on `machine`.
    pub(crate) fn tally(&self, machine: MachineId) -> MachineTally {
        self.read(|st| st.tally.get(&machine).copied().unwrap_or_default())
    }

    /// How many databases have a placement.
    pub(crate) fn database_count(&self) -> usize {
        self.read(|st| st.placements.len())
    }

    /// A database's placement, if it exists.
    pub(crate) fn placement(&self, db: &str) -> Option<Placement> {
        self.read(|st| st.placements.get(db).cloned())
    }

    /// Every database name, sorted.
    pub(crate) fn database_names(&self) -> Vec<String> {
        self.read(|st| st.placements.keys().cloned().collect())
    }

    /// Databases with a replica on `machine`.
    pub(crate) fn databases_on(&self, machine: MachineId) -> Vec<String> {
        self.read(|st| {
            st.placements
                .iter()
                .filter(|(_, p)| p.replicas.contains(&machine))
                .map(|(db, _)| db.clone())
                .collect()
        })
    }

    /// The in-flight copy state for `db`, if any.
    pub(crate) fn copy_progress(&self, db: &str) -> Option<CopyProgress> {
        self.read(|st| st.copies.get(db).cloned())
    }

    /// Placement and in-flight copy state for `db`, read under **one**
    /// applied-state snapshot. Statement routing must use this instead of
    /// separate [`Self::placement`] + [`Self::copy_progress`] calls: two
    /// reads can straddle a `SetCopyCurrent`/`FinishCopy` transition and
    /// route a write with a placement/copy pair that never coexisted.
    pub(crate) fn route_info(&self, db: &str) -> Option<(Placement, Option<CopyProgress>)> {
        self.read(|st| {
            st.placements
                .get(db)
                .map(|p| (p.clone(), st.copies.get(db).cloned()))
        })
    }

    /// Every unresolved 2PC decision with its unresolved participants, a
    /// committed marker with none.
    pub(crate) fn decisions(&self) -> Vec<(GTxn, Vec<Participant>)> {
        self.read(|st| st.decisions.iter().map(|(g, p)| (g, p.to_vec())).collect())
    }

    /// The participants a restart abandoned that no `Log` or takeover has
    /// cleared yet.
    pub fn tombstones(&self) -> Vec<Participant> {
        self.read(|st| st.decisions.tombstones().collect())
    }

    /// A database's recorded SLA, if any.
    pub(crate) fn sla(&self, db: &str) -> Option<Sla> {
        self.read(|st| st.slas.get(db).copied())
    }

    /// The highest durably-observed cross-colo fencing epoch.
    pub(crate) fn geo_epoch(&self) -> u64 {
        self.read(|st| st.geo_epoch)
    }

    // ----------------------------------------------------------- failover

    /// Crash one controller replica (fail-stop; stable state survives for
    /// [`restart`](Self::restart)). Returns false if already crashed or
    /// out of range.
    pub fn crash(&self, node: NodeId) -> bool {
        let mut inner = self.inner.lock();
        let i = node as usize;
        if i >= inner.nodes.len() || inner.crashed[i] {
            return false;
        }
        inner.crashed[i] = true;
        inner.reread();
        true
    }

    /// Crash the current leader replica (electing one first if needed).
    /// Returns the crashed replica id, or `None` without a live quorum.
    pub fn crash_leader(&self) -> Option<NodeId> {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        let l = Self::wait_leader(inner)?;
        inner.crashed[l] = true;
        inner.reread();
        Some(l as NodeId)
    }

    /// Restart a crashed replica: volatile Raft state resets, persistent
    /// state (term, vote, log, applied metadata) survives. Catchup happens
    /// on the next group activity. Returns false if it was not crashed.
    pub fn restart(&self, node: NodeId) -> bool {
        let mut inner = self.inner.lock();
        let i = node as usize;
        if i >= inner.nodes.len() || !inner.crashed[i] {
            return false;
        }
        inner.crashed[i] = false;
        inner.nodes[i].restart();
        inner.reread();
        true
    }

    /// Partition one replica away from the rest of the group (it stays
    /// alive but no message crosses the cut). Returns false if out of range.
    pub fn isolate(&self, node: NodeId) -> bool {
        let mut inner = self.inner.lock();
        let i = node as usize;
        if i >= inner.nodes.len() {
            return false;
        }
        inner.isolated[i] = true;
        inner.reread();
        true
    }

    /// Heal every partition.
    pub fn heal(&self) {
        let mut inner = self.inner.lock();
        inner.isolated.iter_mut().for_each(|p| *p = false);
        inner.reread();
    }

    /// Force every alive replica to fold its applied entries into a
    /// snapshot (restarted laggards must then catch up via
    /// `InstallSnapshot` rather than log replay).
    pub fn compact(&self) {
        let mut inner = self.inner.lock();
        for i in 0..inner.nodes.len() {
            if !inner.crashed[i] {
                inner.nodes[i].compact();
            }
        }
    }

    /// Drive an election to completion if no usable leader exists. Returns
    /// the leader id, or `None` without a live connected quorum.
    pub fn ensure_leader(&self) -> Option<NodeId> {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        Self::wait_leader(inner).map(|l| l as NodeId)
    }

    /// Heal partitions, restart crashed replicas, re-elect, and pump until
    /// every replica converges (the sim harness's end-of-run step).
    pub fn quiesce(&self) {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        for i in 0..inner.nodes.len() {
            inner.isolated[i] = false;
            if inner.crashed[i] {
                inner.crashed[i] = false;
                inner.nodes[i].restart();
            }
        }
        let _ = Self::wait_leader(inner);
        for _ in 0..40 {
            Self::tick_all(inner);
        }
    }

    /// Point-in-time group status (read-only: never drives elections).
    pub fn status(&self) -> CtrlStatus {
        let inner = self.inner.lock();
        let n = inner.nodes.len();
        let alive: Vec<usize> = (0..n).filter(|&i| !inner.crashed[i]).collect();
        let connected: Vec<usize> = alive
            .iter()
            .copied()
            .filter(|&i| !inner.isolated[i])
            .collect();
        let max_term = connected
            .iter()
            .map(|&i| inner.nodes[i].term())
            .max()
            .unwrap_or(0);
        let leader = connected
            .iter()
            .copied()
            .find(|&i| inner.nodes[i].is_leader() && inner.nodes[i].term() == max_term);
        let applied: Vec<u64> = alive
            .iter()
            .map(|&i| inner.nodes[i].last_applied())
            .collect();
        CtrlStatus {
            replicas: n,
            leader: leader.map(|l| l as NodeId),
            term: alive
                .iter()
                .map(|&i| inner.nodes[i].term())
                .max()
                .unwrap_or(0),
            commit_index: alive
                .iter()
                .map(|&i| inner.nodes[i].commit_index())
                .max()
                .unwrap_or(0),
            replication_lag: applied.iter().max().unwrap_or(&0)
                - applied.iter().min().unwrap_or(&0),
            elections: inner.elections.len() as u64,
            leader_has_lease: leader.is_some_and(|l| inner.nodes[l].has_lease()),
            crashed: (0..n)
                .filter(|&i| inner.crashed[i])
                .map(|i| i as NodeId)
                .collect(),
            isolated: (0..n)
                .filter(|&i| inner.isolated[i])
                .map(|i| i as NodeId)
                .collect(),
        }
    }

    /// Drain elections observed since the last drain, as (term, winner) —
    /// the controller turns these into `ctrl_elected` events and counter
    /// bumps.
    pub fn take_elections(&self) -> Vec<(Term, NodeId)> {
        std::mem::take(&mut self.inner.lock().fresh_elections)
    }

    /// Check the group's safety invariants; each violation is described in
    /// one line. Empty = healthy. The checks map to Raft properties (see
    /// DESIGN.md §12):
    ///
    /// 1. **single-leader-per-term** (Election Safety): no term ever saw
    ///    two distinct winners;
    /// 2. **applied-prefix consistency** (Log Matching + State Machine
    ///    Safety): every pair of replicas applied the same command sequence
    ///    up to the shorter one's length — two leaders can therefore never
    ///    have committed conflicting placements;
    /// 3. **acked-decision durability** (Leader Completeness): every 2PC
    ///    decision acknowledged to a coordinator and not since resolved is
    ///    still in the log.
    pub fn invariant_violations(&self) -> Vec<String> {
        let inner = self.inner.lock();
        let mut v = Vec::new();
        let mut by_term: BTreeMap<Term, NodeId> = BTreeMap::new();
        for &(t, node) in &inner.elections {
            match by_term.get(&t) {
                Some(&prev) if prev != node => v.push(format!(
                    "two leaders elected in term {t}: controller {prev} and controller {node}"
                )),
                Some(_) => {}
                None => {
                    by_term.insert(t, node);
                }
            }
        }
        for (&(a, b), idx) in &inner.diverged {
            v.push(format!(
                "applied logs diverge between controller {a} and controller {b} \
                 at log index {idx}"
            ));
        }
        let i = Self::read_node(&inner);
        let st = inner.nodes[i].state();
        for &g in &inner.acked_decisions {
            if st.decisions.get(g).is_none() {
                v.push(format!("quorum-acked 2PC decision {g:?} lost"));
            }
        }
        v
    }

    /// Number of controller replicas.
    pub fn replicas(&self) -> usize {
        self.inner.lock().nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::twopc::Command::{Abort, Claim, Log};
    use crate::twopc::Role::{Coordinator, Restart};
    use tenantdb_storage::TxnId;

    fn resolve(gtxn: GTxn, settled: &[u32], by: Role) -> Command {
        let settled = settled.iter().map(|&i| m(i)).collect();
        Command::Resolve(gtxn, settled, by)
    }

    fn group(n: usize) -> ControllerGroup {
        ControllerGroup::new(
            n,
            7,
            ResourceVector::ZERO,
            FaultInjector::disarmed(),
            Arc::default(),
        )
    }

    fn m(n: u32) -> MachineId {
        MachineId(n)
    }

    /// The fingerprint tells apart what the agreement check must: another
    /// name, FLOAT demand (by its bits), wrapper or 2PC role; and equal
    /// commands (`-0.0` demand is `0.0`) hash alike.
    #[test]
    fn command_fingerprints_follow_the_structure() {
        let create = |name: &str, cpu: f64| MetaCommand::CreateDb {
            name: name.into(),
            replicas: vec![m(0), m(1)],
            pinned: m(0),
            demand: ResourceVector {
                cpu,
                ..ResourceVector::ZERO
            },
        };
        let base = hash_cmd(&create("app", 1.0));
        assert_eq!(hash_cmd(&create("app", 1.0)), base);
        assert_eq!(
            hash_cmd(&create("app", -0.0)),
            hash_cmd(&create("app", 0.0))
        );
        for other in [
            create("apq", 1.0),
            create("app", 1.0 + f64::EPSILON),
            MetaCommand::Tagged {
                req: 1,
                cmd: Box::new(create("app", 1.0)),
            },
            MetaCommand::Decision(resolve(GTxn(1), &[0], Coordinator)),
        ] {
            assert_ne!(hash_cmd(&other), base, "{other:?}");
        }
        assert_ne!(
            hash_cmd(&MetaCommand::Decision(resolve(GTxn(1), &[0], Coordinator))),
            hash_cmd(&MetaCommand::Decision(resolve(GTxn(1), &[0], Restart))),
        );
    }

    #[test]
    fn single_replica_group_behaves_like_a_map() {
        let g = group(1);
        g.create_db("app", &[m(0), m(1)], ResourceVector::ZERO)
            .result
            .unwrap();
        assert_eq!(g.placement("app").unwrap().replicas, vec![m(0), m(1)]);
        assert!(
            g.create_db("app", &[m(0)], ResourceVector::ZERO)
                .result
                .is_err(),
            "duplicate"
        );
        assert_eq!(g.database_names(), vec!["app"]);
        let removed = g.drop_db("app").unwrap();
        assert_eq!(removed.replicas.len(), 2);
        assert!(g.placement("app").is_none());
        assert!(g.invariant_violations().is_empty());
    }

    #[test]
    fn three_replicas_survive_leader_crash() {
        let g = group(3);
        g.create_db("a", &[m(0)], ResourceVector::ZERO)
            .result
            .unwrap();
        let dead = g.crash_leader().expect("leader existed");
        // Writes still work: the survivors elect a new leader inline.
        g.create_db("b", &[m(1)], ResourceVector::ZERO)
            .result
            .unwrap();
        assert_eq!(g.database_names(), vec!["a", "b"]);
        let s = g.status();
        assert_eq!(s.crashed, vec![dead]);
        assert_ne!(s.leader, Some(dead));
        assert!(
            g.invariant_violations().is_empty(),
            "{:?}",
            g.invariant_violations()
        );
    }

    #[test]
    fn quorum_loss_rejects_writes_and_heals() {
        let g = group(3);
        g.create_db("a", &[m(0)], ResourceVector::ZERO)
            .result
            .unwrap();
        let l = g.crash_leader().unwrap();
        let next = (0..3).find(|i| *i != l).unwrap();
        g.crash(next);
        assert!(
            g.create_db("b", &[m(1)], ResourceVector::ZERO)
                .result
                .is_err(),
            "no quorum"
        );
        // Reads still serve from the survivor's applied state.
        assert_eq!(g.database_names(), vec!["a"]);
        g.restart(l);
        g.restart(next);
        g.create_db("b", &[m(1)], ResourceVector::ZERO)
            .result
            .unwrap();
        assert!(g.invariant_violations().is_empty());
    }

    #[test]
    fn decisions_survive_leader_crash() {
        let g = group(3);
        let gtxn = GTxn(42);
        let participants = vec![(m(0), TxnId(7)), (m(1), TxnId(9))];
        assert_eq!(g.propose(Log(gtxn, participants)), Verdict::Commit);
        g.crash_leader().unwrap();
        let d = g.decisions();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].0, gtxn);
        g.propose(resolve(gtxn, &[0], Coordinator));
        assert_eq!(g.decisions()[0].1, vec![(m(1), TxnId(9))]);
        g.propose(resolve(gtxn, &[1], Restart));
        assert!(g.decisions().is_empty());
        assert!(
            g.invariant_violations().is_empty(),
            "{:?}",
            g.invariant_violations()
        );
    }

    #[test]
    fn restarted_replica_catches_up_via_snapshot() {
        let g = group(3);
        g.create_db("a", &[m(0)], ResourceVector::ZERO)
            .result
            .unwrap();
        let victim = {
            // Crash a follower, not the leader.
            let leader = g.ensure_leader().unwrap();
            (0..3).find(|i| *i != leader).unwrap()
        };
        g.crash(victim);
        for i in 0..10 {
            g.create_db(&format!("db{i}"), &[m(0)], ResourceVector::ZERO)
                .result
                .unwrap();
        }
        g.compact();
        g.restart(victim);
        g.quiesce();
        let s = g.status();
        assert_eq!(s.replication_lag, 0, "restarted replica caught up: {s:?}");
        assert!(
            g.invariant_violations().is_empty(),
            "{:?}",
            g.invariant_violations()
        );
    }

    /// The agreement check has teeth: a follower that catches up by log
    /// replay is compared index by index with what was applied first, so
    /// a corrupted first fingerprint is reported against it.
    #[test]
    fn a_corrupted_applied_fingerprint_is_reported() {
        let g = group(3);
        let leader = g.ensure_leader().unwrap() as usize;
        let victim = (0..3).find(|i| *i != leader).unwrap();
        g.crash(victim as NodeId);
        for i in 0..5 {
            g.create_db(&format!("db{i}"), &[m(0)], ResourceVector::ZERO)
                .result
                .unwrap();
        }
        {
            // Kept while the crashed follower can still apply them.
            let mut inner = g.inner.lock();
            let floor = inner.nodes[victim].last_applied();
            assert!(inner.fingerprints.keys().any(|&i| i > floor));
            for (h, _) in inner.fingerprints.values_mut() {
                *h ^= 1;
            }
        }
        g.restart(victim as NodeId);
        g.quiesce();
        let v = g.invariant_violations();
        assert!(
            v.iter()
                .any(|l| l.contains("diverge") && l.contains(&format!("controller {victim}"))),
            "{v:?}"
        );
    }

    /// With every replica up, the agreement check keeps only the indices
    /// some replica has yet to apply, not one per applied command.
    #[test]
    fn applied_fingerprints_stay_bounded() {
        let g = group(3);
        for epoch in 0..10_000 {
            g.set_geo_epoch(epoch).unwrap();
        }
        let kept = g.inner.lock().fingerprints.len();
        assert!(kept <= 4, "{kept} fingerprints kept");
        assert!(g.invariant_violations().is_empty());
    }

    #[test]
    fn partitioned_minority_heals_without_divergence() {
        let g = group(3);
        g.create_db("a", &[m(0)], ResourceVector::ZERO)
            .result
            .unwrap();
        let leader = g.ensure_leader().unwrap();
        g.isolate(leader);
        // The connected majority elects a new leader and keeps serving.
        g.create_db("b", &[m(1)], ResourceVector::ZERO)
            .result
            .unwrap();
        g.heal();
        g.quiesce();
        assert_eq!(g.database_names(), vec!["a", "b"]);
        assert_eq!(g.status().replication_lag, 0);
        assert!(
            g.invariant_violations().is_empty(),
            "{:?}",
            g.invariant_violations()
        );
    }

    #[test]
    fn tagged_envelope_applies_exactly_once() {
        // A submit retry after an ambiguous leader change can commit the
        // same envelope twice; only the first copy may apply.
        let mut st = MetaState::default();
        let cmd = MetaCommand::Tagged {
            req: 1,
            cmd: Box::new(MetaCommand::AddReplica {
                db: "app".into(),
                machine: m(9),
            }),
        };
        st.placements.insert(
            "app".into(),
            Placement {
                replicas: vec![m(0)],
                pinned: m(0),
                demand: ResourceVector::ZERO,
            },
        );
        st.apply(1, &cmd);
        st.apply(2, &cmd);
        assert_eq!(st.placements["app"].replicas, vec![m(0), m(9)]);
        // Applying a later id prunes the earlier one (no older duplicate
        // can still commit once a newer id has applied).
        st.apply(
            3,
            &MetaCommand::Tagged {
                req: 2,
                cmd: Box::new(MetaCommand::Noop),
            },
        );
        assert!(!st.applied_reqs.contains(&1));
        assert!(st.applied_reqs.contains(&2));
    }

    /// The machine tally `choose` and `create_db` read is what a recount
    /// of `placements` + `copies` gives, after every command of seeded
    /// random histories (duplicate envelopes, snapshot restores and copies
    /// begun, finished and abandoned included). Loads are summed with `+`
    /// and `−` in another order than the recount's, so they compare within
    /// a float tolerance.
    #[test]
    fn pin_tally_matches_a_recount() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        fn recount(st: &MetaState) -> BTreeMap<MachineId, MachineTally> {
            let mut tally: BTreeMap<MachineId, MachineTally> = BTreeMap::new();
            let dbs: BTreeSet<&String> = st.placements.keys().chain(st.copies.keys()).collect();
            for db in dbs {
                let p = st.placements.get(db);
                let demand = p.map_or(ResourceVector::ZERO, |p| p.demand);
                let mut on: BTreeSet<MachineId> = p
                    .map(|p| p.replicas.iter().copied().collect())
                    .unwrap_or_default();
                on.extend(st.copies.get(db).map(|c| c.target));
                for m in on {
                    let t = tally.entry(m).or_default();
                    t.hosted += 1;
                    t.load += demand;
                }
                if let Some(p) = p {
                    tally.entry(p.pinned).or_default().pinned += 1;
                }
            }
            tally
        }
        fn assert_recounts(st: &MetaState, what: &dyn Fn() -> String) {
            let want = recount(st);
            let counts = |t: &BTreeMap<MachineId, MachineTally>| -> Vec<(MachineId, usize, usize)> {
                t.iter().map(|(m, t)| (*m, t.hosted, t.pinned)).collect()
            };
            assert_eq!(counts(&st.tally), counts(&want), "{}", what());
            for (m, t) in &st.tally {
                let d = t.load - want[m].load;
                let worst = [d.cpu, d.memory, d.disk_io, d.disk_size]
                    .iter()
                    .fold(0f64, |a, x| a.max(x.abs()));
                assert!(worst < 1e-6, "{}: load on {m} off by {worst}", what());
            }
        }
        fn random_cmd(rng: &mut StdRng) -> MetaCommand {
            let db = format!("db{}", rng.gen_range(0..6u32));
            let machine = m(rng.gen_range(0..5u32));
            match rng.gen_range(0..7u32) {
                0 | 1 => {
                    let mut replicas: Vec<MachineId> = Vec::new();
                    for _ in 0..rng.gen_range(1..=3usize) {
                        let r = m(rng.gen_range(0..5u32));
                        if !replicas.contains(&r) {
                            replicas.push(r);
                        }
                    }
                    let pinned = replicas[rng.gen_range(0..replicas.len())];
                    // Tenths do not round-trip through `+` and `−` exactly.
                    let mut tenths = || f64::from(rng.gen_range(0..10u32)) / 10.0;
                    let demand = ResourceVector::new(tenths(), tenths(), tenths(), tenths());
                    MetaCommand::CreateDb {
                        name: db,
                        replicas,
                        pinned,
                        demand,
                    }
                }
                2 => MetaCommand::DropDb { name: db },
                3 => MetaCommand::AddReplica { db, machine },
                4 => MetaCommand::RemoveReplica {
                    db,
                    machine,
                    owed: rng.gen_bool(0.5),
                },
                5 => MetaCommand::DetachMachine { machine },
                _ => match rng.gen_range(0..3u32) {
                    0 => MetaCommand::BeginCopy {
                        db,
                        target: machine,
                        db_level: false,
                    },
                    1 => MetaCommand::FinishCopy { db },
                    _ => MetaCommand::AbandonCopy { db },
                },
            }
        }

        for seed in 0..32 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut st = MetaState::default();
            let mut snap: Option<MetaState> = None;
            let mut last_tagged: Option<MetaCommand> = None;
            let mut req = 0;
            for step in 0..300u64 {
                let cmd = match rng.gen_range(0..12u32) {
                    0 => {
                        snap = Some(st.snapshot());
                        continue;
                    }
                    1 => {
                        if let Some(s) = &snap {
                            st.restore(s);
                        }
                        assert_recounts(&st, &|| format!("seed {seed} step {step}: restore"));
                        continue;
                    }
                    2 => match &last_tagged {
                        Some(dup) => dup.clone(),
                        None => continue,
                    },
                    3 | 4 => {
                        req += 1;
                        let tagged = MetaCommand::Tagged {
                            req,
                            cmd: Box::new(random_cmd(&mut rng)),
                        };
                        last_tagged = Some(tagged.clone());
                        tagged
                    }
                    _ => random_cmd(&mut rng),
                };
                st.apply(step, &cmd);
                assert_recounts(&st, &|| {
                    format!("seed {seed} step {step}: tally drifted after {cmd:?}")
                });
            }
        }
    }

    #[test]
    fn retry_after_applied_request_reports_success() {
        // create_db's check-then-propose closure must not mistake its own
        // earlier (committed) attempt for a duplicate on retry: the
        // request-id fast path answers before the closure runs again.
        let g = group(3);
        g.create_db("app", &[m(0)], ResourceVector::ZERO)
            .result
            .unwrap();
        // Simulate the retry arriving after its first attempt applied: the
        // same request id is already in applied_reqs, so submit_full
        // returns Ok without consulting the precondition closure.
        let outcome = {
            let mut guard = g.inner.lock();
            let inner = &mut *guard;
            let l = ControllerGroup::wait_leader(inner).unwrap();
            let st = inner.nodes[l].state();
            assert!(!st.applied_reqs.is_empty());
            st.placements.contains_key("app")
        };
        assert!(outcome);
    }

    #[test]
    fn abort_tombstone_wins_unclaimed_decision() {
        let g = group(3);
        let gtxn = GTxn(7);
        let participants = vec![(m(0), TxnId(1))];
        assert_eq!(g.propose(Log(gtxn, participants)), Verdict::Commit);
        // Coordinator-side arbitration of an (assumed ambiguous) decision:
        // nothing has claimed it, so the tombstone wins and the decision
        // can never take effect.
        assert_eq!(g.propose(Abort(gtxn)), Verdict::Abort);
        assert!(g.decisions().is_empty());
        // A recovery claim arriving later finds nothing to act on.
        assert_eq!(g.propose(Claim(gtxn)), Verdict::Abort);
        assert!(
            g.invariant_violations().is_empty(),
            "{:?}",
            g.invariant_violations()
        );
    }

    #[test]
    fn claimed_decision_refuses_abort() {
        let g = group(3);
        let gtxn = GTxn(8);
        let participants = vec![(m(0), TxnId(2))];
        assert_eq!(g.propose(Log(gtxn, participants)), Verdict::Commit);
        // A recovering participant claims first: the commit stands and the
        // coordinator's arbitration must proceed with phase 2.
        assert_eq!(g.propose(Claim(gtxn)), Verdict::Commit);
        assert_eq!(g.propose(Abort(gtxn)), Verdict::Commit);
        assert_eq!(g.decisions().len(), 1);
        // Resolution cleans the claim alongside the decision.
        g.propose(resolve(gtxn, &[0], Coordinator));
        assert!(g.decisions().is_empty());
        assert!(
            g.invariant_violations().is_empty(),
            "{:?}",
            g.invariant_violations()
        );
    }

    /// When every participant's restart claims and resolves a decision
    /// before its coordinator arbitrates an ambiguous `Log`, the
    /// arbitration still finds the commit: the decision stays a committed
    /// marker until the coordinator's own `Resolve`.
    #[test]
    fn arbitration_finds_a_decision_its_restarts_resolved() {
        let g = group(3);
        let gtxn = GTxn(13);
        let participants = vec![(m(0), TxnId(1)), (m(1), TxnId(2))];
        assert_eq!(g.propose(Log(gtxn, participants)), Verdict::Commit);
        assert_eq!(g.propose(Claim(gtxn)), Verdict::Commit);
        g.propose(resolve(gtxn, &[0], Restart));
        g.propose(resolve(gtxn, &[1], Restart));
        assert_eq!(g.propose(Abort(gtxn)), Verdict::Commit);
        assert_eq!(g.decisions(), vec![(gtxn, vec![])]);
        g.propose(resolve(gtxn, &[0, 1], Coordinator));
        assert!(g.decisions().is_empty());
        assert!(g.invariant_violations().is_empty());
    }

    /// One row per `Decisions` transition: the commands before it, the
    /// command, its answer, and what is left after: the unsettled
    /// participants (none: a committed marker), whether the decision is
    /// claimed, and whether M1's transaction is tombstoned.
    #[test]
    fn decisions_transitions() {
        #[derive(Debug, Clone, Copy)]
        enum Op {
            Log,
            Claim,
            Abort,
            Resolve(&'static [u32], Role),
            Abandon(Role),
        }
        use Op::*;
        use Role::{Coordinator as C, Restart as R};
        type Row = (
            &'static [Op],
            Op,
            Verdict,
            Option<&'static [u32]>,
            bool,
            bool,
        );
        let g = GTxn(5);
        let (commit, abort) = (Verdict::Commit, Verdict::Abort);
        let joined = |j| Verdict::Joined(vec![j]);
        let rows: Vec<Row> = vec![
            (&[], Log, commit.clone(), Some(&[0, 1]), false, false),
            (&[], Claim, abort.clone(), None, false, false),
            (&[Log], Claim, commit.clone(), Some(&[0, 1]), true, false),
            (&[Log], Abort, abort.clone(), None, false, false),
            (
                &[Log, Claim],
                Abort,
                commit.clone(),
                Some(&[0, 1]),
                true,
                false,
            ),
            (&[Log, Abort], Claim, abort.clone(), None, false, false),
            (
                &[Log, Claim],
                Resolve(&[0], R),
                commit.clone(),
                Some(&[1]),
                true,
                false,
            ),
            (
                &[Log, Resolve(&[0], C)],
                Resolve(&[0], C),
                commit.clone(),
                Some(&[1]),
                false,
                false,
            ),
            (
                &[Log, Claim, Resolve(&[0], C)],
                Resolve(&[1], R),
                commit.clone(),
                None,
                false,
                false,
            ),
            (
                &[Log, Claim],
                Resolve(&[0, 1], C),
                commit.clone(),
                None,
                false,
                false,
            ),
            (&[], Resolve(&[0], C), commit.clone(), None, false, false),
            // Restarts that fully resolve a claimed decision leave a
            // committed marker, which `Abort` answers `Commit` and the
            // coordinator's `Resolve` removes.
            (
                &[Log, Claim, Resolve(&[0], R)],
                Resolve(&[1], R),
                commit.clone(),
                Some(&[]),
                true,
                false,
            ),
            (
                &[Log, Claim, Resolve(&[0, 1], R)],
                Abort,
                commit.clone(),
                Some(&[]),
                true,
                false,
            ),
            (
                &[Log, Claim, Resolve(&[0, 1], R)],
                Resolve(&[], C),
                commit.clone(),
                None,
                false,
                false,
            ),
            // A restart claims the decision that lists its participant, or
            // tombstones it; the tombstone refuses the `Log` that lists it
            // and goes with it, or with a takeover.
            (
                &[Log],
                Abandon(R),
                joined(Some(g)),
                Some(&[0, 1]),
                true,
                false,
            ),
            (&[], Abandon(R), joined(None), None, false, true),
            (&[Abandon(R)], Log, abort.clone(), None, false, false),
            (&[Abandon(R)], Abandon(C), joined(None), None, false, false),
        ];
        let t = |i: u32| (m(i), TxnId(10 + u64::from(i)));
        let cmd = |op| match op {
            Log => Command::Log(g, vec![t(0), t(1)]),
            Claim => Command::Claim(g),
            Abort => Command::Abort(g),
            Resolve(ms, by) => resolve(g, ms, by),
            Abandon(by) => Command::Abandon(vec![t(1)], by),
        };
        for (before, op, answer, left, claimed, tombstoned) in rows {
            let mut d = Decisions::default();
            for &b in before {
                d.apply(&cmd(b));
            }
            let row = format!("{before:?} then {op:?}");
            d.apply(&cmd(op));
            assert_eq!(d.answer(&cmd(op)), answer, "{row}: answer");
            let machines = |p: &[Participant]| p.iter().map(|&(m, _)| m.0).collect();
            assert_eq!(d.get(g).map(machines), left.map(<[u32]>::to_vec), "{row}");
            assert_eq!(d.is_claimed(g), claimed, "{row}: claimed");
            assert_eq!(d.iter().count(), usize::from(left.is_some()), "{row}");
            let tombstone = d.tombstones().any(|p| p == t(1));
            assert_eq!(tombstone, tombstoned, "{row}: tombstone");
        }
    }

    fn ledgers(g: &ControllerGroup) -> (usize, usize) {
        let inner = g.inner.lock();
        (inner.acked_decisions.len(), inner.resolved_decisions.len())
    }

    /// An ack and a resolution of one gtxn cancel, so a long run of 2PC
    /// commits leaves both checker ledgers empty.
    #[test]
    fn decision_ledgers_stay_empty_over_commits() {
        let c = crate::testkit::cluster(
            crate::ReadPolicy::PinnedReplica,
            crate::WritePolicy::Conservative,
            2,
            2,
        );
        let conn = c.connect("app").unwrap();
        for k in 0..1_000 {
            conn.execute("INSERT INTO t VALUES (?, 'x')", &[k.into()])
                .unwrap();
        }
        assert_eq!(c.metrics().commit_latency_2pc.count(), 1_000);
        assert_eq!(ledgers(c.controllers()), (0, 0));
        assert!(c.decisions().is_empty());
        assert!(c.controllers().tombstones().is_empty());
    }

    /// A resolution recorded before its ack (a takeover resolving while the
    /// coordinator has not yet recorded its ack) cancels when the ack lands.
    #[test]
    fn a_late_ack_cancels_an_earlier_resolution() {
        let g = group(1);
        let gtxn = GTxn(11);
        let participants = vec![(m(0), TxnId(1))];
        g.submit(|_| Ok(MetaCommand::Decision(Log(gtxn, participants.clone()))))
            .unwrap();
        g.propose(resolve(gtxn, &[0], Coordinator));
        assert_eq!(ledgers(&g), (0, 1));
        g.inner.lock().ledger(gtxn, true);
        assert_eq!(ledgers(&g), (0, 0));
        assert!(g.invariant_violations().is_empty());
    }

    /// A decision that leaves the log without a resolution is still
    /// reported lost.
    #[test]
    fn an_acked_decision_removed_unresolved_is_lost() {
        let g = group(3);
        let gtxn = GTxn(12);
        let participants = vec![(m(0), TxnId(1))];
        assert_eq!(g.propose(Log(gtxn, participants)), Verdict::Commit);
        g.submit(|_| Ok(MetaCommand::Decision(Abort(gtxn))))
            .unwrap();
        let v = g.invariant_violations();
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("lost"), "{v:?}");
    }

    #[test]
    fn quorum_loss_makes_decision_arbitration_unknown() {
        let g = group(3);
        let gtxn = GTxn(9);
        g.crash(0);
        g.crash(1);
        assert!(matches!(g.propose(Abort(gtxn)), Verdict::NotProposed(_)));
        assert!(matches!(g.propose(Claim(gtxn)), Verdict::NotProposed(_)));
    }

    #[test]
    fn geo_epoch_is_monotonic_and_replicated() {
        let g = group(3);
        assert_eq!(g.geo_epoch(), 0);
        assert_eq!(g.set_geo_epoch(3).unwrap(), 3);
        // A stale (lower) proposal never lowers it.
        assert_eq!(g.set_geo_epoch(1).unwrap(), 3);
        g.crash_leader().unwrap();
        assert_eq!(g.geo_epoch(), 3);
    }

    #[test]
    fn sla_table_is_replicated() {
        let g = group(3);
        let sla = Sla::new(10.0, 0.05, std::time::Duration::from_secs(60));
        g.set_sla("app", sla).unwrap();
        g.crash_leader().unwrap();
        assert_eq!(g.sla("app").unwrap().min_tps, 10.0);
    }
}
