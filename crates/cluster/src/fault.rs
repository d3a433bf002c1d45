//! Deterministic fault injection: named crash points on the cluster's hot
//! paths, armed by a [`FaultPlan`].
//!
//! Failing a whole machine ([`crate::ClusterController::fail_machine`]) is
//! too coarse: the failure schedules that actually break replication
//! protocols are precise interleavings — a participant dying *between* its
//! PREPARE vote and the COMMIT, the controller dying right after the commit
//! decision ([`CrashPoint::CommitDecision`]), a copy target dying at the
//! third table boundary of Algorithm 1 — so the hot paths carry named
//! [`CrashPoint`]s. Each site calls
//! [`FaultInjector::check`]; when the injector is disarmed (the default,
//! and always in production) that is a single relaxed atomic load, so the
//! instrumentation is inert outside tests.
//!
//! A [`FaultPlan`] is a list of [`Trigger`]s: *at the `after_hits`-th time
//! execution passes crash point P on machine M, perform action A*. Hit
//! counting is deterministic for a given workload, which is what makes a
//! simulation run replayable from a seed (see the `tenantdb-sim` crate).
//! Every fired trigger is logged; [`FaultInjector::schedule`] renders the
//! log in a canonical sorted form so two runs of the same seed can be
//! compared byte-for-byte.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::sync::{Mutex, FAULT_STATE};
use std::collections::HashMap;

use crate::machine::MachineId;

/// Sentinel machine id used for controller-side crash points (the controller
/// is not a cluster machine; see [`CrashPoint::CommitDecision`]).
pub const CONTROLLER: MachineId = MachineId(u32::MAX);

/// Sentinel machine id used for network-frontend crash points (the serving
/// tier is not a cluster machine either; see [`CrashPoint::NetAccept`] and
/// friends, hooked by the `tenantdb-net` server).
pub const NET: MachineId = MachineId(u32::MAX - 1);

/// Sentinel machine id used for cross-colo replication crash points (the
/// shipper/applier/promotion machinery spans colos rather than living on one
/// cluster machine; see [`CrashPoint::GeoShipBatch`] and friends, hooked by
/// the `tenantdb-georep` crate).
pub const GEO: MachineId = MachineId(u32::MAX - 2);

/// Declares [`CrashPoint`], [`CrashPoint::ALL`] and [`CrashPoint::name`]
/// from one `Variant => "name"` list, so the three cannot drift apart.
macro_rules! crash_points {
    ($($(#[$doc:meta])* $variant:ident => $name:literal,)*) => {
        /// A named location on a cluster hot path where a fault can fire.
        ///
        /// Each variant's doc says what the window is; DESIGN.md §9's table
        /// adds the hook site (a root test holds that table to [`Self::ALL`]).
        ///
        /// The four `Net*` points fire with the [`NET`] sentinel machine id: the
        /// serving tier fronts the whole cluster, so there is no per-machine hit
        /// counting for them. The three `Geo*` points fire with the [`GEO`] sentinel
        /// for the same reason (the replication stream spans colos), and they are
        /// scripted-only: random sim plans never arm them because a severed
        /// cross-colo stream is a *normal* condition the shipper must absorb, not a
        /// protocol violation worth a randomized search.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub enum CrashPoint {
            $($(#[$doc])* $variant,)*
        }

        impl CrashPoint {
            /// Every crash point, in canonical order (what the coverage
            /// tests iterate).
            pub const ALL: [CrashPoint; [$($name),*].len()] = [$(CrashPoint::$variant),*];

            /// Stable snake_case name used in rendered schedules.
            pub fn name(&self) -> &'static str {
                match self {
                    $(CrashPoint::$variant => $name,)*
                }
            }
        }
    };
}

crash_points! {
    /// Before a write statement executes on a replica.
    ReplicaWriteApply => "replica_write_apply",
    /// After a write applied on a replica, before its ack is sent.
    ReplicaWriteAck => "replica_write_ack",
    /// Before the local `PREPARE` runs (the vote is never cast).
    PrepareApply => "prepare_apply",
    /// After the `PREPARE` vote persisted, before the ack.
    PrepareAck => "prepare_ack",
    /// Controller side: after the commit decision is logged, before any
    /// participant `COMMIT` goes out. Fired with machine [`CONTROLLER`].
    CommitDecision => "commit_decision",
    /// Replicated controller: before a metadata command is proposed to the
    /// consensus group. A `Crash` kills the current leader replica (when
    /// the group has more than one member) so the operation must survive an
    /// election; a `Delay` stalls the pump a few ticks. Fired with machine
    /// [`CONTROLLER`].
    CtrlPropose => "ctrl_propose",
    /// Participant side: before its local `COMMIT` applies (dies prepared).
    CommitApply => "commit_apply",
    /// Participant side: after the local commit persisted, before the ack.
    CommitAck => "commit_ack",
    /// Before a database-level Algorithm-1 dump begins.
    CopyStart => "copy_start",
    /// Before each table's dump in a table-level Algorithm-1 copy.
    CopyTable => "copy_table",
    /// Before `ClusterController::takeover` completes one participant's
    /// decided commit.
    TakeoverCommit => "takeover_commit",
    /// Before a pool job runs — dequeued by a worker, or a session lane's
    /// turn taken by the calling thread (only [`FaultAction::Delay`] is
    /// honored here; crashing a pool thread models nothing the paper has).
    PoolJob => "pool_job",
    /// Network frontend: after a TCP connection is accepted, before its
    /// session thread starts. Fired with machine [`NET`].
    NetAccept => "net_accept",
    /// Network frontend: after a request frame is read, before dispatch.
    /// Fired with machine [`NET`].
    NetFrameRead => "net_frame_read",
    /// Network frontend: before a reply frame is written. Fired with
    /// machine [`NET`].
    NetFrameWrite => "net_frame_write",
    /// Network frontend: after a request executed (commit decided, write
    /// applied), before its reply frame — a `Crash` here severs the
    /// connection mid-response, the classic "did my commit land?" client
    /// ambiguity. Fired with machine [`NET`].
    NetResponseDrop => "net_response_drop",
    /// Cross-colo shipper: before one batch of WAL records is sent to the
    /// standby. A `Crash` severs the log stream (resume restarts from the
    /// last cumulative ack); a `Delay` is a slow WAN link. Fired with
    /// machine [`GEO`].
    GeoShipBatch => "geo_ship_batch",
    /// Standby applier: after a batch arrived, before it is applied — the
    /// ack never goes out, so the primary re-ships from its ack cursor and
    /// the applier must deduplicate by LSN. Fired with machine [`GEO`].
    GeoApplyBatch => "geo_apply_batch",
    /// Standby promotion: after the old primary's epoch is fenced, before
    /// in-doubt 2PC reconciliation against the mirrored decision log. Fired
    /// with machine [`GEO`].
    GeoPromote => "geo_promote",
}

impl fmt::Display for CrashPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What a fired trigger does at its crash point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Crash the machine at the hook site (its engine becomes `Unavailable`
    /// until restarted). At [`CrashPoint::CommitDecision`] this crashes the
    /// *controller* instead — participants are left prepared.
    Crash,
    /// Pause execution at the hook site (straggler acks, slow replicas,
    /// lock-timeout storms). The delay runs on the session's lane (on
    /// whichever thread holds its turn), so it stalls exactly what a slow
    /// machine would stall.
    Delay(Duration),
}

impl fmt::Display for FaultAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultAction::Crash => f.write_str("crash"),
            FaultAction::Delay(d) => write!(f, "delay({}ms)", d.as_millis()),
        }
    }
}

/// One armed fault: *the `after_hits`-th time execution passes `point` on
/// `machine`, perform `action`* (then never again — triggers are one-shot).
#[derive(Debug, Clone)]
pub struct Trigger {
    /// The crash point to arm.
    pub point: CrashPoint,
    /// The machine to arm it on; `None` matches any machine (the hit count
    /// is then per-point across all machines).
    pub machine: Option<MachineId>,
    /// Zero-based hit index at which to fire (0 = the first pass).
    pub after_hits: u64,
    /// What to do when the trigger fires.
    pub action: FaultAction,
}

impl fmt::Display for Trigger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.machine {
            Some(m) => write!(
                f,
                "{}@{}#{}:{}",
                self.point, m, self.after_hits, self.action
            ),
            None => write!(f, "{}@*#{}:{}", self.point, self.after_hits, self.action),
        }
    }
}

/// An ordered set of [`Trigger`]s. Arming a plan on a cluster's
/// [`FaultInjector`] is the only way faults fire; an empty plan (or a
/// disarmed injector) leaves every hot path untouched.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// The triggers to arm.
    pub triggers: Vec<Trigger>,
}

impl FaultPlan {
    /// A plan with no triggers (nothing fires).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Build a plan from triggers.
    pub fn new(triggers: Vec<Trigger>) -> Self {
        Self { triggers }
    }

    /// Canonical one-line-per-trigger rendering (stable across runs).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for t in &self.triggers {
            out.push_str(&t.to_string());
            out.push('\n');
        }
        out
    }
}

/// A fault that fired: which trigger, where, at which hit.
#[derive(Debug, Clone)]
pub struct FiredFault {
    /// The crash point that fired.
    pub point: CrashPoint,
    /// The machine it fired on ([`CONTROLLER`] for controller-side points).
    pub machine: MachineId,
    /// The hit index at which it fired.
    pub hit: u64,
    /// The action performed.
    pub action: FaultAction,
}

impl fmt::Display for FiredFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}@{}#{}:{}",
            self.point, self.machine, self.hit, self.action
        )
    }
}

struct InjectorState {
    triggers: Vec<(Trigger, bool)>, // (trigger, fired)
    /// Hits per (point, Some(machine)) and per (point, None) — the latter
    /// is the cross-machine count used by wildcard triggers.
    hits: HashMap<(CrashPoint, Option<MachineId>), u64>,
    fired: Vec<FiredFault>,
}

/// Per-cluster fault injector. One instance is created by the
/// [`crate::ClusterController`] and shared by every hook site; tests arm it
/// through [`crate::ClusterController::faults`].
///
/// Disarmed (the default) the hot-path cost is one relaxed atomic load per
/// hook — no lock, no allocation.
pub struct FaultInjector {
    armed: AtomicBool,
    state: Mutex<InjectorState>,
}

impl Default for FaultInjector {
    fn default() -> Self {
        Self::new()
    }
}

impl FaultInjector {
    /// A disarmed injector (every [`check`](Self::check) returns `None`).
    pub fn new() -> Self {
        FaultInjector {
            armed: AtomicBool::new(false),
            state: Mutex::new(
                &FAULT_STATE,
                InjectorState {
                    triggers: Vec::new(),
                    hits: HashMap::new(),
                    fired: Vec::new(),
                },
            ),
        }
    }

    /// A shared disarmed injector (what a controller starts with).
    pub fn disarmed() -> Arc<Self> {
        Arc::new(Self::new())
    }

    /// Arm `plan`, replacing any previous plan and clearing hit counters and
    /// the fired log. An empty plan disarms the fast path.
    pub fn arm(&self, plan: FaultPlan) {
        let mut st = self.state.lock();
        let any = !plan.triggers.is_empty();
        st.triggers = plan.triggers.into_iter().map(|t| (t, false)).collect();
        st.hits.clear();
        st.fired.clear();
        // ordering: Relaxed — `armed` is only a fast-path gate. The plan state
        // above is published by the FAULT_STATE mutex (check_slow() re-locks it
        // before reading), so the flag itself carries no ordering. A Release
        // here would pair with nothing: every load of `armed` is Relaxed.
        self.armed.store(any, Ordering::Relaxed);
    }

    /// Disarm: drop the plan, keep the fired log readable.
    pub fn disarm(&self) {
        // ordering: Relaxed — gate flag; see arm(). A checker that still sees
        // `true` just takes the slow path and finds no triggers under the lock.
        self.armed.store(false, Ordering::Relaxed);
        self.state.lock().triggers.clear();
    }

    /// True while at least one trigger is armed.
    pub fn is_armed(&self) -> bool {
        // ordering: Relaxed — advisory gate read; see arm().
        self.armed.load(Ordering::Relaxed)
    }

    /// Hook-site entry point: count a pass through `point` on `machine` and
    /// return the action to perform if a trigger fires. Inert (one relaxed
    /// load) when disarmed.
    #[inline]
    pub fn check(&self, point: CrashPoint, machine: MachineId) -> Option<FaultAction> {
        // ordering: Relaxed — fast-path gate; a true here only routes to
        // check_slow(), whose mutex acquire synchronizes with arm(). Callers
        // that must observe a plan already happen-after arm() via the channel
        // or thread that delivered them the work.
        if !self.armed.load(Ordering::Relaxed) {
            return None;
        }
        self.check_slow(point, machine)
    }

    #[cold]
    fn check_slow(&self, point: CrashPoint, machine: MachineId) -> Option<FaultAction> {
        let mut st = self.state.lock();
        let n = {
            let c = st.hits.entry((point, Some(machine))).or_insert(0);
            let n = *c;
            *c += 1;
            n
        };
        let any = {
            let c = st.hits.entry((point, None)).or_insert(0);
            let n = *c;
            *c += 1;
            n
        };
        let hit = st.triggers.iter_mut().find_map(|(t, done)| {
            if *done || t.point != point {
                return None;
            }
            let fires = match t.machine {
                Some(m) => m == machine && t.after_hits == n,
                None => t.after_hits == any,
            };
            if fires {
                *done = true;
                Some((t.action, if t.machine.is_some() { n } else { any }))
            } else {
                None
            }
        });
        let (action, at) = hit?;
        st.fired.push(FiredFault {
            point,
            machine,
            hit: at,
            action,
        });
        if st.triggers.iter().all(|(_, done)| *done) {
            // Last trigger spent: restore the inert fast path.
            // ordering: Relaxed — gate flag; see arm().
            self.armed.store(false, Ordering::Relaxed);
        }
        Some(action)
    }

    /// Every fault that fired since the last [`arm`](Self::arm), in firing
    /// order.
    pub fn fired(&self) -> Vec<FiredFault> {
        self.state.lock().fired.clone()
    }

    /// Canonical rendering of the fired-fault schedule: one line per fault,
    /// sorted by (point, machine, hit) so concurrent firings render
    /// identically across runs of the same seed.
    pub fn schedule(&self) -> String {
        let mut lines: Vec<String> = self.fired().iter().map(|f| f.to_string()).collect();
        lines.sort();
        let mut out = String::new();
        for l in lines {
            out.push_str(&l);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_injector_is_inert() {
        let inj = FaultInjector::new();
        assert!(!inj.is_armed());
        assert_eq!(inj.check(CrashPoint::PrepareAck, MachineId(0)), None);
        assert!(inj.fired().is_empty());
    }

    #[test]
    fn trigger_fires_on_exact_hit_then_never_again() {
        let inj = FaultInjector::new();
        inj.arm(FaultPlan::new(vec![Trigger {
            point: CrashPoint::CommitApply,
            machine: Some(MachineId(2)),
            after_hits: 1,
            action: FaultAction::Crash,
        }]));
        // Hit 0 on the right machine: no fire.
        assert_eq!(inj.check(CrashPoint::CommitApply, MachineId(2)), None);
        // Other machine/point never counts toward this trigger.
        assert_eq!(inj.check(CrashPoint::CommitApply, MachineId(1)), None);
        assert_eq!(inj.check(CrashPoint::CommitAck, MachineId(2)), None);
        // Hit 1: fires.
        assert_eq!(
            inj.check(CrashPoint::CommitApply, MachineId(2)),
            Some(FaultAction::Crash)
        );
        // Spent: injector disarmed itself.
        assert!(!inj.is_armed());
        assert_eq!(inj.check(CrashPoint::CommitApply, MachineId(2)), None);
        let fired = inj.fired();
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].machine, MachineId(2));
        assert_eq!(fired[0].hit, 1);
    }

    #[test]
    fn wildcard_trigger_counts_across_machines() {
        let inj = FaultInjector::new();
        inj.arm(FaultPlan::new(vec![Trigger {
            point: CrashPoint::PrepareApply,
            machine: None,
            after_hits: 2,
            action: FaultAction::Crash,
        }]));
        assert_eq!(inj.check(CrashPoint::PrepareApply, MachineId(0)), None);
        assert_eq!(inj.check(CrashPoint::PrepareApply, MachineId(1)), None);
        assert_eq!(
            inj.check(CrashPoint::PrepareApply, MachineId(0)),
            Some(FaultAction::Crash)
        );
    }

    #[test]
    fn schedule_renders_sorted_and_stable() {
        let inj = FaultInjector::new();
        inj.arm(FaultPlan::new(vec![
            Trigger {
                point: CrashPoint::PrepareAck,
                machine: Some(MachineId(1)),
                after_hits: 0,
                action: FaultAction::Crash,
            },
            Trigger {
                point: CrashPoint::CommitAck,
                machine: Some(MachineId(0)),
                after_hits: 0,
                action: FaultAction::Delay(Duration::from_millis(5)),
            },
        ]));
        inj.check(CrashPoint::PrepareAck, MachineId(1));
        inj.check(CrashPoint::CommitAck, MachineId(0));
        let s = inj.schedule();
        assert_eq!(s, "commit_ack@m0#0:delay(5ms)\nprepare_ack@m1#0:crash\n");
    }

    #[test]
    fn arm_resets_counters_and_log() {
        let inj = FaultInjector::new();
        inj.arm(FaultPlan::new(vec![Trigger {
            point: CrashPoint::PoolJob,
            machine: Some(MachineId(0)),
            after_hits: 0,
            action: FaultAction::Crash,
        }]));
        inj.check(CrashPoint::PoolJob, MachineId(0));
        assert_eq!(inj.fired().len(), 1);
        inj.arm(FaultPlan::empty());
        assert!(inj.fired().is_empty());
        assert!(!inj.is_armed());
    }
}
