//! # tenantdb-history
//!
//! History recording and one-copy-serializability checking, following the
//! formalism the paper borrows from Bernstein, Hadzilacos & Goodman: record
//! the per-site schedule of read/write operations on (logical) objects,
//! build the **global serialization graph** — the union over sites of
//! conflict edges between committed transactions — and test it for cycles.
//! Under read-one/write-all replication, the global graph being acyclic is
//! equivalent to one-copy serializability, which is exactly the property
//! Table 1 of the paper classifies per controller configuration.
//!
//! The cluster controller records an operation *after the engine call
//! returns and before it issues the transaction's next command*. Because the
//! engines run strict 2PL (read locks to PREPARE, write locks to COMMIT), a
//! conflicting operation by another transaction cannot execute on that site
//! until after the controller has moved past the recorded one — so recorded
//! per-site order agrees with true conflict order.

use std::collections::{HashMap, HashSet};
use std::fmt;

use parking_lot::Mutex;

/// A replica site (machine) identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Site(pub u32);

/// A *global* (cluster-level) transaction identifier. Distinct from the
/// per-engine local ids: one global transaction has a local incarnation on
/// every replica it touches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GTxn(pub u64);

impl fmt::Display for GTxn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// Read or write access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    Read,
    Write,
}

impl AccessKind {
    fn conflicts(self, other: AccessKind) -> bool {
        matches!(self, AccessKind::Write) || matches!(other, AccessKind::Write)
    }
}

/// One recorded operation.
#[derive(Debug, Clone)]
pub struct OpRec {
    pub site: Site,
    pub txn: GTxn,
    pub kind: AccessKind,
    /// Logical object name, e.g. `"db1.items:42"`.
    pub object: String,
}

#[derive(Default)]
struct Inner {
    ops: Vec<OpRec>,
    committed: HashSet<GTxn>,
    aborted: HashSet<GTxn>,
}

/// Thread-safe history recorder.
#[derive(Default)]
pub struct Recorder {
    inner: Mutex<Inner>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder::default()
    }

    /// Record one operation (appended in real-time order).
    pub fn record(&self, site: Site, txn: GTxn, kind: AccessKind, object: impl Into<String>) {
        self.inner.lock().ops.push(OpRec {
            site,
            txn,
            kind,
            object: object.into(),
        });
    }

    /// Mark a transaction as committed (only committed txns enter the graph).
    pub fn commit(&self, txn: GTxn) {
        self.inner.lock().committed.insert(txn);
    }

    /// Mark a transaction as aborted (excluded from the graph).
    pub fn abort(&self, txn: GTxn) {
        self.inner.lock().aborted.insert(txn);
    }

    pub fn op_count(&self) -> usize {
        self.inner.lock().ops.len()
    }

    pub fn committed_count(&self) -> usize {
        self.inner.lock().committed.len()
    }

    /// Build the global serialization graph over committed transactions.
    pub fn graph(&self) -> SerializationGraph {
        let inner = self.inner.lock();
        let mut graph = SerializationGraph::default();
        for t in &inner.committed {
            graph.nodes.insert(*t);
        }
        // Group ops by (site, object); conflicts only arise within a group.
        let mut groups: HashMap<(Site, &str), Vec<&OpRec>> = HashMap::new();
        for op in &inner.ops {
            if inner.committed.contains(&op.txn) {
                groups
                    .entry((op.site, op.object.as_str()))
                    .or_default()
                    .push(op);
            }
        }
        for ops in groups.values() {
            for (i, a) in ops.iter().enumerate() {
                for b in &ops[i + 1..] {
                    if a.txn != b.txn && a.kind.conflicts(b.kind) {
                        graph.edges.entry(a.txn).or_default().insert(b.txn);
                    }
                }
            }
        }
        graph
    }

    /// Convenience: build the graph and classify the history.
    pub fn check(&self) -> Verdict {
        match self.graph().find_cycle() {
            None => Verdict::Serializable,
            Some(cycle) => Verdict::NotSerializable(cycle),
        }
    }

    /// Drop all recorded state (reuse between experiment rounds).
    pub fn reset(&self) {
        *self.inner.lock() = Inner::default();
    }

    /// Snapshot of recorded operations (tests and diagnostics).
    pub fn ops(&self) -> Vec<OpRec> {
        self.inner.lock().ops.clone()
    }
}

/// The global serialization graph.
#[derive(Debug, Default)]
pub struct SerializationGraph {
    pub nodes: HashSet<GTxn>,
    pub edges: HashMap<GTxn, HashSet<GTxn>>,
}

impl SerializationGraph {
    pub fn edge_count(&self) -> usize {
        self.edges.values().map(|s| s.len()).sum()
    }

    pub fn has_edge(&self, from: GTxn, to: GTxn) -> bool {
        self.edges.get(&from).is_some_and(|s| s.contains(&to))
    }

    /// Find a cycle, returned as the sequence of transactions along it
    /// (first element repeated implicitly). Deterministic given the graph.
    pub fn find_cycle(&self) -> Option<Vec<GTxn>> {
        #[derive(Clone, Copy, PartialEq)]
        enum Color {
            White,
            Grey,
            Black,
        }
        let mut color: HashMap<GTxn, Color> =
            self.nodes.iter().map(|&n| (n, Color::White)).collect();
        // Iterative DFS with an explicit path stack for cycle extraction.
        let mut nodes: Vec<GTxn> = self.nodes.iter().copied().collect();
        nodes.sort();
        for &start in &nodes {
            if color[&start] != Color::White {
                continue;
            }
            let succ = |n: GTxn| -> Vec<GTxn> {
                let mut v: Vec<GTxn> = self.edges.get(&n).into_iter().flatten().copied().collect();
                v.sort();
                v
            };
            let mut path: Vec<(GTxn, Vec<GTxn>)> = Vec::new();
            color.insert(start, Color::Grey);
            path.push((start, succ(start)));
            while let Some((node, pending)) = path.last_mut() {
                match pending.pop() {
                    None => {
                        color.insert(*node, Color::Black);
                        path.pop();
                    }
                    Some(next) => match color.get(&next).copied().unwrap_or(Color::Black) {
                        Color::Grey => {
                            // Cycle: slice the path from `next` onward.
                            let pos = path.iter().position(|(n, _)| *n == next).unwrap();
                            return Some(path[pos..].iter().map(|(n, _)| *n).collect());
                        }
                        Color::White => {
                            color.insert(next, Color::Grey);
                            let s = succ(next);
                            path.push((next, s));
                        }
                        Color::Black => {}
                    },
                }
            }
        }
        None
    }

    /// A topological order of the committed transactions — the equivalent
    /// serial order — if one exists.
    pub fn serial_order(&self) -> Option<Vec<GTxn>> {
        let mut indegree: HashMap<GTxn, usize> = self.nodes.iter().map(|&n| (n, 0)).collect();
        for tos in self.edges.values() {
            for t in tos {
                if let Some(d) = indegree.get_mut(t) {
                    *d += 1;
                }
            }
        }
        let mut ready: Vec<GTxn> = indegree
            .iter()
            .filter(|(_, &d)| d == 0)
            .map(|(&n, _)| n)
            .collect();
        ready.sort();
        let mut order = Vec::with_capacity(self.nodes.len());
        while let Some(n) = ready.pop() {
            order.push(n);
            if let Some(tos) = self.edges.get(&n) {
                for &t in tos {
                    if let Some(d) = indegree.get_mut(&t) {
                        *d -= 1;
                        if *d == 0 {
                            ready.push(t);
                        }
                    }
                }
                ready.sort();
            }
        }
        if order.len() == self.nodes.len() {
            Some(order)
        } else {
            None
        }
    }
}

/// Outcome of a serializability check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    Serializable,
    /// The transactions along one conflict cycle.
    NotSerializable(Vec<GTxn>),
}

impl Verdict {
    pub fn is_serializable(&self) -> bool {
        matches!(self, Verdict::Serializable)
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Serializable => f.write_str("Serializable"),
            Verdict::NotSerializable(cycle) => {
                f.write_str("Not Serializable (cycle: ")?;
                for (i, t) in cycle.iter().enumerate() {
                    if i > 0 {
                        f.write_str(" -> ")?;
                    }
                    write!(f, "{t}")?;
                }
                f.write_str(")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use AccessKind::{Read, Write};

    const S1: Site = Site(1);
    const S2: Site = Site(2);
    const T1: GTxn = GTxn(1);
    const T2: GTxn = GTxn(2);
    const T3: GTxn = GTxn(3);

    #[test]
    fn serial_history_is_serializable() {
        let r = Recorder::new();
        r.record(S1, T1, Read, "x");
        r.record(S1, T1, Write, "y");
        r.record(S1, T2, Read, "y");
        r.record(S1, T2, Write, "x");
        r.commit(T1);
        r.commit(T2);
        assert_eq!(r.check(), Verdict::Serializable);
        let g = r.graph();
        assert!(g.has_edge(T1, T2));
        assert!(!g.has_edge(T2, T1));
        assert_eq!(g.serial_order(), Some(vec![T1, T2]));
    }

    #[test]
    fn paper_anomaly_detected() {
        // The exact §3.1 example: T1 = r1(x) w1(y), T2 = r2(y) w2(x),
        // Machine 1 sees r1(x) .. w2(x), Machine 2 sees r2(y) .. w1(y).
        let r = Recorder::new();
        // Machine 1 schedule.
        r.record(S1, T1, Read, "x");
        r.record(S1, T1, Write, "y");
        r.record(S1, T2, Write, "x");
        // Machine 2 schedule.
        r.record(S2, T2, Read, "y");
        r.record(S2, T2, Write, "x");
        r.record(S2, T1, Write, "y");
        r.commit(T1);
        r.commit(T2);
        let g = r.graph();
        assert!(g.has_edge(T1, T2), "site 1: r1(x) < w2(x)");
        assert!(g.has_edge(T2, T1), "site 2: r2(y) < w1(y)");
        match r.check() {
            Verdict::NotSerializable(cycle) => {
                assert_eq!(cycle.len(), 2);
                assert!(cycle.contains(&T1) && cycle.contains(&T2));
            }
            v => panic!("expected anomaly, got {v}"),
        }
        assert!(r.graph().serial_order().is_none());
    }

    #[test]
    fn uncommitted_txns_excluded() {
        let r = Recorder::new();
        r.record(S1, T1, Write, "x");
        r.record(S1, T2, Write, "x");
        r.record(S1, T2, Write, "y");
        r.record(S1, T1, Write, "y"); // would close a cycle if T2 committed
        r.commit(T1);
        r.abort(T2);
        assert_eq!(r.check(), Verdict::Serializable);
        assert_eq!(r.graph().edge_count(), 0);
    }

    #[test]
    fn read_read_does_not_conflict() {
        let r = Recorder::new();
        r.record(S1, T1, Read, "x");
        r.record(S1, T2, Read, "x");
        r.record(S1, T2, Read, "y");
        r.record(S1, T1, Read, "y");
        r.commit(T1);
        r.commit(T2);
        assert_eq!(r.graph().edge_count(), 0);
        assert!(r.check().is_serializable());
    }

    #[test]
    fn conflicts_only_within_a_site() {
        // Same object name on *different* sites is a different physical copy;
        // cross-site order alone creates no edge.
        let r = Recorder::new();
        r.record(S1, T1, Write, "x");
        r.record(S2, T2, Write, "x");
        r.commit(T1);
        r.commit(T2);
        assert_eq!(r.graph().edge_count(), 0);
    }

    #[test]
    fn three_txn_cycle() {
        let r = Recorder::new();
        r.record(S1, T1, Write, "a");
        r.record(S1, T2, Write, "a"); // T1 -> T2
        r.record(S1, T2, Write, "b");
        r.record(S1, T3, Write, "b"); // T2 -> T3
        r.record(S2, T3, Write, "c");
        r.record(S2, T1, Write, "c"); // T3 -> T1
        r.commit(T1);
        r.commit(T2);
        r.commit(T3);
        match r.check() {
            Verdict::NotSerializable(cycle) => assert_eq!(cycle.len(), 3),
            v => panic!("expected 3-cycle, got {v}"),
        }
    }

    #[test]
    fn reset_clears_everything() {
        let r = Recorder::new();
        r.record(S1, T1, Write, "x");
        r.commit(T1);
        r.reset();
        assert_eq!(r.op_count(), 0);
        assert_eq!(r.committed_count(), 0);
        assert!(r.check().is_serializable());
    }

    #[test]
    fn verdict_display() {
        assert_eq!(Verdict::Serializable.to_string(), "Serializable");
        let v = Verdict::NotSerializable(vec![T1, T2]);
        assert_eq!(v.to_string(), "Not Serializable (cycle: T1 -> T2)");
    }

    #[test]
    fn serial_order_respects_edges() {
        let r = Recorder::new();
        r.record(S1, T2, Write, "x");
        r.record(S1, T1, Write, "x"); // T2 -> T1
        r.record(S1, T1, Write, "y");
        r.record(S1, T3, Read, "y"); // T1 -> T3
        r.commit(T1);
        r.commit(T2);
        r.commit(T3);
        let order = r.graph().serial_order().unwrap();
        let pos = |t: GTxn| order.iter().position(|&x| x == t).unwrap();
        assert!(pos(T2) < pos(T1));
        assert!(pos(T1) < pos(T3));
    }

    #[test]
    fn concurrent_recording_is_safe() {
        use std::sync::Arc;
        let r = Arc::new(Recorder::new());
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let r = Arc::clone(&r);
            handles.push(std::thread::spawn(move || {
                for i in 0..100 {
                    r.record(S1, GTxn(t), Write, format!("obj{t}-{i}"));
                }
                r.commit(GTxn(t));
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(r.op_count(), 800);
        // Disjoint objects: no conflicts.
        assert!(r.check().is_serializable());
    }
}
