//! Spans recorded from outside the program, around the calls into each
//! layer.
//!
//! A span is `{trace, span, parent, name, start_ns, end_ns}`. Spans of one
//! transaction share its sequence number as `trace`. Every thread keeps its
//! spans in a thread-local vector (no shared state on the timed path) and
//! hands the vector to the global sink when it finishes; the sink is
//! written to `<target>/e2e/trace-<workload>.jsonl` when the run ends.
//! A span's **self time** is its duration minus the part its children
//! cover.
//!
//! Tracing is off unless [`enable`] ran on the thread: the untraced run
//! pays one thread-local flag test per call site and records nothing.

use std::cell::RefCell;
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use tenantdb_cluster::{BatchMode, BatchStmt, ClusterError, Transport};
use tenantdb_sql::QueryResult;
use tenantdb_storage::Value;

/// The trace id of spans recorded outside any transaction (set-up calls,
/// the fault schedule, the georep pump).
pub const NO_TXN: u64 = u64::MAX;

/// Spans kept per thread; beyond this the thread counts what it drops.
/// Bounds memory and the size of the trace file on a fast machine.
const MAX_SPANS_PER_THREAD: usize = 1_500_000;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub trace: u64,
    pub id: u32,
    /// 0 = root.
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

struct ThreadTrace {
    on: bool,
    trace: u64,
    next_id: u32,
    /// Ids of the open spans, innermost last.
    stack: Vec<u32>,
    spans: Vec<Span>,
    dropped: u64,
}

thread_local! {
    static TT: RefCell<ThreadTrace> = const {
        RefCell::new(ThreadTrace {
            on: false,
            trace: NO_TXN,
            next_id: 1,
            stack: Vec::new(),
            spans: Vec::new(),
            dropped: 0,
        })
    };
}

static EPOCH: OnceLock<Instant> = OnceLock::new();
static SINK: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static DROPPED: AtomicU64 = AtomicU64::new(0);
static NEXT_THREAD: AtomicU32 = AtomicU32::new(1);

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turn span recording on for the calling thread. Span ids carry the
/// thread's number in their top byte, so an id is unique in the process.
pub fn enable() {
    now_ns();
    // ordering: Relaxed — a unique number is all that is needed.
    let tid = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
    assert!(tid < 256, "more traced threads than span ids provide for");
    TT.with(|t| {
        let mut t = t.borrow_mut();
        t.on = true;
        t.next_id = (tid << 24) | 1;
    });
}

/// Set the trace id the calling thread's next spans carry.
pub fn set_txn(seq: u64) {
    TT.with(|t| {
        let mut t = t.borrow_mut();
        if t.on {
            t.trace = seq;
        }
    });
}

/// An open span; records itself when dropped.
pub struct Open {
    id: u32,
    parent: u32,
    name: &'static str,
    start_ns: u64,
}

/// Open a span on the calling thread (`None` when tracing is off).
pub fn open(name: &'static str) -> Option<Open> {
    TT.with(|t| {
        let mut t = t.borrow_mut();
        if !t.on {
            return None;
        }
        let id = t.next_id;
        t.next_id += 1;
        let parent = t.stack.last().copied().unwrap_or(0);
        t.stack.push(id);
        Some(Open {
            id,
            parent,
            name,
            start_ns: now_ns(),
        })
    })
}

impl Drop for Open {
    fn drop(&mut self) {
        let end_ns = now_ns();
        TT.with(|t| {
            let mut t = t.borrow_mut();
            // Spans close innermost-first (they are scope guards).
            t.stack.pop();
            if t.spans.len() >= MAX_SPANS_PER_THREAD {
                t.dropped += 1;
                return;
            }
            let trace = t.trace;
            t.spans.push(Span {
                trace,
                id: self.id,
                parent: self.parent,
                name: self.name,
                start_ns: self.start_ns,
                end_ns,
            });
        });
    }
}

/// Run `f` inside a span.
pub fn spanned<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let _s = open(name);
    f()
}

/// Hand the calling thread's spans to the global sink. Call before the
/// thread ends (a thread-local destructor would be too late for a scoped
/// thread whose result the parent is already collecting).
pub fn flush_thread() {
    TT.with(|t| {
        let mut t = t.borrow_mut();
        let spans = std::mem::take(&mut t.spans);
        let dropped = std::mem::take(&mut t.dropped);
        SINK.lock().expect("trace sink").extend(spans);
        // ordering: Relaxed — a statistic.
        DROPPED.fetch_add(dropped, Ordering::Relaxed);
    });
}

/// Stop recording on the calling thread (spans already open still close).
pub fn disable() {
    TT.with(|t| t.borrow_mut().on = false);
}

/// Read everything flushed so far.
pub fn with_spans<R>(f: impl FnOnce(&[Span]) -> R) -> R {
    f(&SINK.lock().expect("trace sink"))
}

/// Spans dropped at the per-thread cap, over all flushed threads.
pub fn dropped() -> u64 {
    // ordering: Relaxed — a statistic, read after the threads were joined.
    DROPPED.load(Ordering::Relaxed)
}

/// Per span name: every self time (duration minus children), in ns.
pub fn self_times(spans: &[Span]) -> HashMap<&'static str, Vec<u64>> {
    // A child's interval lies inside its parent's and siblings do not
    // overlap (one thread, scope guards), so covered time is the plain sum.
    let mut children: HashMap<u32, u64> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            *children.entry(s.parent).or_default() += s.end_ns - s.start_ns;
        }
    }
    let mut out: HashMap<&'static str, Vec<u64>> = HashMap::new();
    for s in spans {
        let covered = children.get(&s.id).copied().unwrap_or(0);
        out.entry(s.name)
            .or_default()
            .push((s.end_ns - s.start_ns).saturating_sub(covered));
    }
    out
}

/// Per span name: every duration, in ns.
pub fn durations(spans: &[Span]) -> HashMap<&'static str, Vec<u64>> {
    let mut out: HashMap<&'static str, Vec<u64>> = HashMap::new();
    for s in spans {
        out.entry(s.name).or_default().push(s.end_ns - s.start_ns);
    }
    out
}

/// Write spans as JSON lines.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let trace = if s.trace == NO_TXN {
            "null".to_string()
        } else {
            s.trace.to_string()
        };
        writeln!(
            w,
            "{{\"trace\": {trace}, \"span\": {}, \"parent\": {}, \"name\": \"{}\", \
             \"start_ns\": {}, \"end_ns\": {}}}",
            s.id, s.parent, s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

/// Span names for the calls a [`Traced`] transport wraps; one set per
/// layer the calls enter.
#[derive(Debug, Clone, Copy)]
pub struct CallNames {
    pub begin: &'static str,
    pub execute: &'static str,
    pub batch: &'static str,
    pub commit: &'static str,
    pub rollback: &'static str,
}

/// In-process connections: the calls enter `tenantdb-cluster`.
pub const CLUSTER_CALLS: CallNames = CallNames {
    begin: "cluster.begin",
    execute: "cluster.execute",
    batch: "cluster.execute_batch",
    commit: "cluster.commit",
    rollback: "cluster.rollback",
};

/// `NetClient`: the calls enter `tenantdb-net` (one wire round trip each).
pub const NET_CALLS: CallNames = CallNames {
    begin: "net.begin",
    execute: "net.execute",
    batch: "net.execute_batch",
    commit: "net.commit",
    rollback: "net.rollback",
};

/// A transport that records a span around every call into the wrapped one.
///
/// With `unroll` (in-process transports) `execute_batch` is the trait's own
/// default — begin, each statement, commit — issued through the traced
/// methods, so a batched interaction still yields begin / execute / commit
/// spans. That is the statement sequence `Connection` runs for a batch
/// anyway. A wire transport must not be unrolled: its batch is one frame.
pub struct Traced<T> {
    inner: T,
    names: CallNames,
    unroll: bool,
}

impl<T: Transport> Traced<T> {
    pub fn in_process(inner: T) -> Self {
        Traced {
            inner,
            names: CLUSTER_CALLS,
            unroll: true,
        }
    }

    pub fn wire(inner: T) -> Self {
        Traced {
            inner,
            names: NET_CALLS,
            unroll: false,
        }
    }
}

impl<T: Transport> Transport for Traced<T> {
    fn begin(&self) -> Result<(), ClusterError> {
        let _s = open(self.names.begin);
        self.inner.begin()
    }

    fn execute(&self, sql: &str, params: &[Value]) -> Result<QueryResult, ClusterError> {
        let _s = open(self.names.execute);
        self.inner.execute(sql, params)
    }

    fn commit(&self) -> Result<(), ClusterError> {
        let _s = open(self.names.commit);
        self.inner.commit()
    }

    fn rollback(&self) -> Result<(), ClusterError> {
        let _s = open(self.names.rollback);
        self.inner.rollback()
    }

    fn in_txn(&self) -> bool {
        self.inner.in_txn()
    }

    fn execute_batch(
        &self,
        stmts: &[BatchStmt],
        mode: BatchMode,
    ) -> Result<Vec<QueryResult>, ClusterError> {
        if !self.unroll {
            let _s = open(self.names.batch);
            return self.inner.execute_batch(stmts, mode);
        }
        // The trait's default body, through the traced methods.
        if mode == BatchMode::WholeTxn {
            self.begin()?;
        }
        let mut out = Vec::with_capacity(stmts.len());
        for s in stmts {
            match self.execute(&s.sql, &s.params) {
                Ok(r) => out.push(r),
                Err(e) => {
                    if mode != BatchMode::Statements && self.in_txn() {
                        let _ = self.rollback();
                    }
                    return Err(e);
                }
            }
        }
        if mode != BatchMode::Statements {
            self.commit()?;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            Span {
                trace: 7,
                id: 1,
                parent: 0,
                name: "txn",
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                trace: 7,
                id: 2,
                parent: 1,
                name: "cluster.begin",
                start_ns: 10,
                end_ns: 30,
            },
            Span {
                trace: 7,
                id: 3,
                parent: 1,
                name: "cluster.commit",
                start_ns: 40,
                end_ns: 90,
            },
        ];
        let st = self_times(&spans);
        assert_eq!(st["txn"], vec![30]);
        assert_eq!(st["cluster.begin"], vec![20]);
        assert_eq!(st["cluster.commit"], vec![50]);
    }

    #[test]
    fn spans_nest_and_flush() {
        std::thread::spawn(|| {
            enable();
            set_txn(3);
            {
                let _outer = open("txn");
                spanned("cluster.begin", || ());
            }
            flush_thread();
        })
        .join()
        .unwrap();
        let spans: Vec<Span> = with_spans(|s| s.to_vec());
        let ours: Vec<&Span> = spans.iter().filter(|s| s.trace == 3).collect();
        assert_eq!(ours.len(), 2);
        let inner = ours.iter().find(|s| s.name == "cluster.begin").unwrap();
        let outer = ours.iter().find(|s| s.name == "txn").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
    }

    #[test]
    fn off_by_default() {
        std::thread::spawn(|| assert!(open("x").is_none()))
            .join()
            .unwrap();
    }
}
