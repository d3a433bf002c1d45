//! The load drivers and the segment reporter.
//!
//! Load comes from this process: one generator thread per [`TxnSource`]
//! (two in every workload — the reference host has two cores), each a
//! logical client that owns its connections.
//!
//! * [`closed_loop`]: a client sends its next transaction when the previous
//!   one completed, for a fixed wall time. Callers that wait for a reply.
//! * [`open_loop`]: transactions are sent on a fixed schedule whatever the
//!   program does — independent small applications do not wait for each
//!   other. Latency is taken from the time a transaction was **due**, so a
//!   stall is charged to every transaction it delays, and the share of
//!   sends issued more than 1 ms late is reported. A keep-awake thread
//!   stops the CPU from idling between sends (see [`keep_awake`]).
//!
//! An **operation** is one client interaction. An attempt the program
//! refuses in a way clients are expected to handle — deadlock victim, lock
//! timeout, Algorithm-1 write rejection, a machine lost mid-transaction —
//! is retried as the same operation after a short back-off, and the
//! operation's latency runs from its first send (or due time) to the commit
//! that finally succeeds: the delay the application's user sees. Every
//! refused attempt is tallied by cause and time-stamped, so the share of
//! attempts refused inside a fault window (Figure 8) is still there. An
//! operation fails only when it is abandoned after [`MAX_ATTEMPTS`] or hits
//! an error no retry can cure.
//!
//! While the sessions run, the calling thread sleeps to each of the five
//! segment boundaries and marks process CPU time and the commit counter
//! there, which gives CPU per transaction per segment.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use tenantdb_cluster::ClusterError;

use crate::proc;
use crate::stats::{percentile_sorted, supported_tail, Summary, SEGMENTS};
use crate::stream::{Class, TxnSource};
use crate::trace;

/// A send is late when issued this long after it was due.
const LATE_NS: u64 = 1_000_000;

/// Attempts per operation before it is abandoned.
pub const MAX_ATTEMPTS: u32 = 64;
/// First retry back-off; doubles per retry up to [`BACKOFF_MAX`].
const BACKOFF_MIN: Duration = Duration::from_micros(500);
const BACKOFF_MAX: Duration = Duration::from_millis(32);

/// One finished operation.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Completion time, ns since the window opened.
    pub end_ns: u64,
    /// Client-seen latency: completion − due time (open loop) or − first
    /// send (closed loop), retries included, saturated at ~4.29 s.
    pub lat_ns: u32,
    /// Completion − send: what the operation itself took. Equal to
    /// `lat_ns` in a closed loop.
    pub svc_ns: u32,
    pub class: Class,
    pub ok: bool,
    /// Open loop only: the send was issued > 1 ms after its due time.
    pub late: bool,
}

/// Why attempts were refused, by the program's own error classification.
#[derive(Debug, Clone, Default)]
pub struct Failures {
    pub deadlock: u64,
    pub timeout: u64,
    /// Proactive rejection: machine failure, Algorithm-1 copy, fencing.
    pub rejected: u64,
    pub other: u64,
    /// The first few distinct messages, for the report.
    pub examples: Vec<String>,
}

impl Failures {
    fn note(&mut self, e: &ClusterError) {
        if e.is_deadlock() {
            self.deadlock += 1;
        } else if e.is_timeout() {
            self.timeout += 1;
        } else if e.is_proactive_rejection() {
            self.rejected += 1;
        } else {
            self.other += 1;
        }
        if self.examples.len() < 5 {
            let msg = e.to_string();
            if !self.examples.contains(&msg) {
                self.examples.push(msg);
            }
        }
    }

    fn merge(&mut self, o: Failures) {
        self.deadlock += o.deadlock;
        self.timeout += o.timeout;
        self.rejected += o.rejected;
        self.other += o.other;
        for m in o.examples {
            if self.examples.len() < 5 && !self.examples.contains(&m) {
                self.examples.push(m);
            }
        }
    }

    pub fn total(&self) -> u64 {
        self.deadlock + self.timeout + self.rejected + self.other
    }
}

/// Process CPU seconds and commits so far, at one segment boundary.
#[derive(Debug, Clone, Copy)]
struct Mark {
    /// Seconds since the window opened, as actually reached.
    at_s: f64,
    cpu_s: f64,
    committed: u64,
}

/// Everything one measured window recorded.
pub struct Window {
    /// When the window opened, on the trace clock.
    pub start_ns: u64,
    /// Nominal length.
    pub dur: Duration,
    pub samples: Vec<Sample>,
    /// Refused attempts by cause (an operation may own several).
    pub failures: Failures,
    /// When each refused attempt ended, ns since the window opened.
    pub refused_at_ns: Vec<u64>,
    marks: Vec<Mark>,
}

struct SessionOut {
    samples: Vec<Sample>,
    failures: Failures,
    refused_at_ns: Vec<u64>,
}

impl SessionOut {
    fn with_capacity(n: usize) -> Self {
        SessionOut {
            samples: Vec::with_capacity(n),
            failures: Failures::default(),
            refused_at_ns: Vec::new(),
        }
    }
}

/// Can a client cure this by trying again?
fn retryable(e: &ClusterError) -> bool {
    e.is_deadlock()
        || e.is_timeout()
        || e.is_proactive_rejection()
        || e.is_not_leader()
        || matches!(
            e,
            ClusterError::TxnAborted(_) | ClusterError::InDoubt(_) | ClusterError::NoMachines
        )
}

/// Draw the next operation and attempt it until it commits. Returns its
/// class and whether it committed.
fn run_op<S: TxnSource>(
    src: &mut S,
    seq: u64,
    start: Instant,
    out: &mut SessionOut,
) -> (Class, bool) {
    let (op, class) = src.draw();
    trace::set_txn(seq);
    let _txn = trace::open("client.txn");
    let mut backoff = BACKOFF_MIN;
    for _ in 0..MAX_ATTEMPTS {
        match src.attempt(op) {
            Ok(()) => return (class, true),
            Err(e) => {
                out.failures.note(&e);
                out.refused_at_ns.push(start.elapsed().as_nanos() as u64);
                if !retryable(&e) {
                    return (class, false);
                }
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(BACKOFF_MAX);
            }
        }
    }
    (class, false)
}

fn lat32(ns: u64) -> u32 {
    u32::try_from(ns).unwrap_or(u32::MAX)
}

/// CPU the process has used since the first reading, from the threads'
/// nanosecond scheduler accounts, leaving one thread out.
///
/// The open loop needs it: a segment there holds only tens of the 10 ms
/// ticks `/proc/self/stat` counts in. The accounts cover live threads only,
/// and the program reaps idle pool threads while the window runs, so a
/// plain sum would fall by a reaped thread's whole account. Readings are
/// therefore differenced thread by thread: a thread that ended loses only
/// what it ran since the reading before.
#[derive(Default)]
struct ThreadCpuClock {
    prev: HashMap<u64, f64>,
    total: f64,
}

impl ThreadCpuClock {
    fn read(&mut self, skip: u64) -> Option<f64> {
        let now = proc::live_threads_cpu_seconds()?;
        let first = self.prev.is_empty();
        for &(tid, s) in &now {
            if tid == skip {
                continue;
            }
            // A thread not seen at the reading before started after it.
            let before = self.prev.get(&tid).copied();
            self.total += s - before.unwrap_or(if first { s } else { 0.0 });
        }
        self.prev = now.into_iter().collect();
        Some(self.total)
    }
}

/// Sleep to each segment boundary and mark CPU and commits there. With
/// `exclude` (the open loop), CPU comes from the threads' own accounts and
/// the thread whose id `exclude` holds is left out.
fn mark_boundaries(
    start: Instant,
    dur: Duration,
    committed: &AtomicU64,
    exclude: Option<&AtomicU64>,
) -> Vec<Mark> {
    let mut marks = Vec::with_capacity(SEGMENTS + 1);
    let mut thread_clock = ThreadCpuClock::default();
    for k in 0..=SEGMENTS {
        let at = start + dur.mul_f64(k as f64 / SEGMENTS as f64);
        std::thread::sleep(at.saturating_duration_since(Instant::now()));
        let cpu_s = match exclude {
            // ordering: Relaxed — see `keep_awake`.
            Some(tid) => thread_clock
                .read(tid.load(Ordering::Relaxed))
                .or_else(proc::cpu_seconds),
            // Closed loops burn hundreds of ticks per segment.
            None => proc::cpu_seconds(),
        };
        marks.push(Mark {
            at_s: start.elapsed().as_secs_f64(),
            cpu_s: cpu_s.unwrap_or(0.0),
            // ordering: Relaxed — a statistic; publishes nothing.
            committed: committed.load(Ordering::Relaxed),
        });
    }
    marks
}

fn collect(start_ns: u64, dur: Duration, outs: Vec<SessionOut>, marks: Vec<Mark>) -> Window {
    let mut samples = Vec::with_capacity(outs.iter().map(|o| o.samples.len()).sum());
    let mut failures = Failures::default();
    let mut refused_at_ns = Vec::new();
    for o in outs {
        samples.extend(o.samples);
        failures.merge(o.failures);
        refused_at_ns.extend(o.refused_at_ns);
    }
    Window {
        start_ns,
        dur,
        samples,
        failures,
        refused_at_ns,
        marks,
    }
}

/// Trace id of transaction `k` of session `i`.
fn seq_of(session: usize, k: u64) -> u64 {
    ((session as u64) << 40) | k
}

/// Closed loop: every source runs transactions back to back for `dur`.
pub fn closed_loop<S: TxnSource>(sources: &mut [S], dur: Duration, traced: bool) -> Window {
    let committed = AtomicU64::new(0);
    let barrier = Barrier::new(sources.len() + 1);
    let mut start_ns = 0;
    let mut marks = Vec::new();
    let outs: Vec<SessionOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = sources
            .iter_mut()
            .enumerate()
            .map(|(i, src)| {
                let (committed, barrier) = (&committed, &barrier);
                scope.spawn(move || {
                    if traced {
                        trace::enable();
                    }
                    let mut out = SessionOut::with_capacity(1 << 16);
                    barrier.wait();
                    let start = Instant::now();
                    let mut k = 0u64;
                    loop {
                        let sent = start.elapsed();
                        if sent >= dur {
                            break;
                        }
                        let (class, ok) = run_op(src, seq_of(i, k), start, &mut out);
                        k += 1;
                        let end = start.elapsed();
                        if ok {
                            // ordering: Relaxed — a statistic.
                            committed.fetch_add(1, Ordering::Relaxed);
                        }
                        let lat_ns = lat32((end - sent).as_nanos() as u64);
                        out.samples.push(Sample {
                            end_ns: end.as_nanos() as u64,
                            lat_ns,
                            svc_ns: lat_ns,
                            class,
                            ok,
                            late: false,
                        });
                    }
                    if traced {
                        trace::flush_thread();
                    }
                    out
                })
            })
            .collect();
        barrier.wait();
        start_ns = trace::now_ns();
        marks = mark_boundaries(Instant::now(), dur, &committed, None);
        handles
            .into_iter()
            .map(|h| h.join().expect("session thread panicked"))
            .collect()
    });
    collect(start_ns, dur, outs, marks)
}

/// Keep the CPU from going idle while an open loop sleeps between sends:
/// yield in a loop until told to stop.
///
/// On a virtual machine an idle vCPU halts, the host runs something else
/// on the core, and the next transaction starts with a wake-up of variable
/// cost on cold caches. At a quarter of capacity that is most transactions,
/// and it made the open-loop medians differ by 2× from run to run.
/// `yield_now` hands the CPU to any runnable thread at once, so the program
/// loses nothing. The time this thread itself burns is the load
/// generator's, not the program's: the segment marks leave this thread's
/// scheduler account out of `cpu_us_per_txn`.
///
/// (Tried and dropped: releasing the sends from this thread with `unpark`
/// instead of letting the sessions sleep. It removes the ~70 µs timer
/// wake-up from every latency, but run-to-run spread of the latencies rose
/// from a few percent to over 50 %.)
fn keep_awake(tid: &AtomicU64, stop: &AtomicBool) {
    // ordering: Relaxed — the id feeds a statistic; 0 = not known.
    tid.store(proc::thread_id().unwrap_or(0), Ordering::Relaxed);
    // ordering: Relaxed — a stop flag; the scope's join publishes the rest.
    while !stop.load(Ordering::Relaxed) {
        std::thread::yield_now();
    }
}

/// Open loop: `rate_per_s` transactions per second in total, spread evenly
/// over the sources, each on its own fixed schedule, for `dur`.
pub fn open_loop<S: TxnSource>(
    sources: &mut [S],
    rate_per_s: f64,
    dur: Duration,
    traced: bool,
) -> Window {
    let n = sources.len();
    let interval = Duration::from_secs_f64(n as f64 / rate_per_s);
    let per_session = (dur.as_secs_f64() / interval.as_secs_f64()).floor() as u64;
    let committed = AtomicU64::new(0);
    let barrier = Barrier::new(n + 1);
    let (awake_tid, stop_awake) = (AtomicU64::new(0), AtomicBool::new(false));
    let mut start_ns = 0;
    let mut marks = Vec::new();
    let outs: Vec<SessionOut> = std::thread::scope(|scope| {
        scope.spawn(|| keep_awake(&awake_tid, &stop_awake));
        let handles: Vec<_> = sources
            .iter_mut()
            .enumerate()
            .map(|(i, src)| {
                let (committed, barrier) = (&committed, &barrier);
                scope.spawn(move || {
                    if traced {
                        trace::enable();
                    }
                    let mut out = SessionOut::with_capacity(per_session as usize);
                    // Sessions are staggered so sends interleave evenly.
                    let offset = interval.mul_f64(i as f64 / n as f64);
                    barrier.wait();
                    let start = Instant::now();
                    for k in 0..per_session {
                        let due = offset + interval.mul_f64(k as f64);
                        // Plain sleep, no spinning: a spinning generator
                        // would put its own CPU into cpu_us_per_txn.
                        std::thread::sleep(due.saturating_sub(start.elapsed()));
                        let sent = start.elapsed();
                        let (class, ok) = run_op(src, seq_of(i, k), start, &mut out);
                        let end = start.elapsed();
                        if ok {
                            // ordering: Relaxed — a statistic.
                            committed.fetch_add(1, Ordering::Relaxed);
                        }
                        out.samples.push(Sample {
                            end_ns: end.as_nanos() as u64,
                            lat_ns: lat32(end.saturating_sub(due).as_nanos() as u64),
                            svc_ns: lat32((end - sent).as_nanos() as u64),
                            class,
                            ok,
                            late: sent.saturating_sub(due).as_nanos() as u64 > LATE_NS,
                        });
                    }
                    if traced {
                        trace::flush_thread();
                    }
                    // Stay alive until the last CPU mark is taken.
                    barrier.wait();
                    out
                })
            })
            .collect();
        barrier.wait();
        start_ns = trace::now_ns();
        marks = mark_boundaries(Instant::now(), dur, &committed, Some(&awake_tid));
        barrier.wait();
        let outs = handles
            .into_iter()
            .map(|h| h.join().expect("session thread panicked"))
            .collect();
        // ordering: Relaxed — see `keep_awake`.
        stop_awake.store(true, Ordering::Relaxed);
        outs
    });
    collect(start_ns, dur, outs, marks)
}

/// The tail of one latency class over the whole window.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    /// The percentile reported: 0.99 when at least ten samples lie beyond
    /// it, else the highest of 0.95 / 0.90 for which that holds.
    pub q: f64,
    pub us: f64,
    /// Committed samples of the class in the window.
    pub n: usize,
}

/// The client-seen figures of one window. Medians, throughput and CPU are
/// each the median of the five per-segment values, with the inter-quartile
/// distance across segments beside it; the tails are taken over the whole
/// window (on the reference host that was the steadier estimator: a
/// segment holds too few samples beyond its p99).
#[derive(Debug, Clone)]
pub struct WindowSummary {
    pub wall_s: f64,
    /// Operations started.
    pub attempted: u64,
    /// Operations that committed (possibly after retries).
    pub committed: u64,
    /// Attempts the program refused (each was retried or abandoned).
    pub refused_attempts: u64,
    pub late: u64,
    pub txn_per_s: Summary,
    pub cpu_us_per_txn: Summary,
    pub read_p50_us: Summary,
    pub write_p50_us: Summary,
    pub read_tail: Tail,
    pub write_tail: Tail,
    /// The same four figures taken over the whole window, for a window
    /// that is not stationary by design (workload D): there the five
    /// segments are different regimes, and their median is whichever
    /// regime happens to rank third.
    pub whole: WholeWindow,
    /// Mean service time (send to completion) of committed operations.
    pub mean_service_us: f64,
    /// Per-segment values behind the medians, for the report.
    pub seg_tps: Vec<f64>,
    pub seg_cpu_us: Vec<f64>,
}

#[derive(Debug, Clone, Copy)]
pub struct WholeWindow {
    pub txn_per_s: f64,
    pub cpu_us_per_txn: f64,
    pub read_p50_us: f64,
    pub write_p50_us: f64,
}

impl WindowSummary {
    pub fn failed(&self) -> u64 {
        self.attempted - self.committed
    }

    /// Refused attempts as a share of all attempts.
    pub fn refused_frac(&self) -> f64 {
        let attempts = self.committed + self.refused_attempts;
        self.refused_attempts as f64 / attempts.max(1) as f64
    }

    pub fn late_frac(&self) -> f64 {
        self.late as f64 / self.attempted.max(1) as f64
    }

    /// Worst relative spread across segments among the timing metrics.
    pub fn worst_spread(&self) -> f64 {
        [
            self.txn_per_s,
            self.cpu_us_per_txn,
            self.read_p50_us,
            self.write_p50_us,
        ]
        .iter()
        .map(Summary::rel_spread)
        .fold(0.0, f64::max)
    }
}

/// Median latency per segment, whole-window median and whole-window tail
/// of one class.
fn class_summary(w: &Window, class: Class) -> (Summary, f64, Tail) {
    let seg_ns = (w.dur.as_nanos() as u64 / SEGMENTS as u64).max(1);
    let mut segs = vec![Vec::new(); SEGMENTS];
    for s in &w.samples {
        if s.ok && s.class == class {
            // An operation in flight at the deadline ends just past it.
            let k = ((s.end_ns / seg_ns) as usize).min(SEGMENTS - 1);
            segs[k].push(s.lat_ns);
        }
    }
    let p50: Vec<f64> = segs
        .iter_mut()
        .filter(|s| !s.is_empty())
        .map(|s| {
            s.sort_unstable();
            percentile_sorted(s, 0.5) / 1e3
        })
        .collect();
    let mut all: Vec<u32> = segs.into_iter().flatten().collect();
    all.sort_unstable();
    let q = supported_tail(all.len()).unwrap_or(0.90);
    let tail = Tail {
        q,
        us: percentile_sorted(&all, q) / 1e3,
        n: all.len(),
    };
    (Summary::of(&p50), percentile_sorted(&all, 0.5) / 1e3, tail)
}

pub fn summarize(w: &Window) -> WindowSummary {
    let attempted = w.samples.len() as u64;
    let committed = w.samples.iter().filter(|s| s.ok).count() as u64;
    let late = w.samples.iter().filter(|s| s.late).count() as u64;
    let seg_tps: Vec<f64> = w
        .marks
        .windows(2)
        .map(|m| (m[1].committed - m[0].committed) as f64 / (m[1].at_s - m[0].at_s).max(1e-9))
        .collect();
    let seg_cpu_us: Vec<f64> = w
        .marks
        .windows(2)
        .filter(|m| m[1].committed > m[0].committed)
        .map(|m| (m[1].cpu_s - m[0].cpu_s) * 1e6 / (m[1].committed - m[0].committed) as f64)
        .collect();
    let (read_p50_us, whole_read_p50_us, read_tail) = class_summary(w, Class::Read);
    let (write_p50_us, whole_write_p50_us, write_tail) = class_summary(w, Class::Write);
    // First mark to last: what the per-segment figures are slices of.
    let over = |f: fn(&Mark) -> f64| match (w.marks.first(), w.marks.last()) {
        (Some(a), Some(b)) => f(b) - f(a),
        _ => 0.0,
    };
    let commits = over(|m| m.committed as f64);
    let whole = WholeWindow {
        txn_per_s: commits / over(|m| m.at_s).max(1e-9),
        cpu_us_per_txn: over(|m| m.cpu_s) * 1e6 / commits.max(1.0),
        read_p50_us: whole_read_p50_us,
        write_p50_us: whole_write_p50_us,
    };
    let svc_sum: f64 = w
        .samples
        .iter()
        .filter(|s| s.ok)
        .map(|s| f64::from(s.svc_ns))
        .sum();
    WindowSummary {
        wall_s: w.dur.as_secs_f64(),
        attempted,
        committed,
        refused_attempts: w.failures.total(),
        late,
        txn_per_s: Summary::of(&seg_tps),
        cpu_us_per_txn: Summary::of(&seg_cpu_us),
        read_p50_us,
        write_p50_us,
        read_tail,
        write_tail,
        whole,
        mean_service_us: svc_sum / 1e3 / committed.max(1) as f64,
        seg_tps,
        seg_cpu_us,
    }
}

/// Committed transactions per second between two offsets into the window,
/// and the refused share of the attempts that ended there (Figures 8/9).
pub fn slice_rates(w: &Window, from: Duration, to: Duration) -> (f64, f64) {
    let (a, b) = (from.as_nanos() as u64, to.as_nanos() as u64);
    let inside = |t: u64| t >= a && t < b;
    let ok = w
        .samples
        .iter()
        .filter(|s| s.ok && inside(s.end_ns))
        .count() as f64;
    let refused = w.refused_at_ns.iter().filter(|&&t| inside(t)).count() as f64;
    let secs = (to - from).as_secs_f64().max(1e-9);
    (ok / secs, refused / (ok + refused).max(1.0))
}

/// Longest gap between consecutive commits whose interval touches
/// `[from, to)` — how long clients saw nothing commit around a fault.
pub fn longest_commit_gap_ms(w: &Window, from: Duration, to: Duration) -> f64 {
    let (a, b) = (from.as_nanos() as u64, to.as_nanos() as u64);
    let mut ends: Vec<u64> = w
        .samples
        .iter()
        .filter(|s| s.ok)
        .map(|s| s.end_ns)
        .collect();
    ends.sort_unstable();
    let mut worst = 0u64;
    for pair in ends.windows(2) {
        if pair[1] >= a && pair[0] < b {
            worst = worst.max(pair[1] - pair[0]);
        }
    }
    worst as f64 / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fixed {
        cost: Duration,
        n: u64,
        attempts: u64,
    }

    fn fixed(cost_us: u64) -> Fixed {
        Fixed {
            cost: Duration::from_micros(cost_us),
            n: 0,
            attempts: 0,
        }
    }

    impl TxnSource for Fixed {
        type Op = ();
        fn draw(&mut self) -> ((), Class) {
            self.n += 1;
            let class = if self.n.is_multiple_of(4) {
                Class::Write
            } else {
                Class::Read
            };
            ((), class)
        }
        fn attempt(&mut self, _op: ()) -> Result<(), ClusterError> {
            std::thread::sleep(self.cost);
            self.attempts += 1;
            // Every tenth attempt is refused once; its retry succeeds.
            if self.attempts.is_multiple_of(10) {
                Err(ClusterError::WriteRejected {
                    db: "d".into(),
                    table: "t".into(),
                })
            } else {
                Ok(())
            }
        }
        fn reseed(&mut self, _salt: u64) {}
    }

    #[test]
    fn closed_loop_counts_and_segments() {
        let mut src = [fixed(300), fixed(300)];
        let w = closed_loop(&mut src, Duration::from_millis(300), false);
        let s = summarize(&w);
        assert_eq!(s.attempted, src[0].n + src[1].n);
        // Refused attempts were retried: every operation committed.
        assert_eq!(s.failed(), 0);
        assert_eq!(
            s.committed + s.refused_attempts,
            src[0].attempts + src[1].attempts
        );
        assert!(
            (0.08..0.12).contains(&s.refused_frac()),
            "{}",
            s.refused_frac()
        );
        assert_eq!(w.failures.rejected, s.refused_attempts);
        assert_eq!(w.refused_at_ns.len() as u64, s.refused_attempts);
        assert!(s.read_p50_us.median >= 300.0);
        assert!(s.read_tail.us >= s.read_p50_us.median);
        assert!(s.txn_per_s.median > 500.0);
        assert!(s.whole.txn_per_s > 500.0 && s.whole.read_p50_us >= 300.0);
        assert_eq!(w.marks.len(), SEGMENTS + 1);
    }

    #[test]
    fn open_loop_keeps_its_schedule() {
        let mut src = [fixed(100)];
        let w = open_loop(&mut src, 1000.0, Duration::from_millis(300), false);
        assert_eq!(w.samples.len(), 300);
        let s = summarize(&w);
        // Latency from the due time includes the service time at least.
        assert!(s.read_p50_us.median >= 100.0);
        assert!(s.late_frac() < 0.2);
    }

    #[test]
    fn slices_and_gaps() {
        let mk = |end_ms: u64, ok| Sample {
            end_ns: end_ms * 1_000_000,
            lat_ns: 1000,
            svc_ns: 1000,
            class: Class::Read,
            ok,
            late: false,
        };
        let w = Window {
            start_ns: 0,
            dur: Duration::from_secs(1),
            samples: vec![mk(100, true), mk(300, true), mk(900, true)],
            failures: Failures::default(),
            refused_at_ns: vec![200_000_000],
            marks: Vec::new(),
        };
        let (tps, failed) = slice_rates(&w, Duration::from_millis(0), Duration::from_millis(500));
        assert_eq!(tps, 4.0);
        assert!((failed - 1.0 / 3.0).abs() < 1e-9);
        let gap = longest_commit_gap_ms(&w, Duration::from_millis(250), Duration::from_millis(400));
        assert_eq!(gap, 600.0);
    }
}
