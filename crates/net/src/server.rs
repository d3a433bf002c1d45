//! The TCP serving frontend: a readiness-driven (reactor) server fronting
//! a [`SystemController`]. It is a *transport* — framing, sockets,
//! backpressure, deadlines. What a statement is, how a batch behaves and
//! where blocking work runs belong to the layers below
//! (`Connection::statement_class`, `Transport::batch_indexed`, [`WorkerPool`]).
//!
//! The paper's serving tier fronts tens of thousands of mostly-idle
//! small-app connections; one OS thread per connection does not survive
//! that cardinality, so every connection is multiplexed onto a few
//! *reactor* threads (epoll via `crate::sys`, level-triggered):
//!
//! * **Reactors** own all socket I/O. On readability they pump bytes into
//!   the connection's read buffer and decode complete frames; a request's
//!   SQL is classified from its database's cached plan, never re-parsed
//!   here. A request that takes no exclusive lock (a plain read may
//!   still wait, bounded by `lock_timeout`, for a writer's S-lock conflict)
//!   runs right there when nothing is queued ahead of it — on the reactor's
//!   own stack all the way into the engine, since the cluster runs an idle
//!   replica lane on the calling thread; everything else
//!   joins the connection's queue, drained by one task at a time on the
//!   worker pool — which grows while its threads sit in lock waits, so a
//!   row-lock convoy parks neither a reactor nor the lock holder's next
//!   statement. On writability reactors flush the reply outbox.
//!   Registration changes arrive over a per-reactor inbox + waker, so the
//!   poller needs no locking.
//! * **One execute-and-reply path** serves both: run the request *without*
//!   the connection's state lock, append the encoded reply to the outbox,
//!   flush opportunistically. An inline request only runs when the queue
//!   is idle, so replies are written in request order — which is what
//!   makes pipelining safe — and a reply appended while earlier bytes are
//!   still queued shares their flush (write coalescing).
//! * **Deadlines** live on a single timer wheel per reactor
//!   ([`crate::reactor::TimerWheel`]): handshake/partial-frame read
//!   deadlines, unflushed-write deadlines, and idle reaping are all lazy
//!   `(token, generation)` entries — no per-connection timers, no scan of
//!   10k sessions every tick.
//!
//! Limits are reactor policy: the accept loop refuses to `accept` beyond
//! `max_connections` (clients queue in the OS listen backlog); a
//! connection with too many decoded-but-unexecuted requests or too large
//! an unflushed outbox has its read interest paused until it drains;
//! graceful shutdown drains at frame boundaries with no transaction open,
//! then force-closes at the drain deadline. Dropping the platform
//! connection rolls back any open transaction — an abrupt client
//! disconnect mid-transaction cannot leak locks or a pool lane.

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use tenantdb_cluster::fault::{self, CrashPoint, FaultAction, FaultInjector};
use tenantdb_cluster::{
    BatchMode, ClusterError, Connection, PoolConfig, PoolMetrics, Transport, WorkerPool,
};
use tenantdb_obs::MetricsRegistry;
use tenantdb_platform::SystemController;
use tenantdb_sql::StatementClass;

use crate::reactor::{Event, Poller, TimerEntry, TimerWheel, Token, Waker, WakerRx, READ, WRITE};
use crate::sync::{
    Condvar, Mutex, MutexGuard, NET_CONN, NET_REACTOR_INBOX, NET_SESSIONS, NET_SLOTS,
};
use crate::wire::{ConnInfo, Frame, MAX_FRAME_LEN, PROTOCOL_VERSION};

/// How often the accept loop re-checks the shutdown flag while blocked on
/// the connection-limit condvar or an empty listen queue.
const ACCEPT_TICK: Duration = Duration::from_millis(50);

/// Reactor read chunk size.
const READ_CHUNK: usize = 16 * 1024;

/// Poller timeout cap once shutdown has begun, so reactors re-check the
/// drain state promptly even with an empty wheel.
const DRAIN_TICK: Duration = Duration::from_millis(50);

/// Reserved poller token for the reactor's waker fd.
const WAKER_TOKEN: Token = 0;

/// Per-connection cap on decoded-but-unexecuted pipelined requests; above
/// it the connection's read interest is paused until the pool catches up.
const PIPELINE_DEPTH: usize = 128;

/// A read-only batch longer than this runs on the pool, not inline: its
/// CPU time would stall every other connection on the reactor.
const MAX_INLINE_STMTS: usize = 16;

/// Serving-tier tunables.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Live-session ceiling; beyond it the accept loop stops accepting
    /// (clients queue in the OS listen backlog).
    pub max_connections: usize,
    /// Deadline for a started-but-incomplete inbound frame (and for the
    /// handshake after accept). Armed on the reactor's timer wheel.
    pub read_timeout: Duration,
    /// Deadline for unflushed reply bytes: an outbox the peer has not
    /// drained within this is a dead or hopelessly slow reader — sever.
    pub write_timeout: Duration,
    /// Sessions idle (no frame, not in a transaction) longer than this are
    /// reaped.
    pub idle_timeout: Duration,
    /// How long [`Server::shutdown`] waits for sessions to drain before
    /// force-closing their sockets.
    pub drain_timeout: Duration,
    /// Per-connection cap (bytes) on the unflushed reply outbox; above it
    /// read interest is paused (slow-reader backpressure) until the peer
    /// drains.
    pub write_buffer: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_connections: 64,
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(10),
            idle_timeout: Duration::from_secs(300),
            drain_timeout: Duration::from_secs(5),
            write_buffer: 256 * 1024,
        }
    }
}

/// Cross-thread request to a reactor, posted to its inbox + waker.
enum Msg {
    /// Adopt a freshly accepted connection.
    Register(Arc<Conn>),
    /// A pool task changed what the connection wants from the poller (a
    /// partial flush left bytes to write, or backpressure released).
    Sync(Token),
    /// Tear the connection down (a pool task detected a sever).
    Close(Token),
    /// Graceful drain: close idle, transaction-free connections now and
    /// the rest as they reach that state.
    Shutdown,
    /// Drain deadline passed: tear down every remaining connection.
    ForceClose,
}

/// A reactor thread's mailbox handle.
struct ReactorHandle {
    inbox: Mutex<Vec<Msg>>,
    waker: Waker,
}

impl ReactorHandle {
    fn send(&self, msg: Msg) {
        self.inbox.lock().push(msg);
        self.waker.wake();
    }
}

/// One decoded request.
struct Request {
    frame: Frame,
    /// When the frame was decoded (latency base).
    started: Instant,
}

/// May `frame` execute inline on the reactor? Qualifying requests never
/// *take* an exclusive lock: `Ping`, a plain read (by its plan's
/// classification — never a `FOR UPDATE`, however it is spelled), a short
/// `WholeTxn` batch of only such reads, or bare transaction control —
/// `BEGIN` allocates a transaction and `COMMIT`/`ROLLBACK` only release
/// locks (their replication work is bounded CPU, the same class as a large
/// inline select). A plain read does take S locks, so it can wait behind a
/// writer of the same rows for up to the engine's `lock_timeout` — since
/// the connection runs an idle replica lane on the calling thread, that
/// wait sits on the reactor's own stack — but it holds nothing another
/// session's progress depends on while it waits. Statements that take X
/// locks — writes, locking reads, write-bearing batches — go to the pool:
/// they are what a lock convoy is made of, and one must never park a
/// reactor. So does a statement that does not bind (its error is reported
/// when it runs, as `Connection::execute` reports it).
///
/// The classification is the cached plan's: a statement text the database
/// has not seen since its last DDL is parsed and bound here, once, and
/// executing it finds the plan.
fn inline_safe(frame: &Frame, conn: &Connection) -> bool {
    let is_read = |sql: &str| matches!(conn.statement_class(sql), Ok(StatementClass::Read));
    match frame {
        Frame::Ping { .. } | Frame::Begin | Frame::Commit | Frame::Rollback => true,
        Frame::Query { sql, .. } => is_read(sql),
        Frame::Batch {
            mode: BatchMode::WholeTxn,
            stmts,
            ..
        } => stmts.len() <= MAX_INLINE_STMTS && stmts.iter().all(|s| is_read(&s.sql)),
        _ => false,
    }
}

/// Connection lifecycle phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Accepted; waiting for (or processing) the `Hello`.
    Handshake,
    /// Handshake done; serving requests.
    Open,
    /// Torn down; pool tasks drop work for it.
    Closed,
}

/// Why a wheel deadline fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DeadlineKind {
    /// Partial inbound frame (or unfinished handshake) overstayed
    /// `read_timeout`.
    Read,
    /// Unflushed outbox overstayed `write_timeout`.
    Write,
    /// No activity for `idle_timeout` outside a transaction.
    Idle,
}

/// Mutable per-connection state, guarded by the rank-6 `NET_CONN` lock.
/// SQL never executes under this lock (see module docs).
struct ConnState {
    phase: Phase,
    db: String,
    /// Established at handshake. Whoever runs a request clones the Arc out
    /// and executes without the state lock; the *last* clone to drop rolls
    /// back any open transaction.
    platform: Option<Arc<Connection>>,
    /// Inbound bytes not yet forming a complete frame.
    rbuf: Vec<u8>,
    /// When the current partial frame started (read deadline base).
    rbuf_since: Option<Instant>,
    /// Decoded requests awaiting execution on the pool.
    pending: VecDeque<Request>,
    /// Encoded reply bytes not yet written to the socket.
    outbox: Vec<u8>,
    /// When the outbox first became non-empty (write deadline base).
    outbox_since: Option<Instant>,
    /// A pool task currently owns this connection's pending queue.
    scheduled: bool,
    /// True while a request is mid-execution (ConnInfo's `busy`).
    busy: bool,
    /// Read interest removed for backpressure.
    read_paused: bool,
    /// Poller is watching for writability.
    write_interest: bool,
    closing: bool,
    last_activity: Instant,
    /// Bumped on every deadline (re-)arm; stale wheel entries are dropped.
    deadline_gen: u64,
}

impl ConnState {
    /// Is the session inside an open transaction?
    fn in_txn(&self) -> bool {
        self.platform.as_ref().is_some_and(|p| p.in_txn())
    }

    /// Backpressure release point: half the pause watermarks, to avoid
    /// flapping.
    fn below_low_water(&self, write_buffer: usize) -> bool {
        self.pending.len() * 2 <= PIPELINE_DEPTH && self.outbox.len() * 2 <= write_buffer
    }
}

/// One connection: socket plus reactor bookkeeping. The slot guard inside
/// releases the accept slot when the last `Arc<Conn>` drops.
struct Conn {
    id: u64,
    peer: String,
    /// Index of the owning reactor in `Shared::reactors`.
    reactor: usize,
    sock: Arc<TcpStream>,
    fd: RawFd,
    state: Mutex<ConnState>,
    _slot: SlotGuard,
}

/// Hot-path metric handles, resolved once at startup. Per-frame
/// recording goes straight to the atomic — the registry's keyed lookup
/// (global lock + label-key allocation) is too expensive at
/// ~100k frames/s and would serialize the reactor threads on one mutex.
struct HotMetrics {
    bytes_in: Arc<tenantdb_obs::Counter>,
    bytes_out: Arc<tenantdb_obs::Counter>,
    flushes: Arc<tenantdb_obs::Counter>,
    coalesced: Arc<tenantdb_obs::Counter>,
    frame_latency: Arc<tenantdb_obs::Histogram>,
    frames_ping: Arc<tenantdb_obs::Counter>,
    frames_query: Arc<tenantdb_obs::Counter>,
    frames_execute: Arc<tenantdb_obs::Counter>,
    frames_begin: Arc<tenantdb_obs::Counter>,
    frames_commit: Arc<tenantdb_obs::Counter>,
    frames_rollback: Arc<tenantdb_obs::Counter>,
    frames_batch: Arc<tenantdb_obs::Counter>,
    frames_list_conns: Arc<tenantdb_obs::Counter>,
}

impl HotMetrics {
    fn new(m: &MetricsRegistry) -> Self {
        let frames = |kind| m.counter("tenantdb_net_frames_total", &[("kind", kind)]);
        HotMetrics {
            bytes_in: m.counter("tenantdb_net_bytes_in_total", &[]),
            bytes_out: m.counter("tenantdb_net_bytes_out_total", &[]),
            flushes: m.counter("tenantdb_net_flushes_total", &[]),
            coalesced: m.counter("tenantdb_net_coalesced_frames_total", &[]),
            frame_latency: m.histogram("tenantdb_net_frame_latency_us", &[]),
            frames_ping: frames("ping"),
            frames_query: frames("query"),
            frames_execute: frames("execute"),
            frames_begin: frames("begin"),
            frames_commit: frames("commit"),
            frames_rollback: frames("rollback"),
            frames_batch: frames("batch"),
            frames_list_conns: frames("list_conns"),
        }
    }

    /// Count one served request frame and its handling latency. Unusual
    /// kinds (a client sending reply opcodes) fall back to the registry.
    fn record_frame(&self, m: &MetricsRegistry, kind: &'static str, started: Instant) {
        match kind {
            "ping" => self.frames_ping.inc(),
            "query" => self.frames_query.inc(),
            "execute" => self.frames_execute.inc(),
            "begin" => self.frames_begin.inc(),
            "commit" => self.frames_commit.inc(),
            "rollback" => self.frames_rollback.inc(),
            "batch" => self.frames_batch.inc(),
            "list_conns" => self.frames_list_conns.inc(),
            other => m
                .counter("tenantdb_net_frames_total", &[("kind", other)])
                .inc(),
        }
        self.frame_latency.observe_since(started);
    }
}

struct Shared {
    system: Arc<SystemController>,
    cfg: ServerConfig,
    shutdown: AtomicBool,
    /// Live-session count; condvar waited on by the accept loop
    /// (backpressure) and by graceful shutdown (drain).
    slots: Mutex<usize>,
    slots_cv: Condvar,
    /// Established sessions only (post-handshake), for `\conns`.
    sessions: Mutex<HashMap<u64, Arc<Conn>>>,
    reactors: Vec<ReactorHandle>,
    next_id: AtomicU64,
    metrics: Arc<MetricsRegistry>,
    hot: HotMetrics,
    faults: Option<Arc<FaultInjector>>,
}

impl Shared {
    fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Check a net fault point. Returns true when the hook should sever
    /// the connection (a `Crash` action); `Delay` sleeps in place, which
    /// stalls exactly what a slow network would stall.
    fn fault_sever(&self, point: CrashPoint) -> bool {
        match self
            .faults
            .as_ref()
            .and_then(|f| f.check(point, fault::NET))
        {
            Some(FaultAction::Crash) => {
                self.metrics
                    .counter(
                        "tenantdb_net_faults_fired_total",
                        &[("point", point.name())],
                    )
                    .inc();
                true
            }
            Some(FaultAction::Delay(d)) => {
                // lint:allow(reactor-block): fault injection intentionally
                // stalls the handling thread — that IS the injected fault.
                thread::sleep(d);
                false
            }
            None => false,
        }
    }
}

/// Returns the accept slot on drop, whatever path retires the connection.
struct SlotGuard(Arc<Shared>);

impl Drop for SlotGuard {
    fn drop(&mut self) {
        *self.0.slots.lock() -= 1;
        self.0.slots_cv.notify_all();
        self.0.metrics.gauge("tenantdb_net_connections", &[]).dec();
    }
}

/// A running TCP serving frontend. Dropping the handle without calling
/// [`Server::shutdown`] force-closes all sessions (open transactions roll
/// back via connection drop).
pub struct Server {
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    reactors: Vec<JoinHandle<()>>,
    /// Runs every request that may block. The reactors hold the other
    /// handles; dropping the last one joins the workers.
    pool: Option<Arc<WorkerPool>>,
    local_addr: SocketAddr,
}

impl Server {
    /// Bind `addr` and start serving `system` with a disarmed fault
    /// injector.
    pub fn start(
        addr: impl ToSocketAddrs,
        system: Arc<SystemController>,
        cfg: ServerConfig,
    ) -> std::io::Result<Server> {
        Self::start_with_faults(addr, system, cfg, None)
    }

    /// Bind `addr` and start serving, checking the `CrashPoint::Net*`
    /// fault points against `faults` (the simulation harness's hook for
    /// killing connections at protocol-critical instants).
    pub fn start_with_faults(
        addr: impl ToSocketAddrs,
        system: Arc<SystemController>,
        cfg: ServerConfig,
        faults: Option<Arc<FaultInjector>>,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        // Nonblocking so the accept loop can notice shutdown promptly.
        listener.set_nonblocking(true)?;

        let metrics = Arc::new(MetricsRegistry::new());
        describe_metrics(&metrics);

        // Connections are assigned to reactors round-robin at accept.
        let n_reactors = thread::available_parallelism().map_or(1, |n| n.get().clamp(1, 4));
        let pool = Arc::new(WorkerPool::with_metrics(
            "net",
            PoolConfig::default(),
            Some(PoolMetrics::resolve(&metrics, "net", None)),
        ));

        let mut handles = Vec::with_capacity(n_reactors);
        let mut rx_sides = Vec::with_capacity(n_reactors);
        for _ in 0..n_reactors {
            let (waker, rx) = Waker::pair()?;
            handles.push(ReactorHandle {
                inbox: Mutex::new(&NET_REACTOR_INBOX, Vec::new()),
                waker,
            });
            rx_sides.push(rx);
        }

        let shared = Arc::new(Shared {
            system,
            cfg,
            shutdown: AtomicBool::new(false),
            slots: Mutex::new(&NET_SLOTS, 0),
            slots_cv: Condvar::new(),
            sessions: Mutex::new(&NET_SESSIONS, HashMap::new()),
            reactors: handles,
            // Token 0 is the waker; connection ids start at 1.
            next_id: AtomicU64::new(1),
            hot: HotMetrics::new(&metrics),
            metrics,
            faults,
        });

        let mut reactors = Vec::with_capacity(n_reactors);
        for (i, rx) in rx_sides.into_iter().enumerate() {
            let (shared, pool) = (Arc::clone(&shared), Arc::clone(&pool));
            reactors.push(
                thread::Builder::new()
                    .name(format!("net-reactor-{i}"))
                    .spawn(move || reactor_loop(shared, pool, i, rx))
                    .map_err(std::io::Error::other)?,
            );
        }
        let accept = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("net-accept".into())
                .spawn(move || accept_loop(shared, listener))
                .map_err(std::io::Error::other)?
        };

        Ok(Server {
            shared,
            accept: Some(accept),
            reactors,
            pool: Some(pool),
            local_addr,
        })
    }

    /// The bound address (use with `127.0.0.1:0` to get an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// This server's wire-metrics registry (register it with
    /// [`SystemController::register_metrics_source`] to have it appear in
    /// the platform scrape).
    pub fn metrics(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.shared.metrics)
    }

    /// Number of currently live sessions (including handshaking ones).
    pub fn session_count(&self) -> usize {
        *self.shared.slots.lock()
    }

    /// Snapshot of live sessions (the `\conns` listing).
    pub fn list_sessions(&self) -> Vec<ConnInfo> {
        list_sessions(&self.shared)
    }

    /// Graceful shutdown with the configured drain timeout: stop
    /// accepting, let sessions finish in-flight requests and open
    /// transactions, then force-close stragglers.
    pub fn shutdown(self) {
        let drain = self.shared.cfg.drain_timeout;
        self.shutdown_with_deadline(drain)
    }

    /// Graceful shutdown with an explicit drain timeout.
    pub fn shutdown_with_deadline(mut self, drain: Duration) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.slots_cv.notify_all();
        for r in &self.shared.reactors {
            r.send(Msg::Shutdown);
        }

        // Drain: connections retire at frame boundaries with no open
        // transaction; each slot release notifies the condvar.
        let deadline = Instant::now() + drain;
        {
            let mut n = self.shared.slots.lock();
            while *n > 0 && Instant::now() < deadline {
                self.shared.slots_cv.wait_until(&mut n, deadline);
            }
        }

        // Force-close whatever is left (open transactions roll back when
        // the last platform-connection handle drops).
        for r in &self.shared.reactors {
            r.send(Msg::ForceClose);
        }
        let hard = Instant::now() + Duration::from_secs(2);
        {
            let mut n = self.shared.slots.lock();
            while *n > 0 && Instant::now() < hard {
                self.shared.slots_cv.wait_until(&mut n, hard);
            }
        }

        self.join_threads();
    }

    fn join_threads(&mut self) {
        for r in &self.shared.reactors {
            r.waker.wake();
        }
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.reactors.drain(..) {
            let _ = h.join();
        }
        // The reactors' pool handles went with their threads: this is the
        // last one, and dropping it runs out the queue and joins the workers.
        self.pool = None;
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.accept.is_none() {
            return; // shutdown() already ran
        }
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.slots_cv.notify_all();
        for r in &self.shared.reactors {
            r.send(Msg::ForceClose);
        }
        self.join_threads();
    }
}

fn describe_metrics(metrics: &MetricsRegistry) {
    metrics.describe(
        "tenantdb_net_connections",
        "live TCP sessions on this server",
    );
    metrics.describe(
        "tenantdb_net_connections_total",
        "TCP sessions ever accepted",
    );
    metrics.describe("tenantdb_net_bytes_in_total", "wire bytes received");
    metrics.describe("tenantdb_net_bytes_out_total", "wire bytes sent");
    metrics.describe(
        "tenantdb_net_frames_total",
        "request frames served, by kind",
    );
    metrics.describe(
        "tenantdb_net_frame_latency_us",
        "request handling latency (frame decoded to reply written)",
    );
    metrics.describe(
        "tenantdb_net_idle_reaped_total",
        "sessions closed by the idle deadline",
    );
    metrics.describe(
        "tenantdb_net_handshake_failures_total",
        "connections that failed the protocol handshake",
    );
    metrics.describe(
        "tenantdb_net_faults_fired_total",
        "injected net faults that severed a connection, by point",
    );
    metrics.describe(
        "tenantdb_net_flushes_total",
        "socket flushes that wrote at least one byte",
    );
    metrics.describe(
        "tenantdb_net_coalesced_frames_total",
        "reply frames that shared a flush with earlier queued bytes",
    );
    metrics.describe(
        "tenantdb_net_read_pauses_total",
        "times a connection's read interest was paused for backpressure",
    );
    metrics.describe(
        "tenantdb_net_deadline_severs_total",
        "connections severed by a read/write deadline, by kind",
    );
}

// ------------------------------------------------------------------ accept

fn accept_loop(shared: Arc<Shared>, listener: TcpListener) {
    let mut next_reactor = 0usize;
    loop {
        if shared.is_shutdown() {
            return;
        }
        // Backpressure: do not even accept while at the connection limit —
        // waiting clients sit in the OS listen backlog.
        {
            let mut n = shared.slots.lock();
            while *n >= shared.cfg.max_connections {
                if shared.is_shutdown() {
                    return;
                }
                shared
                    .slots_cv
                    .wait_until(&mut n, Instant::now() + ACCEPT_TICK);
            }
        }
        match listener.accept() {
            Ok((stream, peer)) => {
                // Readiness-driven sessions: the socket goes nonblocking
                // here and every timeout (handshake, partial frame, stuck
                // writes, idling) is a deadline on the reactor's wheel.
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                // Small request/reply frames: Nagle + delayed ACK would
                // serialize pipelined replies at ~40ms each on loopback.
                let _ = stream.set_nodelay(true);
                if shared.fault_sever(CrashPoint::NetAccept) {
                    drop(stream); // injected accept failure: hang up
                    continue;
                }
                *shared.slots.lock() += 1;
                shared.metrics.gauge("tenantdb_net_connections", &[]).inc();
                shared
                    .metrics
                    .counter("tenantdb_net_connections_total", &[])
                    .inc();
                let id = shared.next_id.fetch_add(1, Ordering::SeqCst);
                let reactor = next_reactor % shared.reactors.len();
                next_reactor = next_reactor.wrapping_add(1);
                let fd = stream.as_raw_fd();
                let conn = Arc::new(Conn {
                    id,
                    peer: peer.to_string(),
                    reactor,
                    sock: Arc::new(stream),
                    fd,
                    state: Mutex::new(
                        &NET_CONN,
                        ConnState {
                            phase: Phase::Handshake,
                            db: String::new(),
                            platform: None,
                            rbuf: Vec::new(),
                            rbuf_since: None,
                            pending: VecDeque::new(),
                            outbox: Vec::new(),
                            outbox_since: None,
                            scheduled: false,
                            busy: false,
                            read_paused: false,
                            write_interest: false,
                            closing: false,
                            last_activity: Instant::now(),
                            deadline_gen: 0,
                        },
                    ),
                    _slot: SlotGuard(Arc::clone(&shared)),
                });
                shared.reactors[reactor].send(Msg::Register(conn));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                // lint:allow(reactor-block): dedicated accept thread, not a
                // reactor — a short nap between empty accept polls.
                thread::sleep(Duration::from_millis(5));
            }
            // lint:allow(reactor-block): dedicated accept thread (see above).
            Err(_) => thread::sleep(Duration::from_millis(5)),
        }
    }
}

// ----------------------------------------------------------------- reactor

/// One reactor thread: owns a poller, a timer wheel, and the connections
/// assigned to it. All poller mutations happen here.
struct Reactor {
    shared: Arc<Shared>,
    pool: Arc<WorkerPool>,
    idx: usize,
    poller: Poller,
    wheel: TimerWheel,
    conns: HashMap<Token, Arc<Conn>>,
    waker_rx: WakerRx,
    /// Read-pump scratch, allocated once — a fresh `[0u8; READ_CHUNK]`
    /// per readable event would zero 16 KiB on every wake.
    scratch: Vec<u8>,
}

fn reactor_loop(shared: Arc<Shared>, pool: Arc<WorkerPool>, idx: usize, waker_rx: WakerRx) {
    // From here on this thread waits in two places only (DESIGN.md §11.2):
    // the poller below and the inline window in `Reactor::dispatch`. Any
    // other sleep panics under lockdep.
    tenantdb_lockdep::mark_reactor();
    let mut poller = match Poller::new() {
        Ok(p) => p,
        Err(_) => return,
    };
    if poller
        .register(waker_rx.as_raw_fd(), WAKER_TOKEN, READ)
        .is_err()
    {
        return;
    }
    let mut r = Reactor {
        shared,
        pool,
        idx,
        poller,
        wheel: TimerWheel::new(Instant::now()),
        conns: HashMap::new(),
        waker_rx,
        scratch: vec![0u8; READ_CHUNK],
    };
    let mut events: Vec<Event> = Vec::new();
    let mut fired: Vec<TimerEntry> = Vec::new();
    loop {
        if r.shared.is_shutdown() && r.conns.is_empty() {
            return;
        }
        let now = Instant::now();
        let mut timeout = r.wheel.next_timeout(now);
        if r.shared.is_shutdown() {
            timeout = Some(timeout.unwrap_or(DRAIN_TICK).min(DRAIN_TICK));
        }
        events.clear();
        // The reactor's idle point, bounded by the timer wheel's next
        // deadline computed just above (or DRAIN_TICK while shutting down).
        if r.poller.wait(&mut events, timeout).is_err() {
            return;
        }
        for ev in events.iter().copied() {
            if ev.token == WAKER_TOKEN {
                r.waker_rx.drain();
                r.drain_inbox();
                continue;
            }
            let Some(conn) = r.conns.get(&ev.token).cloned() else {
                continue; // already torn down this cycle
            };
            if ev.writable {
                r.conn_writable(&conn);
            }
            if ev.readable && r.conns.contains_key(&ev.token) {
                r.conn_readable(&conn);
            }
            if ev.hangup && !ev.readable && r.conns.contains_key(&ev.token) {
                // Pure error/hangup with nothing to read: tear down now.
                r.teardown(&conn);
            }
        }
        let now = Instant::now();
        fired.clear();
        r.wheel.advance(now, &mut fired);
        for e in fired.iter().copied() {
            r.deadline_fired(e, now);
        }
        if r.shared.is_shutdown() {
            // Draining: retire sessions that went quiet since the last
            // tick (inline-served connections never pass through a pool
            // task, so the task's drain close can't catch them).
            r.drain_idle_conns();
        }
    }
}

impl Reactor {
    fn drain_inbox(&mut self) {
        loop {
            // Take the batch out, then release the inbox before touching
            // any connection state.
            let msgs = std::mem::take(&mut *self.shared.reactors[self.idx].inbox.lock());
            if msgs.is_empty() {
                return;
            }
            for msg in msgs {
                match msg {
                    Msg::Register(conn) => self.register_conn(conn),
                    Msg::Sync(t) => self.sync_conn(t),
                    Msg::Close(t) => {
                        if let Some(c) = self.conns.get(&t).cloned() {
                            self.teardown(&c);
                        }
                    }
                    Msg::Shutdown => self.drain_idle_conns(),
                    Msg::ForceClose => {
                        for c in self.conns.values().cloned().collect::<Vec<_>>() {
                            self.teardown(&c);
                        }
                    }
                }
            }
        }
    }

    fn register_conn(&mut self, conn: Arc<Conn>) {
        if self.shared.is_shutdown() {
            return; // dropping the Arc releases the slot
        }
        if self.poller.register(conn.fd, conn.id, READ).is_err() {
            return;
        }
        let now = Instant::now();
        {
            let mut st = conn.state.lock();
            st.last_activity = now;
            self.arm_deadline(conn.id, &mut st, now);
        }
        self.conns.insert(conn.id, conn);
    }

    /// Readable: pump bytes, decode frames, dispatch.
    fn conn_readable(&mut self, conn: &Arc<Conn>) {
        let mut frames: Vec<(Frame, Instant)> = Vec::new();
        let mut eof = false;
        let mut severed = false;
        {
            let mut st = conn.state.lock();
            if st.closing || st.read_paused {
                return;
            }
            let chunk = self.scratch.as_mut_slice();
            let mut total = 0u64;
            loop {
                // lint:allow(reactor-block): nonblocking socket; this read
                // is the readiness-gated pump and returns WouldBlock.
                match (&*conn.sock).read(chunk) {
                    Ok(0) => {
                        eof = true;
                        break;
                    }
                    Ok(n) => {
                        st.rbuf.extend_from_slice(&chunk[..n]);
                        total += n as u64;
                        if n < chunk.len() {
                            break; // drained the socket
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        eof = true;
                        break;
                    }
                }
            }
            if total > 0 {
                self.shared.hot.bytes_in.add(total);
                st.last_activity = Instant::now();
            }
            // Decode every complete frame in the buffer.
            let now = Instant::now();
            let mut consumed = 0usize;
            loop {
                let buf = &st.rbuf[consumed..];
                if buf.len() < 4 {
                    break;
                }
                let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]);
                if len == 0 || len > MAX_FRAME_LEN {
                    severed = true;
                    break;
                }
                let len = len as usize;
                if buf.len() < 4 + len {
                    break;
                }
                match Frame::decode(&buf[4..4 + len]) {
                    Ok(f) => frames.push((f, now)),
                    Err(_) => {
                        // Framing is lost; report then sever below.
                        severed = true;
                    }
                }
                consumed += 4 + len;
                if severed {
                    break;
                }
            }
            if consumed > 0 {
                st.rbuf.drain(..consumed);
            }
            st.rbuf_since = if st.rbuf.is_empty() {
                None
            } else {
                Some(st.rbuf_since.unwrap_or(now))
            };
        }

        if severed {
            // Protocol error: best-effort error frame, then sever.
            let err = Frame::Error(ClusterError::aborted("protocol error"));
            {
                let mut st = conn.state.lock();
                st.outbox.extend_from_slice(&err.encode());
                let _ = flush_outbox(&self.shared, conn, &mut st);
            }
            self.teardown(conn);
            return;
        }

        for (frame, started) in frames {
            if !self.conns.contains_key(&conn.id) {
                return; // torn down while dispatching an earlier frame
            }
            if self.shared.fault_sever(CrashPoint::NetFrameRead) {
                self.teardown(conn);
                return;
            }
            let phase = conn.state.lock().phase;
            match phase {
                Phase::Handshake => self.handshake(conn, frame),
                Phase::Open => self.dispatch(conn, frame, started),
                Phase::Closed => return,
            }
        }

        if eof && self.conns.contains_key(&conn.id) {
            self.teardown(conn);
            return;
        }
        if self.conns.contains_key(&conn.id) {
            let now = Instant::now();
            let mut st = conn.state.lock();
            self.check_backpressure(conn, &mut st);
            self.arm_deadline(conn.id, &mut st, now);
        }
    }

    /// Handle the `Hello`: resolve the database, negotiate policies. Any
    /// failure answers with an error frame and severs.
    fn handshake(&mut self, conn: &Arc<Conn>, frame: Frame) {
        let fail = |r: &mut Self, err: ClusterError| {
            r.shared
                .metrics
                .counter("tenantdb_net_handshake_failures_total", &[])
                .inc();
            {
                let mut st = conn.state.lock();
                st.outbox.extend_from_slice(&Frame::Error(err).encode());
                let _ = flush_outbox(&r.shared, conn, &mut st);
            }
            r.teardown(conn);
        };

        let Frame::Hello {
            db,
            read_pref,
            write_pref,
            ..
        } = frame
        else {
            return fail(
                self,
                ClusterError::aborted("handshake must start with hello"),
            );
        };

        // Client location: the serving tier terminates the connection
        // inside the colo, so the colo's own location is the honest
        // answer.
        let platform = match self.shared.system.connect(&db, (0.0, 0.0)) {
            Ok(c) => c,
            Err(e) => return fail(self, e),
        };

        // Policy negotiation: a specific preference is a demand. Refusing
        // is correct — Table 1 makes read/write policy observable, so
        // serving under different semantics than the client asked for
        // would be a silent correctness change.
        let (read_policy, write_policy) = platform.policies();
        if !read_pref.accepts(read_policy) || !write_pref.accepts(write_policy) {
            return fail(
                self,
                ClusterError::aborted(format!(
                    "policy negotiation failed: cluster serves {read_policy:?}/{write_policy:?}"
                )),
            );
        }

        if self.shared.fault_sever(CrashPoint::NetFrameWrite) {
            self.teardown(conn);
            return;
        }
        let ok = Frame::HelloOk {
            version: PROTOCOL_VERSION,
            read_policy,
            write_policy,
        };
        {
            let mut st = conn.state.lock();
            st.phase = Phase::Open;
            st.db = db;
            st.platform = Some(Arc::new(platform));
            st.last_activity = Instant::now();
            st.outbox.extend_from_slice(&ok.encode());
            if flush_outbox(&self.shared, conn, &mut st).is_err() {
                drop(st);
                self.teardown(conn);
                return;
            }
        }
        self.shared
            .sessions
            .lock()
            .insert(conn.id, Arc::clone(conn));
    }

    /// Dispatch one decoded request. When nothing is queued ahead of it
    /// (reply order preserved) and it takes no exclusive lock (see
    /// [`inline_safe`]) it executes right here, skipping the pool
    /// handoff — a context switch per request, the dominant cost of small
    /// requests on loopback. With the cluster running idle replica lanes on
    /// the calling thread, an inline read crosses no thread at all. Everything else joins the connection's pending
    /// queue, drained by one pool task at a time.
    fn dispatch(&mut self, conn: &Arc<Conn>, frame: Frame, started: Instant) {
        // Classified before the state lock is taken for good (binding an
        // uncached statement reads controller state), and only when the
        // request can run inline at all. Only this thread queues requests
        // for `conn`, so "nothing ahead" cannot turn false in between.
        let idle_platform = {
            let st = conn.state.lock();
            let nothing_ahead = st.pending.is_empty() && !st.scheduled;
            st.platform.clone().filter(|_| nothing_ahead)
        };
        let inline_platform = idle_platform.filter(|p| inline_safe(&frame, p));
        let req = Request { frame, started };
        let mut submit = false;
        let mut inline = None;
        {
            let mut st = conn.state.lock();
            if st.closing {
                return;
            }
            match inline_platform {
                Some(platform) => {
                    st.busy = true;
                    inline = Some((req, platform));
                }
                _ => {
                    st.pending.push_back(req);
                    if !st.scheduled {
                        st.scheduled = true;
                        submit = true;
                    }
                }
            }
        }
        if submit {
            let (shared, conn) = (Arc::clone(&self.shared), Arc::clone(conn));
            self.pool.spawn_task(move || serve_conn(&shared, &conn));
        }
        if let Some((req, platform)) = inline {
            let served = {
                let _window = tenantdb_lockdep::permit_blocking(
                    "inline execution is the documented serving-tier trade-off: an \
                     inline request takes no X lock; its waits are a plain read's S \
                     lock behind a writer (bounded by lock_timeout), a busy replica \
                     lane's reply, and the SLA deferral in ClusterController::admit \
                     (bounded by the gate's deferral budget)",
                );
                execute_and_reply(&self.shared, conn, &platform, req)
            };
            // Before any teardown: it must hold the session's last handle
            // to decide where an open transaction rolls back.
            drop(platform);
            match served {
                Some(mut st) => self.sync_interest(conn, &mut st),
                None => self.teardown(conn),
            }
        }
    }

    /// Writable: flush the outbox; drop write interest once drained.
    fn conn_writable(&mut self, conn: &Arc<Conn>) {
        let mut dead = false;
        {
            let mut st = conn.state.lock();
            if st.closing {
                return;
            }
            if flush_outbox(&self.shared, conn, &mut st).is_err() {
                dead = true;
            } else {
                self.sync_interest(conn, &mut st);
                if st.outbox.is_empty() {
                    self.check_backpressure(conn, &mut st);
                }
                let now = Instant::now();
                self.arm_deadline(conn.id, &mut st, now);
            }
        }
        if dead {
            self.teardown(conn);
        }
    }

    /// Reconcile the poller's interest mask with the connection state.
    fn sync_interest(&mut self, conn: &Conn, st: &mut ConnState) {
        let want_write = !st.outbox.is_empty();
        if want_write == st.write_interest {
            return;
        }
        st.write_interest = want_write;
        let mut mask = 0u8;
        if !st.read_paused {
            mask |= READ;
        }
        if want_write {
            mask |= WRITE;
        }
        let _ = self.poller.modify(conn.fd, conn.id, mask);
    }

    /// Pause reads above the pipeline/outbox watermarks; resume below.
    fn check_backpressure(&mut self, conn: &Conn, st: &mut ConnState) {
        let over =
            st.pending.len() >= PIPELINE_DEPTH || st.outbox.len() >= self.shared.cfg.write_buffer;
        if over && !st.read_paused {
            st.read_paused = true;
            self.shared
                .metrics
                .counter("tenantdb_net_read_pauses_total", &[])
                .inc();
            let mask = if st.write_interest { WRITE } else { 0 };
            let _ = self.poller.modify(conn.fd, conn.id, mask);
        } else if st.read_paused && st.below_low_water(self.shared.cfg.write_buffer) {
            st.read_paused = false;
            let mask = READ | if st.write_interest { WRITE } else { 0 };
            let _ = self.poller.modify(conn.fd, conn.id, mask);
        }
    }

    /// A pool task left a partial flush or drained below the watermarks:
    /// arm write interest, maybe re-enable reads.
    fn sync_conn(&mut self, token: Token) {
        let Some(conn) = self.conns.get(&token).cloned() else {
            return;
        };
        let mut st = conn.state.lock();
        if st.closing {
            return;
        }
        self.sync_interest(&conn, &mut st);
        self.check_backpressure(&conn, &mut st);
        let now = Instant::now();
        self.arm_deadline(conn.id, &mut st, now);
    }

    /// Compute and arm the connection's single effective deadline.
    fn arm_deadline(&mut self, token: Token, st: &mut ConnState, now: Instant) {
        let (deadline, _) = effective_deadline(&self.shared.cfg, st, now);
        st.deadline_gen += 1;
        self.wheel.schedule(
            TimerEntry {
                token,
                gen: st.deadline_gen,
            },
            deadline,
        );
    }

    /// A wheel entry fired: if it is current and actually due, act on it;
    /// a stale generation is a cancelled timer; an undue deadline (state
    /// changed since arming) is re-armed at its real instant.
    fn deadline_fired(&mut self, entry: TimerEntry, now: Instant) {
        let Some(conn) = self.conns.get(&entry.token).cloned() else {
            return; // connection already gone — stale entry
        };
        let mut reap = false;
        let mut sever: Option<DeadlineKind> = None;
        {
            let mut st = conn.state.lock();
            if st.closing || entry.gen != st.deadline_gen {
                return; // superseded by a later arm
            }
            let (deadline, kind) = effective_deadline(&self.shared.cfg, &st, now);
            if deadline > now {
                st.deadline_gen += 1;
                self.wheel.schedule(
                    TimerEntry {
                        token: entry.token,
                        gen: st.deadline_gen,
                    },
                    deadline,
                );
                return;
            }
            match kind {
                DeadlineKind::Read | DeadlineKind::Write => sever = Some(kind),
                DeadlineKind::Idle => {
                    // Busy or in-transaction sessions are never idle-reaped
                    // (idle-in-transaction is the txn timeout's job).
                    if st.scheduled || st.busy || st.in_txn() {
                        st.last_activity = now; // re-base the idle clock
                        st.deadline_gen += 1;
                        let (d, _) = effective_deadline(&self.shared.cfg, &st, now);
                        self.wheel.schedule(
                            TimerEntry {
                                token: entry.token,
                                gen: st.deadline_gen,
                            },
                            d,
                        );
                        return;
                    }
                    reap = true;
                }
            }
        }
        if let Some(kind) = sever {
            let label = match kind {
                DeadlineKind::Read => "read",
                DeadlineKind::Write => "write",
                DeadlineKind::Idle => "idle",
            };
            self.shared
                .metrics
                .counter("tenantdb_net_deadline_severs_total", &[("kind", label)])
                .inc();
            self.teardown(&conn);
        } else if reap {
            self.shared
                .metrics
                .counter("tenantdb_net_idle_reaped_total", &[])
                .inc();
            self.teardown(&conn);
        }
    }

    /// Graceful-drain pass: close every connection that is idle with no
    /// open transaction. The rest retire from the pool side as they reach
    /// that state (or at the force-close deadline).
    fn drain_idle_conns(&mut self) {
        let candidates: Vec<Arc<Conn>> = self.conns.values().cloned().collect();
        for conn in candidates {
            let retire = {
                let st = conn.state.lock();
                !st.in_txn() && !st.scheduled && st.pending.is_empty() && st.outbox.is_empty()
            };
            if retire {
                self.teardown(&conn);
            }
        }
    }

    /// Deregister, final-flush, and drop a connection. Idempotent; the
    /// only place a connection leaves the poller. An open transaction
    /// rolls back when the last platform-connection handle drops (which
    /// may be a pool task's, if one is mid-statement) — never on this
    /// thread: the rollback waits for every replica lane, and a lane can be
    /// busy for a whole lock timeout (an aggressive-mode straggler write
    /// queued on a row lock), so a handle that may have a transaction to
    /// roll back is handed to the pool to drop.
    fn teardown(&mut self, conn: &Arc<Conn>) {
        if self.conns.remove(&conn.id).is_none() {
            return;
        }
        let _ = self.poller.deregister(conn.fd);
        let (platform, mid_request) = {
            let mut st = conn.state.lock();
            st.closing = true;
            st.phase = Phase::Closed;
            st.pending.clear();
            let _ = flush_outbox(&self.shared, conn, &mut st); // best-effort
            st.outbox.clear();
            (st.platform.take(), st.busy)
        };
        // `mid_request`: a pool task is executing on its own handle and may
        // open a transaction (or drop that handle) at any moment, leaving
        // this one the last.
        if let Some(platform) = platform.filter(|p| mid_request || p.in_txn()) {
            self.pool.spawn_task(move || drop(platform));
        }
        self.shared.sessions.lock().remove(&conn.id);
        let _ = conn.sock.shutdown(Shutdown::Both);
    }
}

/// Which deadline governs this connection right now. Precedence: a stuck
/// write is the tightest signal of a dead peer, then a stalled partial
/// frame, then idleness. A handshaking session's "idle" bound is the read
/// timeout — a client that connects and stalls is severed, not parked for
/// `idle_timeout`.
fn effective_deadline(
    cfg: &ServerConfig,
    st: &ConnState,
    _now: Instant,
) -> (Instant, DeadlineKind) {
    if let Some(t) = st.outbox_since {
        return (t + cfg.write_timeout, DeadlineKind::Write);
    }
    if let Some(t) = st.rbuf_since {
        return (t + cfg.read_timeout, DeadlineKind::Read);
    }
    if st.phase == Phase::Handshake {
        return (st.last_activity + cfg.read_timeout, DeadlineKind::Read);
    }
    (st.last_activity + cfg.idle_timeout, DeadlineKind::Idle)
}

/// Append an encoded reply to the outbox, counting coalesced frames.
fn append_reply(shared: &Shared, st: &mut ConnState, frame: &Frame) {
    if !st.outbox.is_empty() {
        shared.hot.coalesced.inc();
    }
    frame.encode_into(&mut st.outbox);
}

/// Write as much of the outbox as the socket accepts without blocking —
/// the write coalescing point: however many reply frames have accumulated,
/// they leave in as few writes as the socket allows. Updates the
/// write-deadline base; callers re-sync poller interest.
fn flush_outbox(shared: &Shared, conn: &Conn, st: &mut ConnState) -> std::io::Result<()> {
    let mut written = 0usize;
    let res = loop {
        if written == st.outbox.len() {
            break Ok(());
        }
        // lint:allow(reactor-block): nonblocking socket; this write is the
        // readiness-gated flush and returns WouldBlock when full.
        match (&*conn.sock).write(&st.outbox[written..]) {
            Ok(0) => break Err(std::io::Error::from(std::io::ErrorKind::WriteZero)),
            Ok(n) => written += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => break Err(e),
        }
    };
    if written > 0 {
        st.outbox.drain(..written);
        shared.hot.bytes_out.add(written as u64);
        shared.hot.flushes.inc();
    }
    st.outbox_since = if st.outbox.is_empty() {
        None
    } else {
        Some(st.outbox_since.unwrap_or_else(Instant::now))
    };
    res
}

fn list_sessions(shared: &Shared) -> Vec<ConnInfo> {
    let sessions = shared.sessions.lock();
    let mut out: Vec<ConnInfo> = sessions
        .values()
        .map(|c| {
            let st = c.state.lock();
            ConnInfo {
                id: c.id,
                db: st.db.clone(),
                peer: c.peer.clone(),
                in_txn: st.in_txn(),
                busy: st.busy,
                idle_ms: st.last_activity.elapsed().as_millis() as u64,
            }
        })
        .collect();
    out.sort_by_key(|c| c.id);
    out
}

// ------------------------------------------------------- execute and reply

/// Run one request against the session and queue its reply — the only
/// place a request executes, whichever thread runs it. Returns the
/// connection's state guard, still held, so the caller reconciles poller
/// interest in the same critical section; that is the one step that differs
/// by caller (a reactor edits its own poller, a pool task posts to the
/// owning reactor's inbox). `None`: the connection is dead (injected fault,
/// failed flush) or was torn down meanwhile — the caller severs it.
fn execute_and_reply<'c>(
    shared: &Shared,
    conn: &'c Conn,
    platform: &Connection,
    req: Request,
) -> Option<MutexGuard<'c, ConnState>> {
    let kind = req.frame.kind();
    let started = req.started;
    // Execute WITHOUT the state lock: statement work can block on row
    // locks; listings and deadlines must not block behind it.
    let reply = match admission_shed(platform, &req.frame) {
        Some(shed) => shed,
        None => handle_request(shared, platform, req),
    };
    // The "did my commit land?" window: the request has fully executed but
    // the client never hears about it.
    let dropped = shared.fault_sever(CrashPoint::NetResponseDrop)
        || shared.fault_sever(CrashPoint::NetFrameWrite);
    let mut st = conn.state.lock();
    st.busy = false;
    if dropped || st.closing {
        return None;
    }
    append_reply(shared, &mut st, &reply);
    let flushed = flush_outbox(shared, conn, &mut st);
    st.last_activity = Instant::now();
    shared.hot.record_frame(&shared.metrics, kind, started);
    flushed.ok().map(|()| st)
}

/// Pool task: drain one connection's pending queue. The `scheduled` flag
/// guarantees one task per connection at a time, so replies are appended
/// in request order.
fn serve_conn(shared: &Shared, conn: &Arc<Conn>) {
    loop {
        // Pop one request (and the platform handle) under the state lock.
        let (req, platform) = {
            let mut st = conn.state.lock();
            if st.closing {
                st.scheduled = false;
                return;
            }
            match st.pending.pop_front() {
                Some(req) => {
                    st.busy = true;
                    (req, st.platform.clone())
                }
                None => {
                    st.scheduled = false;
                    // Graceful drain: an idle, transaction-free session
                    // retires at this frame boundary.
                    if shared.is_shutdown() && !st.in_txn() && st.outbox.is_empty() {
                        drop(st);
                        shared.reactors[conn.reactor].send(Msg::Close(conn.id));
                    }
                    return;
                }
            }
        };
        let st = platform.and_then(|p| execute_and_reply(shared, conn, &p, req));
        let Some(st) = st else {
            sever(shared, conn);
            return;
        };
        let partial_flush = !st.outbox.is_empty() && !st.write_interest;
        let drained = st.read_paused && st.below_low_water(shared.cfg.write_buffer);
        drop(st);
        if partial_flush || drained {
            shared.reactors[conn.reactor].send(Msg::Sync(conn.id));
        }
        // Loop: serve the next pending request, or clear `scheduled`.
    }
}

/// Pool-side sever: mark closing and hand the socket back to the reactor
/// for teardown.
fn sever(shared: &Shared, conn: &Arc<Conn>) {
    {
        let mut st = conn.state.lock();
        st.scheduled = false;
        st.busy = false;
        st.closing = true;
        st.pending.clear();
    }
    shared.reactors[conn.reactor].send(Msg::Close(conn.id));
}

/// Non-blocking SLA admission shed: refuse new-transaction work for an
/// over-rate tenant before it costs execution time. The probe never blocks
/// and never consumes a token, so it is safe on a reactor thread, and the
/// shed is still counted against the tenant's rejected fraction. Only
/// frames that would *start* a transaction are probed — `Commit`/`Rollback`
/// of an open transaction (and anything mid-transaction) must always get
/// through, and `Begin` self-gates inside the cluster connection. The probe
/// only pre-empts *rejects*: a Defer decision inside `admit()` still
/// sleeps. Returns the reply frame to send when the tenant is over rate,
/// `None` to proceed.
fn admission_shed(conn: &Connection, frame: &Frame) -> Option<Frame> {
    let starts_txn = matches!(frame, Frame::Query { .. } | Frame::Batch { .. }) && !conn.in_txn();
    if !starts_txn {
        return None;
    }
    let error = conn.admission_probe()?;
    Some(match frame {
        Frame::Batch { seq, .. } => Frame::BatchErr {
            seq: *seq,
            index: 0,
            error,
        },
        _ => Frame::Error(error),
    })
}

fn handle_request(shared: &Shared, conn: &Connection, req: Request) -> Frame {
    let done = |r: Result<(), ClusterError>| match r {
        Ok(()) => Frame::Ok,
        Err(e) => Frame::Error(e),
    };
    match req.frame {
        Frame::Ping { token } => Frame::Pong { token },
        Frame::Query { sql, params } => match conn.execute(&sql, &params) {
            Ok(r) => Frame::ResultSet(r),
            Err(e) => Frame::Error(e),
        },
        Frame::Execute { sql, params } => match conn.execute(&sql, &params) {
            Ok(r) => Frame::Affected {
                rows: r.rows_affected,
            },
            Err(e) => Frame::Error(e),
        },
        Frame::Begin => done(conn.begin()),
        Frame::Commit => done(conn.commit()),
        Frame::Rollback => done(conn.rollback()),
        Frame::ListConns => Frame::ConnList(list_sessions(shared)),
        Frame::Batch { seq, mode, stmts } => {
            let results = conn.batch_indexed(stmts.len(), mode, &mut |i| {
                conn.execute(&stmts[i].sql, &stmts[i].params)
            });
            match results {
                Ok(results) => Frame::BatchOk { seq, results },
                Err((index, error)) => Frame::BatchErr { seq, index, error },
            }
        }
        // Reply frames (or a second Hello) are not valid requests.
        other => Frame::Error(ClusterError::aborted(format!(
            "unexpected request frame: {}",
            other.kind()
        ))),
    }
}
