//! The native blocking client: [`NetClient`] speaks the [`crate::wire`]
//! protocol and mirrors the in-process connection API.
//!
//! One client = one server session = one cluster session lane; requests
//! are strictly one-at-a-time (a mutex serializes the stream), matching
//! how the in-process connection is driven. The client implements
//! [`Transport`], so TPC-W drivers, tests, and the shell run unchanged
//! over TCP.
//!
//! Failure handling is deliberately conservative: once a request fails at
//! the transport layer (socket error, framing lost), the connection is
//! marked broken and every subsequent call fails fast — the server has
//! already rolled back any open transaction when it saw the connection
//! die, and re-syncing a byte stream with lost framing is not possible.

use std::fmt;
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::thread;
use std::time::Duration;

use tenantdb_cluster::{BatchMode, BatchStmt, ClusterError, ReadPolicy, Transport, WritePolicy};
use tenantdb_sql::QueryResult;
use tenantdb_storage::Value;

use crate::sync::{Mutex, NET_CLIENT};
use crate::wire::{self, ConnInfo, Frame, ReadPref, WireError, WritePref, PROTOCOL_VERSION};

/// Client-side errors.
#[derive(Debug)]
pub enum NetError {
    /// Socket-level failure (connect, read, write, timeout).
    Io(io::Error),
    /// Protocol violation (bad frame, unexpected reply type).
    Wire(WireError),
    /// The server executed the request and reported a database error —
    /// the round-tripped [`ClusterError`], classification intact.
    Server(ClusterError),
    /// A batched execute failed at statement `index` (`stmts.len()` means
    /// the implicit commit). The error classification rides along intact.
    Batch {
        /// Zero-based index of the failing statement within the batch;
        /// `stmts.len()` when the implicit commit itself failed.
        index: u32,
        /// The server-reported error for that statement.
        error: ClusterError,
    },
    /// The connection was already broken by an earlier transport failure.
    Broken,
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "io error: {e}"),
            NetError::Wire(e) => write!(f, "wire error: {e}"),
            NetError::Server(e) => write!(f, "server error: {e}"),
            NetError::Batch { index, error } => {
                write!(f, "batch failed at statement {index}: {error}")
            }
            NetError::Broken => f.write_str("connection broken by earlier failure"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> Self {
        NetError::Io(e)
    }
}

impl From<WireError> for NetError {
    fn from(e: WireError) -> Self {
        match e {
            WireError::Io(io) => NetError::Io(io),
            other => NetError::Wire(other),
        }
    }
}

/// Shorthand for client results.
pub type NetResult<T> = std::result::Result<T, NetError>;

/// Connection establishment and per-request tunables.
#[derive(Debug, Clone)]
pub struct ConnectOptions {
    /// Total connect attempts (≥ 1) before giving up.
    pub attempts: u32,
    /// Backoff before the second attempt; doubles per retry.
    pub initial_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Socket read timeout (a reply must start arriving within this).
    pub read_timeout: Duration,
    /// Socket write timeout.
    pub write_timeout: Duration,
    /// Read-routing preference to negotiate (see [`ReadPref`]).
    pub read_pref: ReadPref,
    /// Write-acknowledgement preference to negotiate.
    pub write_pref: WritePref,
}

impl Default for ConnectOptions {
    fn default() -> Self {
        ConnectOptions {
            attempts: 5,
            initial_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_secs(1),
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(10),
            read_pref: ReadPref::Default,
            write_pref: WritePref::Default,
        }
    }
}

struct ClientInner {
    /// Write half (writes go straight to the socket; replies can arrive
    /// while a pipelined burst is still being written).
    stream: TcpStream,
    /// Buffered read half (a `try_clone` of the same socket): one `read`
    /// syscall typically pulls a whole reply — or a whole pipelined burst
    /// of replies — instead of three reads per frame.
    reader: BufReader<TcpStream>,
    /// Client's view of transaction state: begin acknowledged, no
    /// commit/rollback since.
    in_txn: bool,
    /// Set on the first transport failure; fails every later call fast.
    broken: bool,
    /// Sequence counter tagging batch frames, so a batch reply can be
    /// matched to its request even with other frames pipelined around it.
    next_seq: u32,
}

/// A blocking connection to a [`crate::Server`], bound to one database.
pub struct NetClient {
    inner: Mutex<ClientInner>,
    db: String,
    read_policy: ReadPolicy,
    write_policy: WritePolicy,
}

impl NetClient {
    /// Connect to `addr` and handshake onto `db`, retrying transient
    /// failures with exponential backoff per `opts`. A server *refusal*
    /// (unknown database, failed policy negotiation) is returned
    /// immediately — retrying cannot fix it.
    pub fn connect(
        addr: impl ToSocketAddrs,
        db: &str,
        opts: ConnectOptions,
    ) -> NetResult<NetClient> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        if addrs.is_empty() {
            return Err(NetError::Io(io::Error::new(
                io::ErrorKind::InvalidInput,
                "address resolved to nothing",
            )));
        }
        let mut backoff = opts.initial_backoff;
        let mut last = None;
        for attempt in 0..opts.attempts.max(1) {
            if attempt > 0 {
                thread::sleep(backoff);
                backoff = (backoff * 2).min(opts.max_backoff);
            }
            match Self::try_connect(&addrs, db, &opts) {
                Ok(c) => return Ok(c),
                Err(NetError::Server(e)) => return Err(NetError::Server(e)),
                Err(e) => last = Some(e),
            }
        }
        Err(last.expect("attempts >= 1"))
    }

    fn try_connect(addrs: &[SocketAddr], db: &str, opts: &ConnectOptions) -> NetResult<NetClient> {
        let mut stream = TcpStream::connect(addrs)?;
        stream.set_read_timeout(Some(opts.read_timeout))?;
        stream.set_write_timeout(Some(opts.write_timeout))?;
        let _ = stream.set_nodelay(true); // latency over throughput for small frames

        wire::write_frame(
            &mut stream,
            &Frame::Hello {
                version: PROTOCOL_VERSION,
                db: db.to_string(),
                read_pref: opts.read_pref,
                write_pref: opts.write_pref,
            },
        )?;
        match wire::read_frame(&mut stream)? {
            Some(Frame::HelloOk {
                read_policy,
                write_policy,
                ..
            }) => {
                let reader = BufReader::with_capacity(64 * 1024, stream.try_clone()?);
                Ok(NetClient {
                    inner: Mutex::new(
                        &NET_CLIENT,
                        ClientInner {
                            stream,
                            reader,
                            in_txn: false,
                            broken: false,
                            next_seq: 0,
                        },
                    ),
                    db: db.to_string(),
                    read_policy,
                    write_policy,
                })
            }
            Some(Frame::Error(e)) => Err(NetError::Server(e)),
            Some(other) => Err(NetError::Wire(WireError::UnexpectedFrame(other.kind()))),
            None => Err(NetError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed during handshake",
            ))),
        }
    }

    /// The database this client is connected to.
    pub fn database(&self) -> &str {
        &self.db
    }

    /// The read-routing policy negotiated at handshake.
    pub fn read_policy(&self) -> ReadPolicy {
        self.read_policy
    }

    /// The write-acknowledgement policy negotiated at handshake.
    pub fn write_policy(&self) -> WritePolicy {
        self.write_policy
    }

    /// One request/reply round-trip under the stream lock. Transport
    /// failures poison the connection.
    fn request(&self, frame: &Frame) -> NetResult<Frame> {
        let mut inner = self.inner.lock();
        Self::roundtrip(&mut inner, frame)
    }

    fn roundtrip(inner: &mut ClientInner, frame: &Frame) -> NetResult<Frame> {
        if inner.broken {
            return Err(NetError::Broken);
        }
        Self::roundtrip_bytes(inner, &frame.encode())
    }

    /// Like [`NetClient::roundtrip`] but for a request already encoded by
    /// one of the borrow-based `wire::encode_*_request` helpers — the hot
    /// paths skip building an owned [`Frame`] (and the clones that takes).
    /// Callers must check `inner.broken` first.
    fn roundtrip_bytes(inner: &mut ClientInner, bytes: &[u8]) -> NetResult<Frame> {
        let r = (|| -> NetResult<Frame> {
            inner.stream.write_all(bytes).map_err(NetError::Io)?;
            match wire::read_frame(&mut inner.reader)? {
                Some(f) => Ok(f),
                None => Err(NetError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ))),
            }
        })();
        if matches!(r, Err(NetError::Io(_)) | Err(NetError::Wire(_))) {
            inner.broken = true;
            // The server sees the dead/unsynced connection and rolls back.
            inner.in_txn = false;
        }
        r
    }

    /// Start an explicit transaction.
    pub fn begin(&self) -> NetResult<()> {
        let mut inner = self.inner.lock();
        match Self::roundtrip(&mut inner, &Frame::Begin)? {
            Frame::Ok => {
                inner.in_txn = true;
                Ok(())
            }
            Frame::Error(e) => Err(NetError::Server(e)),
            other => Err(NetError::Wire(WireError::UnexpectedFrame(other.kind()))),
        }
    }

    /// Statement retries after a `NotLeader` reply. A `NotLeader` means
    /// the controller group was mid-election (or briefly quorumless) when
    /// the request needed a metadata write; outside an explicit
    /// transaction such a statement made no durable change, so retrying
    /// after the group re-elects is safe. Inside a transaction the error
    /// propagates — the server already aborted the transaction.
    const NOT_LEADER_ATTEMPTS: u32 = 3;
    /// Backoff between `NotLeader` retries (election timescale).
    const NOT_LEADER_BACKOFF: Duration = Duration::from_millis(20);

    /// Send an encoded statement request, retrying (bounded) on
    /// leadership errors per [`Self::NOT_LEADER_ATTEMPTS`].
    fn stmt_roundtrip(&self, bytes: &[u8]) -> NetResult<Frame> {
        let mut attempt = 0;
        loop {
            let mut inner = self.inner.lock();
            if inner.broken {
                return Err(NetError::Broken);
            }
            let reply = Self::roundtrip_bytes(&mut inner, bytes)?;
            let in_txn = inner.in_txn;
            drop(inner);
            match reply {
                Frame::Error(e)
                    if e.is_not_leader() && !in_txn && attempt < Self::NOT_LEADER_ATTEMPTS =>
                {
                    attempt += 1;
                    thread::sleep(Self::NOT_LEADER_BACKOFF);
                }
                other => return Ok(other),
            }
        }
    }

    /// Execute one SQL statement and return the full result set.
    pub fn execute(&self, sql: &str, params: &[Value]) -> NetResult<QueryResult> {
        let bytes = wire::encode_stmt_request(sql, params, false);
        match self.stmt_roundtrip(&bytes)? {
            Frame::ResultSet(r) => Ok(r),
            Frame::Error(e) => Err(NetError::Server(e)),
            other => Err(NetError::Wire(WireError::UnexpectedFrame(other.kind()))),
        }
    }

    /// Commit the open transaction. The client-side transaction flag
    /// clears whatever the outcome — after a commit attempt the server
    /// session is out of the transaction either way.
    pub fn commit(&self) -> NetResult<()> {
        let mut inner = self.inner.lock();
        let r = Self::roundtrip(&mut inner, &Frame::Commit);
        inner.in_txn = false;
        match r? {
            Frame::Ok => Ok(()),
            Frame::Error(e) => Err(NetError::Server(e)),
            other => Err(NetError::Wire(WireError::UnexpectedFrame(other.kind()))),
        }
    }

    /// Roll back the open transaction. Rolling back with no transaction
    /// open is a no-op success, mirroring driver-friendly behavior.
    pub fn rollback(&self) -> NetResult<()> {
        let mut inner = self.inner.lock();
        let r = Self::roundtrip(&mut inner, &Frame::Rollback);
        inner.in_txn = false;
        match r? {
            Frame::Ok => Ok(()),
            Frame::Error(ClusterError::NoActiveTxn) => Ok(()),
            Frame::Error(e) => Err(NetError::Server(e)),
            other => Err(NetError::Wire(WireError::UnexpectedFrame(other.kind()))),
        }
    }

    /// Client's view of transaction state (no server round-trip).
    pub fn in_txn(&self) -> bool {
        self.inner.lock().in_txn
    }

    /// One liveness round-trip.
    pub fn ping(&self, token: u64) -> NetResult<()> {
        match self.request(&Frame::Ping { token })? {
            Frame::Pong { token: t } if t == token => Ok(()),
            Frame::Pong { .. } => Err(NetError::Wire(WireError::UnexpectedFrame("pong token"))),
            Frame::Error(e) => Err(NetError::Server(e)),
            other => Err(NetError::Wire(WireError::UnexpectedFrame(other.kind()))),
        }
    }

    /// Pipelined liveness: write `n` pings back-to-back, then read the
    /// `n` pongs — one RTT's worth of latency for the whole batch, which
    /// is the point. Verifies every token round-trips in order.
    pub fn ping_pipelined(&self, n: u64) -> NetResult<()> {
        let mut inner = self.inner.lock();
        if inner.broken {
            return Err(NetError::Broken);
        }
        let r = (|| -> NetResult<()> {
            for token in 0..n {
                // Batch the writes: encode straight to the socket without
                // the per-frame flush of write_frame.
                inner.stream.write_all(&Frame::Ping { token }.encode())?;
            }
            inner.stream.flush()?;
            for token in 0..n {
                match wire::read_frame(&mut inner.reader)? {
                    Some(Frame::Pong { token: t }) if t == token => {}
                    Some(Frame::Pong { .. }) => {
                        return Err(NetError::Wire(WireError::UnexpectedFrame("pong order")))
                    }
                    Some(other) => {
                        return Err(NetError::Wire(WireError::UnexpectedFrame(other.kind())))
                    }
                    None => {
                        return Err(NetError::Io(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "server closed mid-pipeline",
                        )))
                    }
                }
            }
            Ok(())
        })();
        if r.is_err() {
            inner.broken = true;
            inner.in_txn = false;
        }
        r
    }

    /// Execute a batch of statements in **one** wire round-trip.
    ///
    /// This is the flat-RTT path the serving tier exists for: with
    /// [`BatchMode::WholeTxn`] the whole transaction body (implicit
    /// `BEGIN` … `COMMIT`) crosses the wire as a single `Batch` frame and
    /// comes back as a single `BatchOk` — per-transaction network
    /// overhead stops scaling with statement count. Semantics match the
    /// in-process [`Transport::execute_batch`] exactly (same statement
    /// results, same error, same transaction state afterwards); the e2e
    /// suite asserts byte-identical TPC-W results across the two paths.
    ///
    /// On a statement failure the error arrives as [`NetError::Batch`]
    /// with the zero-based index of the failing statement
    /// (`stmts.len()` = the implicit commit failed). In `WholeTxn` and
    /// `FinishTxn` modes the server has already rolled back; in
    /// `Statements` mode the transaction (if any) is left open for the
    /// caller to roll back, mirroring the in-process contract.
    pub fn execute_batch(
        &self,
        stmts: &[BatchStmt],
        mode: BatchMode,
    ) -> NetResult<Vec<QueryResult>> {
        let mut inner = self.inner.lock();
        if inner.broken {
            return Err(NetError::Broken);
        }
        let seq = inner.next_seq;
        inner.next_seq = inner.next_seq.wrapping_add(1);
        let reply =
            Self::roundtrip_bytes(&mut inner, &wire::encode_batch_request(seq, mode, stmts));
        // Finishing modes resolve the transaction either way (commit on
        // success, server-side rollback on failure). Statements mode
        // leaves the client's view untouched.
        if mode != BatchMode::Statements && !inner.broken {
            inner.in_txn = false;
        }
        match reply? {
            Frame::BatchOk { seq: s, results } if s == seq => Ok(results),
            Frame::BatchErr {
                seq: s,
                index,
                error,
            } if s == seq => Err(NetError::Batch { index, error }),
            Frame::BatchOk { .. } | Frame::BatchErr { .. } => {
                inner.broken = true; // reply for a batch we never sent
                inner.in_txn = false;
                Err(NetError::Wire(WireError::UnexpectedFrame("batch seq")))
            }
            Frame::Error(e) => Err(NetError::Server(e)),
            other => Err(NetError::Wire(WireError::UnexpectedFrame(other.kind()))),
        }
    }

    /// The server's live-session listing (the shell's `\conns`).
    pub fn list_conns(&self) -> NetResult<Vec<ConnInfo>> {
        match self.request(&Frame::ListConns)? {
            Frame::ConnList(conns) => Ok(conns),
            Frame::Error(e) => Err(NetError::Server(e)),
            other => Err(NetError::Wire(WireError::UnexpectedFrame(other.kind()))),
        }
    }
}

/// Map a client error into the cluster error space for [`Transport`]:
/// server-reported errors pass through untouched (classification
/// preserved); transport failures become [`ClusterError::TxnAborted`],
/// which is exactly what a client must assume about a transaction it lost
/// contact with.
fn to_cluster(e: NetError) -> ClusterError {
    match e {
        NetError::Server(e) => e,
        NetError::Batch { error, .. } => error,
        other => ClusterError::aborted(format!("network: {other}")),
    }
}

impl Transport for NetClient {
    fn begin(&self) -> Result<(), ClusterError> {
        NetClient::begin(self).map_err(to_cluster)
    }

    fn execute(&self, sql: &str, params: &[Value]) -> Result<QueryResult, ClusterError> {
        NetClient::execute(self, sql, params).map_err(to_cluster)
    }

    fn commit(&self) -> Result<(), ClusterError> {
        NetClient::commit(self).map_err(to_cluster)
    }

    fn rollback(&self) -> Result<(), ClusterError> {
        NetClient::rollback(self).map_err(to_cluster)
    }

    fn in_txn(&self) -> bool {
        NetClient::in_txn(self)
    }

    /// Over TCP a batch is ONE round-trip (a single `Batch` frame), not
    /// N — this override is where the wire's per-transaction overhead
    /// collapses from `(N + 2) × RTT` to `1 × RTT`.
    fn execute_batch(
        &self,
        stmts: &[BatchStmt],
        mode: BatchMode,
    ) -> Result<Vec<QueryResult>, ClusterError> {
        NetClient::execute_batch(self, stmts, mode).map_err(to_cluster)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A socket read timeout is the client losing contact, not the
    /// platform refusing the transaction: it must not count against the
    /// tenant's §4.1 rejected fraction. Linux reports `SO_RCVTIMEO` as
    /// EAGAIN, whose text is "Resource temporarily unavailable".
    #[test]
    fn a_socket_timeout_is_no_refusal() {
        for io_err in [
            io::Error::from_raw_os_error(11),
            io::Error::from(io::ErrorKind::TimedOut),
        ] {
            let err = to_cluster(NetError::Io(io_err));
            assert!(matches!(err, ClusterError::TxnAborted(_)), "{err:?}");
            assert_eq!(err.refusal(), None, "{err}");
            assert!(!err.is_proactive_rejection(), "{err}");
        }
    }
}
