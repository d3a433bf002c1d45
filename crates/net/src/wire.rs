//! The versioned, length-prefixed binary wire protocol (DESIGN.md §11).
//!
//! Every frame on the wire is `u32 length (LE) | u8 opcode | payload`; the
//! length counts the opcode byte plus the payload. The decoder is total: any
//! byte sequence either decodes to a [`Frame`] or returns a [`WireError`] —
//! it never panics and never allocates more than the declared (and bounded)
//! lengths. That property is what the protocol property tests and the
//! corrupt-input suite in `tests/proto.rs` pin down, under Miri.
//!
//! A connection starts with a handshake: the client sends [`Frame::Hello`]
//! (protocol version, database name, read-routing / write-policy
//! preferences) and the server answers [`Frame::HelloOk`] with the policies
//! actually in force, or [`Frame::Error`] if the database is unknown or a
//! demanded policy cannot be honored. After the handshake the client issues
//! request frames (`Query`/`Execute`/`Begin`/`Commit`/`Rollback`/`Ping`/
//! `ListConns`/`Batch`) and the server answers each with exactly one reply
//! frame, in request order. Requests may be *pipelined*: the client may
//! issue any number of requests ahead of their replies; the reactor-based
//! server queues them per connection and executes them strictly in order,
//! so the k-th reply always answers the k-th request. [`Frame::Batch`] additionally carries an explicit `seq`
//! tag echoed in its [`Frame::BatchOk`]/[`Frame::BatchErr`] reply, so an
//! issue-ahead client can match batch replies without counting frames.
//!
//! Errors round-trip: [`Frame::Error`] carries a structurally encoded
//! [`ClusterError`] (including the nested `SqlError` / `StorageError`
//! variants, and a `TxnAborted`'s [`Refusal`] as a tag), so
//! [`ClusterError::refusal`] gives the client the answer it gives the
//! server, and a tenant's outcome is classified identically over either
//! transport.
//!
//! The `0x20` opcode family is the cross-colo **log-stream protocol**
//! (`tenantdb-georep`): a shipper opens a per-database stream with
//! [`Frame::GeoHello`] pinning `(db, start_lsn)` under a fencing `epoch`,
//! the standby answers [`Frame::GeoHelloOk`] with the LSN it wants to
//! resume from, batched [`Frame::GeoRecords`] carry log records, the
//! standby acknowledges cumulatively with [`Frame::GeoAck`], and either
//! side kills a stream from a stale epoch with [`Frame::GeoFenced`].
//!
//! This module frames; it does not own a data format. Every [`Value`] (a
//! statement's parameters, a result's rows) and the body of a
//! `GeoRecords` batch are in [`tenantdb_storage::codec`]'s layout, the one
//! the log stores its records in, so a shipped record crosses the wire as
//! the log lays it out. The frame's own integers and tags are fixed-width
//! little-endian, and its strings a `u32` length and UTF-8.

use std::fmt;
use std::io::{self, Read, Write};

use tenantdb_cluster::{
    Aborted, BatchMode, BatchStmt, ClusterError, ReadPolicy, Refusal, WritePolicy,
};
use tenantdb_sql::{QueryResult, SqlError};
use tenantdb_storage::codec::{self, DecodeError};
use tenantdb_storage::{LogRecord, Lsn, StorageError, TxnId, Value};

/// The protocol version this build speaks, and the only one it accepts in
/// a handshake. Version 4 carries an aborted transaction's refusal as a tag.
pub const PROTOCOL_VERSION: u16 = 4;

/// The version of the cross-colo log-stream protocol (the `Geo*` frame
/// family) this build speaks, and the only one it accepts. Versioned
/// separately from the client protocol. Version 2 ships each record as the
/// log lays it out; version 3's records name no database (the handshake's
/// `db` is the only name a stream carries).
pub const GEOREP_PROTOCOL_VERSION: u16 = 3;

/// Upper bound on a frame body (opcode + payload). A length prefix above
/// this is rejected before any allocation — the decoder's defense against
/// a hostile or corrupt 4-GiB length prefix.
pub const MAX_FRAME_LEN: u32 = 8 * 1024 * 1024;

/// Upper bound on any single string/collection length inside a frame.
/// Secondary defense: even a frame with a plausible total length cannot
/// declare an inner length that forces a huge up-front reservation.
const MAX_INNER_LEN: u32 = MAX_FRAME_LEN;

/// Decoder/transport errors. The decoder side (`Bad*`, `Truncated`,
/// `TrailingBytes`) is deliberately precise so the corrupt-input tests can
/// assert *which* defense fired.
#[derive(Debug)]
pub enum WireError {
    /// Underlying socket/stream error.
    Io(io::Error),
    /// Length prefix exceeds [`MAX_FRAME_LEN`] (or is zero).
    FrameLength(u32),
    /// Frame body ended before the payload was complete.
    Truncated,
    /// Frame body has bytes left over after a complete payload.
    TrailingBytes(usize),
    /// Unknown opcode byte.
    BadOpcode(u8),
    /// Handshake carried a protocol version this build does not speak.
    BadVersion(u16),
    /// Unknown enum tag (policy, batch mode, error variant).
    BadTag(u8),
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// A value or log record did not decode (see [`codec`]).
    Codec(DecodeError),
    /// The peer answered a request with a frame that request cannot produce.
    UnexpectedFrame(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "io error: {e}"),
            WireError::FrameLength(n) => write!(f, "bad frame length {n}"),
            WireError::Truncated => f.write_str("truncated frame"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing byte(s) after frame payload"),
            WireError::BadOpcode(op) => write!(f, "unknown opcode 0x{op:02x}"),
            WireError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::BadTag(t) => write!(f, "unknown tag 0x{t:02x}"),
            WireError::BadUtf8 => f.write_str("invalid utf-8 in string field"),
            WireError::Codec(e) => write!(f, "bad value or log record: {e}"),
            WireError::UnexpectedFrame(what) => write!(f, "unexpected reply frame: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

/// Shorthand for codec results.
pub type WireResult<T> = std::result::Result<T, WireError>;

/// Client read-routing preference in the handshake. `Default` accepts
/// whatever the serving cluster is configured with; a specific preference
/// is a *demand* — the server refuses the handshake rather than silently
/// serving under different semantics (Table 1 makes the difference
/// observable, so it must not be negotiated away).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadPref {
    /// Accept the server's configured read policy.
    Default,
    /// Demand §3.1 Option 1 (pinned replica).
    Pinned,
    /// Demand §3.1 Option 2 (per-transaction replica).
    PerTransaction,
    /// Demand §3.1 Option 3 (per-operation replica).
    PerOperation,
}

impl ReadPref {
    fn to_u8(self) -> u8 {
        match self {
            ReadPref::Default => 0,
            ReadPref::Pinned => 1,
            ReadPref::PerTransaction => 2,
            ReadPref::PerOperation => 3,
        }
    }

    fn from_u8(b: u8) -> WireResult<Self> {
        Ok(match b {
            0 => ReadPref::Default,
            1 => ReadPref::Pinned,
            2 => ReadPref::PerTransaction,
            3 => ReadPref::PerOperation,
            other => return Err(WireError::BadTag(other)),
        })
    }

    /// Does this preference accept the given configured policy?
    pub fn accepts(self, policy: ReadPolicy) -> bool {
        match self {
            ReadPref::Default => true,
            ReadPref::Pinned => policy == ReadPolicy::PinnedReplica,
            ReadPref::PerTransaction => policy == ReadPolicy::PerTransaction,
            ReadPref::PerOperation => policy == ReadPolicy::PerOperation,
        }
    }
}

/// Client write-acknowledgement preference in the handshake (see
/// [`ReadPref`] for the negotiation rule).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WritePref {
    /// Accept the server's configured write policy.
    Default,
    /// Demand conservative (wait-all) acknowledgement.
    Conservative,
    /// Demand aggressive (first-ack) acknowledgement.
    Aggressive,
}

impl WritePref {
    fn to_u8(self) -> u8 {
        match self {
            WritePref::Default => 0,
            WritePref::Conservative => 1,
            WritePref::Aggressive => 2,
        }
    }

    fn from_u8(b: u8) -> WireResult<Self> {
        Ok(match b {
            0 => WritePref::Default,
            1 => WritePref::Conservative,
            2 => WritePref::Aggressive,
            other => return Err(WireError::BadTag(other)),
        })
    }

    /// Does this preference accept the given configured policy?
    pub fn accepts(self, policy: WritePolicy) -> bool {
        match self {
            WritePref::Default => true,
            WritePref::Conservative => policy == WritePolicy::Conservative,
            WritePref::Aggressive => policy == WritePolicy::Aggressive,
        }
    }
}

fn read_policy_to_u8(p: ReadPolicy) -> u8 {
    match p {
        ReadPolicy::PinnedReplica => 1,
        ReadPolicy::PerTransaction => 2,
        ReadPolicy::PerOperation => 3,
    }
}

fn read_policy_from_u8(b: u8) -> WireResult<ReadPolicy> {
    Ok(match b {
        1 => ReadPolicy::PinnedReplica,
        2 => ReadPolicy::PerTransaction,
        3 => ReadPolicy::PerOperation,
        other => return Err(WireError::BadTag(other)),
    })
}

fn write_policy_to_u8(p: WritePolicy) -> u8 {
    match p {
        WritePolicy::Conservative => 1,
        WritePolicy::Aggressive => 2,
    }
}

fn write_policy_from_u8(b: u8) -> WireResult<WritePolicy> {
    Ok(match b {
        1 => WritePolicy::Conservative,
        2 => WritePolicy::Aggressive,
        other => return Err(WireError::BadTag(other)),
    })
}

fn batch_mode_to_u8(m: BatchMode) -> u8 {
    match m {
        BatchMode::Statements => 0,
        BatchMode::FinishTxn => 1,
        BatchMode::WholeTxn => 2,
    }
}

fn batch_mode_from_u8(b: u8) -> WireResult<BatchMode> {
    Ok(match b {
        0 => BatchMode::Statements,
        1 => BatchMode::FinishTxn,
        2 => BatchMode::WholeTxn,
        other => return Err(WireError::BadTag(other)),
    })
}

/// One live server session, as reported by [`Frame::ConnList`] (the shell's
/// `\conns` command).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConnInfo {
    /// Server-assigned session id (monotonic per server).
    pub id: u64,
    /// Database the session is connected to.
    pub db: String,
    /// Client peer address as the server sees it.
    pub peer: String,
    /// True while the session has an explicit transaction open.
    pub in_txn: bool,
    /// True while the session is executing a request.
    pub busy: bool,
    /// Milliseconds since the session's last request activity.
    pub idle_ms: u64,
}

/// Every frame of the protocol. See the module docs for the conversation
/// structure; DESIGN.md §11 has the full grammar table.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client → server handshake.
    Hello {
        /// Protocol version the client speaks ([`PROTOCOL_VERSION`]).
        version: u16,
        /// Database to connect to.
        db: String,
        /// Read-routing preference (demand or accept-default).
        read_pref: ReadPref,
        /// Write-acknowledgement preference.
        write_pref: WritePref,
    },
    /// Server → client handshake acceptance, naming the policies in force.
    HelloOk {
        /// Protocol version the server speaks.
        version: u16,
        /// The read policy this session will be served under.
        read_policy: ReadPolicy,
        /// The write policy this session will be served under.
        write_policy: WritePolicy,
    },
    /// Liveness probe; may be pipelined. The token round-trips in
    /// [`Frame::Pong`].
    Ping {
        /// Opaque token echoed back by the server.
        token: u64,
    },
    /// Reply to [`Frame::Ping`].
    Pong {
        /// The token from the matching ping.
        token: u64,
    },
    /// Reply to `Begin`/`Commit`/`Rollback`.
    Ok,
    /// Any request's failure reply: a round-tripped [`ClusterError`].
    Error(ClusterError),
    /// Execute SQL and return the full typed result set.
    Query {
        /// The SQL text.
        sql: String,
        /// Positional `?` parameters.
        params: Vec<Value>,
    },
    /// Reply to [`Frame::Query`]: the complete [`QueryResult`].
    ResultSet(QueryResult),
    /// Execute SQL for effect only; the reply is [`Frame::Affected`]
    /// (result rows, if any, are discarded server-side — cheaper than
    /// `Query` for DML).
    Execute {
        /// The SQL text.
        sql: String,
        /// Positional `?` parameters.
        params: Vec<Value>,
    },
    /// Reply to [`Frame::Execute`].
    Affected {
        /// Rows inserted/updated/deleted.
        rows: u64,
    },
    /// Start an explicit transaction.
    Begin,
    /// Commit the open transaction (2PC server-side).
    Commit,
    /// Roll back the open transaction.
    Rollback,
    /// List the server's live sessions (operator surface; `\conns`).
    ListConns,
    /// Reply to [`Frame::ListConns`].
    ConnList(Vec<ConnInfo>),
    /// Execute N statements as one unit in a single frame.
    /// The dominant serving-tier cost is the per-statement round trip;
    /// batching a whole transaction body collapses it to one RTT.
    Batch {
        /// Client-chosen tag, echoed in the `BatchOk`/`BatchErr` reply so
        /// an issue-ahead client can match replies without counting.
        seq: u32,
        /// Transaction framing for the batch (see [`BatchMode`]).
        mode: BatchMode,
        /// The statements, executed strictly in order.
        stmts: Vec<BatchStmt>,
    },
    /// Successful reply to [`Frame::Batch`]: one [`QueryResult`] per
    /// statement, in statement order.
    BatchOk {
        /// The `seq` from the matching `Batch`.
        seq: u32,
        /// Per-statement results (same length and order as the request).
        results: Vec<QueryResult>,
    },
    /// Failure reply to [`Frame::Batch`]. The server stops at the first
    /// failing step; `index` names it (`stmts.len()` means the implicit
    /// commit of a commit-owning mode failed). Transaction state follows
    /// the [`BatchMode`] contract: commit-owning modes have rolled back
    /// (or the commit itself resolved the txn); `Statements` mode leaves
    /// any open transaction open.
    BatchErr {
        /// The `seq` from the matching `Batch`.
        seq: u32,
        /// Index of the failing step; `stmts.len()` = the implicit commit.
        index: u32,
        /// The round-tripped error.
        error: ClusterError,
    },
    /// Shipper → standby: open a per-database log stream. Pins the
    /// `(db, start_lsn)` pair the shipper intends to send from, under the
    /// shipper's fencing epoch. The standby replies [`Frame::GeoHelloOk`]
    /// (possibly rewinding the shipper to its own applied LSN) or
    /// [`Frame::GeoFenced`] if it has seen a newer epoch.
    GeoHello {
        /// Log-stream protocol version ([`GEOREP_PROTOCOL_VERSION`]).
        version: u16,
        /// The database whose log this stream carries.
        db: String,
        /// First LSN the shipper proposes to send.
        start_lsn: Lsn,
        /// The shipper's fencing epoch (stale epochs are refused).
        epoch: u64,
        /// Cluster machine id of the primary replica this stream is pinned
        /// to. Shipped transaction ids are local to this engine; promotion
        /// uses `(source, txn)` to match in-doubt transactions against the
        /// old primary's replicated decision log.
        source: u32,
    },
    /// Standby → shipper: stream accepted. `resume_lsn` is the LSN the
    /// standby wants next (its cumulative applied position) — after a
    /// disconnect the shipper restarts from here, not from its own guess.
    GeoHelloOk {
        /// Log-stream protocol version the standby speaks.
        version: u16,
        /// The LSN the standby expects next.
        resume_lsn: Lsn,
    },
    /// Shipper → standby: a batch of consecutive WAL records. Every batch
    /// re-states the epoch so a standby that observed a promotion mid-stream
    /// fences the very next frame, not just the next handshake.
    GeoRecords {
        /// The shipper's fencing epoch.
        epoch: u64,
        /// Consecutive records of the handshake's database, in LSN order.
        records: Vec<LogRecord>,
    },
    /// Standby → shipper: cumulative acknowledgement. All records with
    /// `lsn < applied_lsn` are applied on the standby; the shipper may
    /// release them and measures its lag against this watermark.
    GeoAck {
        /// One past the highest applied LSN.
        applied_lsn: Lsn,
    },
    /// Stream rejection: the sender's epoch is stale — a promotion happened.
    /// Carries the newest epoch the receiver has seen so the fenced side can
    /// log why it must stand down.
    GeoFenced {
        /// The newest fencing epoch known to the rejecting peer.
        epoch: u64,
    },
}

impl Frame {
    /// Stable opcode byte for this frame type.
    pub fn opcode(&self) -> u8 {
        match self {
            Frame::Hello { .. } => 0x01,
            Frame::HelloOk { .. } => 0x02,
            Frame::Ping { .. } => 0x03,
            Frame::Pong { .. } => 0x04,
            Frame::Ok => 0x05,
            Frame::Error(_) => 0x06,
            Frame::Query { .. } => 0x10,
            Frame::ResultSet(_) => 0x11,
            Frame::Execute { .. } => 0x12,
            Frame::Affected { .. } => 0x13,
            Frame::Begin => 0x14,
            Frame::Commit => 0x15,
            Frame::Rollback => 0x16,
            Frame::ListConns => 0x17,
            Frame::ConnList(_) => 0x18,
            Frame::Batch { .. } => 0x19,
            Frame::BatchOk { .. } => 0x1A,
            Frame::BatchErr { .. } => 0x1B,
            Frame::GeoHello { .. } => 0x20,
            Frame::GeoHelloOk { .. } => 0x21,
            Frame::GeoRecords { .. } => 0x22,
            Frame::GeoAck { .. } => 0x23,
            Frame::GeoFenced { .. } => 0x24,
        }
    }

    /// Short stable name (metrics label, diagnostics).
    pub fn kind(&self) -> &'static str {
        match self {
            Frame::Hello { .. } => "hello",
            Frame::HelloOk { .. } => "hello_ok",
            Frame::Ping { .. } => "ping",
            Frame::Pong { .. } => "pong",
            Frame::Ok => "ok",
            Frame::Error(_) => "error",
            Frame::Query { .. } => "query",
            Frame::ResultSet(_) => "result_set",
            Frame::Execute { .. } => "execute",
            Frame::Affected { .. } => "affected",
            Frame::Begin => "begin",
            Frame::Commit => "commit",
            Frame::Rollback => "rollback",
            Frame::ListConns => "list_conns",
            Frame::ConnList(_) => "conn_list",
            Frame::Batch { .. } => "batch",
            Frame::BatchOk { .. } => "batch_ok",
            Frame::BatchErr { .. } => "batch_err",
            Frame::GeoHello { .. } => "geo_hello",
            Frame::GeoHelloOk { .. } => "geo_hello_ok",
            Frame::GeoRecords { .. } => "geo_records",
            Frame::GeoAck { .. } => "geo_ack",
            Frame::GeoFenced { .. } => "geo_fenced",
        }
    }

    /// Encode this frame as a complete wire message (length prefix
    /// included).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(20);
        self.encode_into(&mut out);
        out
    }

    /// Encode this frame (length prefix included) appended to `out` —
    /// the server's reply path writes straight into a connection outbox
    /// with no intermediate buffer or second copy.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let start = out.len();
        out.extend_from_slice(&[0u8; 4]); // length backfilled below
        let body = out;
        body.push(self.opcode());
        match self {
            Frame::Hello {
                version,
                db,
                read_pref,
                write_pref,
            } => {
                put_u16(body, *version);
                put_str(body, db);
                body.push(read_pref.to_u8());
                body.push(write_pref.to_u8());
            }
            Frame::HelloOk {
                version,
                read_policy,
                write_policy,
            } => {
                put_u16(body, *version);
                body.push(read_policy_to_u8(*read_policy));
                body.push(write_policy_to_u8(*write_policy));
            }
            Frame::Ping { token } | Frame::Pong { token } => put_u64(body, *token),
            Frame::Ok | Frame::Begin | Frame::Commit | Frame::Rollback | Frame::ListConns => {}
            Frame::Error(e) => put_cluster_error(body, e),
            Frame::Query { sql, params } | Frame::Execute { sql, params } => {
                put_str(body, sql);
                codec::encode_row(body, params);
            }
            Frame::ResultSet(r) => put_query_result(body, r),
            Frame::Affected { rows } => put_u64(body, *rows),
            Frame::ConnList(conns) => {
                put_u32(body, conns.len() as u32);
                for c in conns {
                    put_u64(body, c.id);
                    put_str(body, &c.db);
                    put_str(body, &c.peer);
                    body.push(c.in_txn as u8);
                    body.push(c.busy as u8);
                    put_u64(body, c.idle_ms);
                }
            }
            Frame::Batch { seq, mode, stmts } => put_batch(body, *seq, *mode, stmts),
            Frame::BatchOk { seq, results } => {
                put_u32(body, *seq);
                put_u32(body, results.len() as u32);
                for r in results {
                    put_query_result(body, r);
                }
            }
            Frame::BatchErr { seq, index, error } => {
                put_u32(body, *seq);
                put_u32(body, *index);
                put_cluster_error(body, error);
            }
            Frame::GeoHello {
                version,
                db,
                start_lsn,
                epoch,
                source,
            } => {
                put_u16(body, *version);
                put_str(body, db);
                put_u64(body, start_lsn.0);
                put_u64(body, *epoch);
                put_u32(body, *source);
            }
            Frame::GeoHelloOk {
                version,
                resume_lsn,
            } => {
                put_u16(body, *version);
                put_u64(body, resume_lsn.0);
            }
            Frame::GeoRecords { epoch, records } => {
                put_u64(body, *epoch);
                codec::encode_batch(body, records);
            }
            Frame::GeoAck { applied_lsn } => put_u64(body, applied_lsn.0),
            Frame::GeoFenced { epoch } => put_u64(body, *epoch),
        }
        let len = (body.len() - start - 4) as u32;
        body[start..start + 4].copy_from_slice(&len.to_le_bytes());
    }

    /// Decode a frame body (opcode + payload, the length prefix already
    /// stripped). Total: returns an error on any malformed input.
    pub fn decode(body: &[u8]) -> WireResult<Frame> {
        let mut r = Reader::new(body);
        let op = r.u8()?;
        let frame = match op {
            0x01 => {
                let version = r.version(PROTOCOL_VERSION)?;
                let db = r.string()?;
                let read_pref = ReadPref::from_u8(r.u8()?)?;
                let write_pref = WritePref::from_u8(r.u8()?)?;
                Frame::Hello {
                    version,
                    db,
                    read_pref,
                    write_pref,
                }
            }
            0x02 => {
                let version = r.version(PROTOCOL_VERSION)?;
                Frame::HelloOk {
                    version,
                    read_policy: read_policy_from_u8(r.u8()?)?,
                    write_policy: write_policy_from_u8(r.u8()?)?,
                }
            }
            0x03 => Frame::Ping { token: r.u64()? },
            0x04 => Frame::Pong { token: r.u64()? },
            0x05 => Frame::Ok,
            0x06 => Frame::Error(get_cluster_error(&mut r)?),
            0x10 | 0x12 => {
                let sql = r.string()?;
                let params = r.codec(codec::decode_row)?;
                if op == 0x10 {
                    Frame::Query { sql, params }
                } else {
                    Frame::Execute { sql, params }
                }
            }
            0x11 => Frame::ResultSet(get_query_result(&mut r)?),
            0x13 => Frame::Affected { rows: r.u64()? },
            0x14 => Frame::Begin,
            0x15 => Frame::Commit,
            0x16 => Frame::Rollback,
            0x17 => Frame::ListConns,
            0x18 => {
                let n = r.bounded_len()?;
                let mut conns = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    conns.push(ConnInfo {
                        id: r.u64()?,
                        db: r.string()?,
                        peer: r.string()?,
                        in_txn: r.u8()? != 0,
                        busy: r.u8()? != 0,
                        idle_ms: r.u64()?,
                    });
                }
                Frame::ConnList(conns)
            }
            0x19 => {
                let seq = r.u32()?;
                let mode = batch_mode_from_u8(r.u8()?)?;
                let n = r.bounded_len()?;
                let mut stmts = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    let sql = r.string()?;
                    let params = r.codec(codec::decode_row)?;
                    stmts.push(BatchStmt { sql, params });
                }
                Frame::Batch { seq, mode, stmts }
            }
            0x1A => {
                let seq = r.u32()?;
                let n = r.bounded_len()?;
                let mut results = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    results.push(get_query_result(&mut r)?);
                }
                Frame::BatchOk { seq, results }
            }
            0x1B => {
                let seq = r.u32()?;
                let index = r.u32()?;
                let error = get_cluster_error(&mut r)?;
                Frame::BatchErr { seq, index, error }
            }
            0x20 => {
                let version = r.version(GEOREP_PROTOCOL_VERSION)?;
                Frame::GeoHello {
                    version,
                    db: r.string()?,
                    start_lsn: Lsn(r.u64()?),
                    epoch: r.u64()?,
                    source: r.u32()?,
                }
            }
            0x21 => {
                let version = r.version(GEOREP_PROTOCOL_VERSION)?;
                Frame::GeoHelloOk {
                    version,
                    resume_lsn: Lsn(r.u64()?),
                }
            }
            0x22 => Frame::GeoRecords {
                epoch: r.u64()?,
                records: r.codec(codec::decode_batch)?,
            },
            0x23 => Frame::GeoAck {
                applied_lsn: Lsn(r.u64()?),
            },
            0x24 => Frame::GeoFenced { epoch: r.u64()? },
            other => return Err(WireError::BadOpcode(other)),
        };
        r.finish()?;
        Ok(frame)
    }
}

/// Read one complete frame from `r` (blocking). Returns `Ok(None)` on a
/// clean EOF *before* any header byte (the peer closed between frames);
/// mid-frame EOF is an error.
pub fn read_frame(r: &mut impl Read) -> WireResult<Option<Frame>> {
    let mut len_buf = [0u8; 4];
    // First header byte distinguishes clean close from truncation.
    match r.read(&mut len_buf[..1]) {
        Ok(0) => return Ok(None),
        Ok(_) => {}
        Err(e) => return Err(WireError::Io(e)),
    }
    r.read_exact(&mut len_buf[1..])?;
    let len = u32::from_le_bytes(len_buf);
    if len == 0 || len > MAX_FRAME_LEN {
        return Err(WireError::FrameLength(len));
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body)?;
    Frame::decode(&body).map(Some)
}

/// Write one frame to `w` and flush. Returns the number of bytes written.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> WireResult<usize> {
    let bytes = frame.encode();
    w.write_all(&bytes)?;
    w.flush()?;
    Ok(bytes.len())
}

/// Encode a `Query`/`Execute` request from borrowed parts. Byte-identical
/// to building the owning [`Frame`] and calling [`Frame::encode`], minus
/// the statement/param clones — the client's per-statement hot path.
pub fn encode_stmt_request(sql: &str, params: &[Value], affected_only: bool) -> Vec<u8> {
    let mut body = Vec::with_capacity(10 + sql.len() + 9 * params.len());
    body.push(if affected_only { 0x12 } else { 0x10 });
    put_str(&mut body, sql);
    codec::encode_row(&mut body, params);
    finish_frame(body)
}

/// Encode a `Batch` request from borrowed statements. Byte-identical to
/// `Frame::Batch { .. }.encode()` without cloning every SQL string into
/// an owned frame first.
pub fn encode_batch_request(seq: u32, mode: BatchMode, stmts: &[BatchStmt]) -> Vec<u8> {
    let mut body = Vec::with_capacity(10 + 48 * stmts.len());
    body.push(0x19);
    put_batch(&mut body, seq, mode, stmts);
    finish_frame(body)
}

/// Prefix an encoded frame body (opcode + payload) with its length header.
fn finish_frame(body: Vec<u8>) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + body.len());
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&body);
    out
}

// ------------------------------------------------------------- primitives

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// A `Batch` payload after its opcode.
fn put_batch(out: &mut Vec<u8>, seq: u32, mode: BatchMode, stmts: &[BatchStmt]) {
    put_u32(out, seq);
    out.push(batch_mode_to_u8(mode));
    put_u32(out, stmts.len() as u32);
    for s in stmts {
        put_str(out, &s.sql);
        codec::encode_row(out, &s.params);
    }
}

fn put_query_result(out: &mut Vec<u8>, r: &QueryResult) {
    put_u32(out, r.columns.len() as u32);
    for c in r.columns.iter() {
        put_str(out, c);
    }
    put_u32(out, r.rows.len() as u32);
    for row in &r.rows {
        codec::encode_row(out, row);
    }
    put_u64(out, r.rows_affected);
    for touched in [&r.touched_reads, &r.touched_writes] {
        put_u32(out, touched.len() as u32);
        for (table, row_id) in touched {
            put_str(out, table);
            put_u64(out, *row_id);
        }
    }
}

fn put_storage_error(out: &mut Vec<u8>, e: &StorageError) {
    match e {
        StorageError::NoSuchDatabase(s) => {
            out.push(0);
            put_str(out, s);
        }
        StorageError::NoSuchTable(s) => {
            out.push(1);
            put_str(out, s);
        }
        StorageError::NoSuchIndex(s) => {
            out.push(2);
            put_str(out, s);
        }
        StorageError::AlreadyExists(s) => {
            out.push(3);
            put_str(out, s);
        }
        StorageError::NoSuchTxn(t) => {
            out.push(4);
            put_u64(out, t.0);
        }
        StorageError::InvalidTxnState { txn, state } => {
            out.push(5);
            put_u64(out, txn.0);
            put_str(out, state);
        }
        StorageError::Deadlock(t) => {
            out.push(6);
            put_u64(out, t.0);
        }
        StorageError::LockTimeout(t) => {
            out.push(7);
            put_u64(out, t.0);
        }
        StorageError::Unavailable => out.push(8),
        StorageError::UniqueViolation { table, index } => {
            out.push(9);
            put_str(out, table);
            put_str(out, index);
        }
        StorageError::SchemaMismatch(s) => {
            out.push(10);
            put_str(out, s);
        }
        StorageError::NoSuchRow(id) => {
            out.push(11);
            put_u64(out, *id);
        }
    }
}

fn put_sql_error(out: &mut Vec<u8>, e: &SqlError) {
    match e {
        SqlError::Lex(m) => {
            out.push(0);
            put_str(out, m);
        }
        SqlError::Parse(m) => {
            out.push(1);
            put_str(out, m);
        }
        SqlError::Plan(m) => {
            out.push(2);
            put_str(out, m);
        }
        SqlError::Eval(m) => {
            out.push(3);
            put_str(out, m);
        }
        SqlError::Params { expected, got } => {
            out.push(4);
            put_u64(out, *expected as u64);
            put_u64(out, *got as u64);
        }
        SqlError::Storage(se) => {
            out.push(5);
            put_storage_error(out, se);
        }
    }
}

/// A `TxnAborted`'s cause: its wire tag is its index here.
const CAUSES: [Option<Refusal>; 9] = [
    None,
    Some(Refusal::Deadlock),
    Some(Refusal::LockTimeout),
    Some(Refusal::CopyInProgress),
    Some(Refusal::AdmissionShed),
    Some(Refusal::NoReplica),
    Some(Refusal::NotLeader),
    Some(Refusal::InDoubt),
    Some(Refusal::Fenced),
];

fn put_cluster_error(out: &mut Vec<u8>, e: &ClusterError) {
    match e {
        ClusterError::Sql(se) => {
            out.push(0);
            put_sql_error(out, se);
        }
        ClusterError::NoSuchDatabase(s) => {
            out.push(1);
            put_str(out, s);
        }
        ClusterError::NoReplicas(s) => {
            out.push(2);
            put_str(out, s);
        }
        ClusterError::NoMachines => out.push(3),
        ClusterError::WriteRejected { db, table } => {
            out.push(4);
            put_str(out, db);
            put_str(out, table);
        }
        ClusterError::TxnAborted(a) => {
            out.push(5);
            let tag = CAUSES.iter().position(|c| *c == a.cause);
            out.push(tag.expect("every cause has a tag") as u8);
            put_str(out, &a.message);
        }
        ClusterError::NoActiveTxn => out.push(6),
        ClusterError::AlreadyExists(s) => {
            out.push(7);
            put_str(out, s);
        }
        ClusterError::NotLeader { hint } => {
            out.push(8);
            match hint {
                Some(h) => {
                    out.push(1);
                    put_u64(out, u64::from(*h));
                }
                None => out.push(0),
            }
        }
        ClusterError::InDoubt(s) => {
            out.push(9);
            put_str(out, s);
        }
        ClusterError::AdmissionRejected { db } => {
            out.push(10);
            put_str(out, db);
        }
        ClusterError::Fenced { epoch } => {
            out.push(11);
            put_u64(out, *epoch);
        }
    }
}

// --------------------------------------------------------------- decoding

/// Bounds-checked reader over a frame body.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> WireResult<&'a [u8]> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        if end > self.buf.len() {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> WireResult<u8> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> WireResult<u16> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> WireResult<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> WireResult<u64> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    /// A handshake's version, refused unless it is `speaks`.
    fn version(&mut self, speaks: u16) -> WireResult<u16> {
        match self.u16()? {
            v if v == speaks => Ok(v),
            v => Err(WireError::BadVersion(v)),
        }
    }

    /// A u32 collection/string length, bounded by [`MAX_INNER_LEN`] so a
    /// corrupt prefix cannot force a giant reservation.
    fn bounded_len(&mut self) -> WireResult<usize> {
        let n = self.u32()?;
        if n > MAX_INNER_LEN {
            return Err(WireError::FrameLength(n));
        }
        Ok(n as usize)
    }

    fn string(&mut self) -> WireResult<String> {
        let n = self.bounded_len()?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadUtf8)
    }

    /// Whatever the shared codec's `read` reads from the rest of the body.
    fn codec<T>(
        &mut self,
        read: impl FnOnce(&mut &'a [u8]) -> Result<T, DecodeError>,
    ) -> WireResult<T> {
        let mut rest = &self.buf[self.pos..];
        let v = read(&mut rest).map_err(WireError::Codec)?;
        self.pos = self.buf.len() - rest.len();
        Ok(v)
    }

    /// Assert the body is fully consumed.
    fn finish(&self) -> WireResult<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes(self.buf.len() - self.pos))
        }
    }
}

fn get_query_result(r: &mut Reader<'_>) -> WireResult<QueryResult> {
    let ncols = r.bounded_len()?;
    let mut columns = Vec::with_capacity(ncols.min(1024));
    for _ in 0..ncols {
        columns.push(r.string()?);
    }
    let nrows = r.bounded_len()?;
    let mut rows = Vec::with_capacity(nrows.min(1024));
    for _ in 0..nrows {
        rows.push(r.codec(codec::decode_row)?);
    }
    let rows_affected = r.u64()?;
    let mut touched = [Vec::new(), Vec::new()];
    for t in &mut touched {
        let n = r.bounded_len()?;
        t.reserve(n.min(1024));
        for _ in 0..n {
            let table = r.string()?;
            let row_id = r.u64()?;
            t.push((table.into(), row_id));
        }
    }
    let [touched_reads, touched_writes] = touched;
    Ok(QueryResult {
        columns: columns.into(),
        rows,
        rows_affected,
        touched_reads,
        touched_writes,
    })
}

/// Known `&'static str` transaction-state names (the wire cannot carry
/// arbitrary `&'static str`s, so decode maps onto this closed set).
const TXN_STATES: &[&str] = &["active", "prepared", "committed", "aborted"];

fn get_storage_error(r: &mut Reader<'_>) -> WireResult<StorageError> {
    Ok(match r.u8()? {
        0 => StorageError::NoSuchDatabase(r.string()?),
        1 => StorageError::NoSuchTable(r.string()?),
        2 => StorageError::NoSuchIndex(r.string()?),
        3 => StorageError::AlreadyExists(r.string()?),
        4 => StorageError::NoSuchTxn(TxnId(r.u64()?)),
        5 => {
            let txn = TxnId(r.u64()?);
            let state = r.string()?;
            StorageError::InvalidTxnState {
                txn,
                state: TXN_STATES
                    .iter()
                    .find(|s| **s == state)
                    .copied()
                    .unwrap_or("unknown"),
            }
        }
        6 => StorageError::Deadlock(TxnId(r.u64()?)),
        7 => StorageError::LockTimeout(TxnId(r.u64()?)),
        8 => StorageError::Unavailable,
        9 => StorageError::UniqueViolation {
            table: r.string()?,
            index: r.string()?,
        },
        10 => StorageError::SchemaMismatch(r.string()?),
        11 => StorageError::NoSuchRow(r.u64()?),
        other => return Err(WireError::BadTag(other)),
    })
}

fn get_sql_error(r: &mut Reader<'_>) -> WireResult<SqlError> {
    Ok(match r.u8()? {
        0 => SqlError::Lex(r.string()?),
        1 => SqlError::Parse(r.string()?),
        2 => SqlError::Plan(r.string()?),
        3 => SqlError::Eval(r.string()?),
        4 => SqlError::Params {
            expected: r.u64()? as usize,
            got: r.u64()? as usize,
        },
        5 => SqlError::Storage(get_storage_error(r)?),
        other => return Err(WireError::BadTag(other)),
    })
}

fn get_cluster_error(r: &mut Reader<'_>) -> WireResult<ClusterError> {
    Ok(match r.u8()? {
        0 => ClusterError::Sql(get_sql_error(r)?),
        1 => ClusterError::NoSuchDatabase(r.string()?),
        2 => ClusterError::NoReplicas(r.string()?),
        3 => ClusterError::NoMachines,
        4 => ClusterError::WriteRejected {
            db: r.string()?,
            table: r.string()?,
        },
        5 => {
            let tag = r.u8()?;
            let cause = *CAUSES.get(usize::from(tag)).ok_or(WireError::BadTag(tag))?;
            ClusterError::TxnAborted(Aborted {
                cause,
                message: r.string()?,
            })
        }
        6 => ClusterError::NoActiveTxn,
        7 => ClusterError::AlreadyExists(r.string()?),
        8 => ClusterError::NotLeader {
            hint: match r.u8()? {
                0 => None,
                1 => Some(u32::try_from(r.u64()?).map_err(|_| WireError::Truncated)?),
                other => return Err(WireError::BadTag(other)),
            },
        },
        9 => ClusterError::InDoubt(r.string()?),
        10 => ClusterError::AdmissionRejected { db: r.string()? },
        11 => ClusterError::Fenced { epoch: r.u64()? },
        other => return Err(WireError::BadTag(other)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tenantdb_storage::{RedoOp, WalEntry};

    fn roundtrip(f: &Frame) {
        let bytes = f.encode();
        let len = u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
        assert_eq!(len, bytes.len() - 4, "length prefix covers the body");
        let decoded = Frame::decode(&bytes[4..]).unwrap();
        assert_eq!(*f, decoded);
    }

    #[test]
    fn simple_frames_roundtrip() {
        roundtrip(&Frame::Ok);
        roundtrip(&Frame::Begin);
        roundtrip(&Frame::Commit);
        roundtrip(&Frame::Rollback);
        roundtrip(&Frame::ListConns);
        roundtrip(&Frame::Ping { token: 0xdead_beef });
        roundtrip(&Frame::Pong { token: u64::MAX });
        roundtrip(&Frame::Affected { rows: 42 });
    }

    #[test]
    fn handshake_roundtrips() {
        roundtrip(&Frame::Hello {
            version: PROTOCOL_VERSION,
            db: "tpcw0".into(),
            read_pref: ReadPref::PerTransaction,
            write_pref: WritePref::Default,
        });
        roundtrip(&Frame::HelloOk {
            version: PROTOCOL_VERSION,
            read_policy: ReadPolicy::PerOperation,
            write_policy: WritePolicy::Aggressive,
        });
    }

    #[test]
    fn query_with_every_value_type_roundtrips() {
        roundtrip(&Frame::Query {
            sql: "SELECT * FROM t WHERE a = ? AND b = ?".into(),
            params: vec![
                Value::Null,
                Value::Bool(true),
                Value::Int(-7),
                Value::Float(1.5),
                Value::Float(f64::NEG_INFINITY),
                Value::Text("héllo".into()),
            ],
        });
    }

    #[test]
    fn nan_float_roundtrips_bit_identically() {
        let f = Frame::Execute {
            sql: "INSERT INTO t VALUES (?)".into(),
            params: vec![Value::Float(f64::NAN)],
        };
        let bytes = f.encode();
        let decoded = Frame::decode(&bytes[4..]).unwrap();
        // PartialEq on NaN is false; compare the bits instead.
        let Frame::Execute { params, .. } = decoded else {
            panic!("wrong frame");
        };
        let Value::Float(back) = params[0] else {
            panic!("wrong value");
        };
        assert_eq!(back.to_bits(), f64::NAN.to_bits());
    }

    #[test]
    fn error_frames_roundtrip_classification() {
        let deadlock = ClusterError::from(StorageError::Deadlock(TxnId(9)));
        let f = Frame::Error(deadlock.clone());
        let bytes = f.encode();
        let Frame::Error(back) = Frame::decode(&bytes[4..]).unwrap() else {
            panic!("wrong frame");
        };
        assert_eq!(back, deadlock);
        assert!(back.is_deadlock());

        let rej = ClusterError::WriteRejected {
            db: "app".into(),
            table: "items".into(),
        };
        let bytes = Frame::Error(rej.clone()).encode();
        let Frame::Error(back) = Frame::decode(&bytes[4..]).unwrap() else {
            panic!("wrong frame");
        };
        assert!(back.is_proactive_rejection());
        assert_eq!(back, rej);
    }

    #[test]
    fn not_leader_frames_roundtrip() {
        for hint in [None, Some(0), Some(2), Some(u32::MAX)] {
            let e = ClusterError::NotLeader { hint };
            let bytes = Frame::Error(e.clone()).encode();
            let Frame::Error(back) = Frame::decode(&bytes[4..]).unwrap() else {
                panic!("wrong frame");
            };
            assert_eq!(back, e);
            assert!(back.is_not_leader());
        }
    }

    #[test]
    fn in_doubt_frames_roundtrip() {
        let e = ClusterError::InDoubt("commit decision unresolved: quorum lost".into());
        let bytes = Frame::Error(e.clone()).encode();
        let Frame::Error(back) = Frame::decode(&bytes[4..]).unwrap() else {
            panic!("wrong frame");
        };
        assert_eq!(back, e);
    }

    #[test]
    fn admission_rejected_frames_roundtrip() {
        let e = ClusterError::AdmissionRejected {
            db: "tenant42".into(),
        };
        let bytes = Frame::Error(e.clone()).encode();
        let Frame::Error(back) = Frame::decode(&bytes[4..]).unwrap() else {
            panic!("wrong frame");
        };
        assert_eq!(back, e);
        assert!(back.is_proactive_rejection());
    }

    #[test]
    fn batch_frames_roundtrip() {
        roundtrip(&Frame::Batch {
            seq: 7,
            mode: BatchMode::WholeTxn,
            stmts: vec![
                BatchStmt::new(
                    "INSERT INTO t VALUES (?, ?)",
                    vec![Value::Int(1), "a".into()],
                ),
                BatchStmt::new("SELECT COUNT(*) FROM t", vec![]),
            ],
        });
        roundtrip(&Frame::Batch {
            seq: 0,
            mode: BatchMode::Statements,
            stmts: vec![],
        });
        roundtrip(&Frame::BatchOk {
            seq: u32::MAX,
            results: vec![QueryResult::default(), QueryResult::default()],
        });
        roundtrip(&Frame::BatchErr {
            seq: 3,
            index: 2,
            error: ClusterError::from(StorageError::Deadlock(TxnId(9))),
        });
    }

    #[test]
    fn borrowed_request_encoders_match_owned_frames() {
        let sql = "SELECT * FROM t WHERE id = ? AND name = ?";
        let params = vec![Value::Int(42), "x".into()];
        for affected_only in [false, true] {
            let owned = if affected_only {
                Frame::Execute {
                    sql: sql.to_string(),
                    params: params.clone(),
                }
            } else {
                Frame::Query {
                    sql: sql.to_string(),
                    params: params.clone(),
                }
            };
            assert_eq!(
                encode_stmt_request(sql, &params, affected_only),
                owned.encode()
            );
        }

        let stmts = vec![
            BatchStmt::new(
                "INSERT INTO t VALUES (?, ?)",
                vec![Value::Int(1), "a".into()],
            ),
            BatchStmt::new("SELECT COUNT(*) FROM t", vec![]),
        ];
        for mode in [
            BatchMode::Statements,
            BatchMode::FinishTxn,
            BatchMode::WholeTxn,
        ] {
            let owned = Frame::Batch {
                seq: 9,
                mode,
                stmts: stmts.clone(),
            };
            assert_eq!(encode_batch_request(9, mode, &stmts), owned.encode());
        }
    }

    #[test]
    fn handshake_accepts_only_the_current_protocol_version() {
        assert_eq!(PROTOCOL_VERSION, 4);
        roundtrip(&Frame::Hello {
            version: PROTOCOL_VERSION,
            db: "app".into(),
            read_pref: ReadPref::Default,
            write_pref: WritePref::Default,
        });
        roundtrip(&Frame::HelloOk {
            version: PROTOCOL_VERSION,
            read_policy: ReadPolicy::PinnedReplica,
            write_policy: WritePolicy::Conservative,
        });
        // Every other version is refused, the older layouts included.
        for bad in [0u16, 1, 2, 3, PROTOCOL_VERSION + 1] {
            let hello = Frame::Hello {
                version: bad,
                db: "app".into(),
                read_pref: ReadPref::Default,
                write_pref: WritePref::Default,
            };
            let hello_ok = Frame::HelloOk {
                version: bad,
                read_policy: ReadPolicy::PinnedReplica,
                write_policy: WritePolicy::Conservative,
            };
            for f in [hello, hello_ok] {
                assert!(matches!(
                    Frame::decode(&f.encode()[4..]),
                    Err(WireError::BadVersion(v)) if v == bad
                ));
            }
        }
    }

    #[test]
    fn bad_batch_mode_tag_is_rejected() {
        let f = Frame::Batch {
            seq: 1,
            mode: BatchMode::FinishTxn,
            stmts: vec![],
        };
        let mut bytes = f.encode();
        // Body layout: opcode(1) seq(4) mode(1) — corrupt the mode byte.
        bytes[4 + 5] = 0x7f;
        assert!(matches!(
            Frame::decode(&bytes[4..]),
            Err(WireError::BadTag(0x7f))
        ));
    }

    #[test]
    fn geo_stream_frames_roundtrip() {
        roundtrip(&Frame::GeoHello {
            version: GEOREP_PROTOCOL_VERSION,
            db: "tenant7".into(),
            start_lsn: Lsn(42),
            epoch: 3,
            source: 2,
        });
        roundtrip(&Frame::GeoHelloOk {
            version: GEOREP_PROTOCOL_VERSION,
            resume_lsn: Lsn(40),
        });
        roundtrip(&Frame::GeoAck {
            applied_lsn: Lsn(u64::MAX),
        });
        roundtrip(&Frame::GeoFenced { epoch: 9 });
        roundtrip(&Frame::GeoRecords {
            epoch: 0,
            records: vec![],
        });
    }

    #[test]
    fn geo_hello_rejects_unknown_stream_version() {
        assert_eq!(GEOREP_PROTOCOL_VERSION, 3);
        for bad in [0u16, 1, 2, GEOREP_PROTOCOL_VERSION + 1] {
            let f = Frame::GeoHello {
                version: bad,
                db: "app".into(),
                start_lsn: Lsn(0),
                epoch: 0,
                source: 0,
            };
            let bytes = f.encode();
            assert!(matches!(
                Frame::decode(&bytes[4..]),
                Err(WireError::BadVersion(v)) if v == bad
            ));
        }
    }

    #[test]
    fn bad_wal_entry_and_redo_tags_are_rejected() {
        let rec = LogRecord {
            lsn: Lsn(0),
            txn: TxnId(1),
            entry: WalEntry::Redo(RedoOp::Delete {
                table: "".into(),
                row_id: 0,
            }),
        };
        let f = Frame::GeoRecords {
            epoch: 0,
            records: vec![rec],
        };
        let good = f.encode();
        // Body: opcode(1) epoch(8), then the batch: one name (the empty
        // one: its length 0), one record, lsn 0, txn 1, kind, name id, row id.
        let kind_at = 4 + 1 + 8 + 1 + 1 + 1 + 1 + 1;
        assert_eq!(good[kind_at], 9, "the Delete kind");
        let mut bytes = good.clone();
        bytes[kind_at] = 0x66;
        assert!(matches!(
            Frame::decode(&bytes[4..]),
            Err(WireError::Codec(DecodeError::BadTag(0x66)))
        ));

        // The name id after the kind: past the batch's one name.
        let mut bytes = good;
        bytes[kind_at + 1] = 5;
        assert!(matches!(
            Frame::decode(&bytes[4..]),
            Err(WireError::Codec(DecodeError::BadName(5)))
        ));
    }

    #[test]
    fn stream_read_write_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Frame::Ping { token: 7 }).unwrap();
        write_frame(&mut buf, &Frame::Ok).unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(
            read_frame(&mut cursor).unwrap(),
            Some(Frame::Ping { token: 7 })
        );
        assert_eq!(read_frame(&mut cursor).unwrap(), Some(Frame::Ok));
        assert_eq!(read_frame(&mut cursor).unwrap(), None, "clean EOF");
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        buf.push(0x05);
        let mut cursor = std::io::Cursor::new(buf);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(WireError::FrameLength(_))
        ));
    }
}
