//! Protocol property tests and the corrupt-input suite.
//!
//! Pure codec — no sockets, no threads — so the whole file runs under
//! Miri (see the sanitizers CI job). Two properties are pinned:
//!
//! 1. **Round-trip**: every frame the encoder can produce decodes back to
//!    an equal frame (and the length prefix exactly covers the body).
//! 2. **Totality**: the decoder never panics. Truncations, oversized
//!    length prefixes, bad versions, garbage opcodes, bit flips, and
//!    arbitrary random bytes all produce `Err` (or a valid frame, for
//!    lucky flips) — never a crash or an unbounded allocation.

use rand::{Rng, SeedableRng, StdRng};
use tenantdb_cluster::{Aborted, ClusterError, Refusal};
use tenantdb_cluster::{BatchMode, BatchStmt, ReadPolicy, WritePolicy};
use tenantdb_net::wire::{
    Frame, ReadPref, WireError, WritePref, GEOREP_PROTOCOL_VERSION, MAX_FRAME_LEN, PROTOCOL_VERSION,
};
use tenantdb_net::ConnInfo;
use tenantdb_sql::{QueryResult, SqlError};
use tenantdb_storage::{
    ColumnDef, DataType, IndexDef, LogRecord, Lsn, RedoOp, StorageError, TableSchema, TxnId, Value,
    WalEntry,
};

/// Iteration budget: Miri runs ~two orders of magnitude slower, so shrink
/// the loop counts there while keeping native runs thorough.
const CASES: usize = if cfg!(miri) { 8 } else { 400 };

/// One variant of a wire enum: a predicate that names it and a generator
/// for it.
struct Row<T: 'static> {
    is: fn(&T) -> bool,
    gen: fn(&mut StdRng) -> T,
}

/// One `pattern => generator` row per variant of a wire enum. Expands to
/// the [`Row`] table and to a `match` over the patterns with no wildcard
/// arm, so a variant without a row does not compile; the table test below
/// holds each generator to the pattern beside it, so the row cannot be for
/// some other variant either.
macro_rules! variant_table {
    ($table:ident: $ty:ty { $($pat:pat => $gen:expr,)* }) => {
        const $table: &[Row<$ty>] = &[$(Row { is: |v| matches!(v, $pat), gen: $gen },)*];
        const _: fn(&$ty) = |v| match v {
            $($pat => (),)*
        };
    };
}

/// A uniformly chosen variant of `table`'s enum.
fn rand_variant<T>(rng: &mut StdRng, table: &[Row<T>]) -> T {
    (table[rng.gen_range(0..table.len())].gen)(rng)
}

fn rand_string(rng: &mut StdRng, max: usize) -> String {
    let n = rng.gen_range(0..=max);
    (0..n)
        .map(|_| {
            // Mix ASCII with multi-byte code points to stress UTF-8 paths.
            match rng.gen_range(0..4u32) {
                0 => 'é',
                1 => '表',
                _ => (b'a' + (rng.gen_range(0..26u32) as u8)) as char,
            }
        })
        .collect()
}

fn rand_value(rng: &mut StdRng) -> Value {
    match rng.gen_range(0..5u32) {
        0 => Value::Null,
        1 => Value::Bool(rng.gen_bool(0.5)),
        2 => Value::Int(rng.gen::<i64>()),
        3 => Value::Float(f64::from_bits(rng.gen::<u64>())),
        _ => Value::Text(rand_string(rng, 12)),
    }
}

/// A float whose PartialEq is well-behaved (NaN payloads are exercised by
/// a dedicated bit-level test in the unit suite).
fn rand_finite_value(rng: &mut StdRng) -> Value {
    match rand_value(rng) {
        Value::Float(f) if f.is_nan() => Value::Float(0.25),
        v => v,
    }
}

variant_table! {
    STORAGE_ERRORS: StorageError {
        StorageError::NoSuchDatabase(_) => |rng| StorageError::NoSuchDatabase(rand_string(rng, 8)),
        StorageError::NoSuchTable(_) => |rng| StorageError::NoSuchTable(rand_string(rng, 8)),
        StorageError::NoSuchIndex(_) => |rng| StorageError::NoSuchIndex(rand_string(rng, 8)),
        StorageError::AlreadyExists(_) => |rng| StorageError::AlreadyExists(rand_string(rng, 8)),
        StorageError::NoSuchTxn(_) => |rng| StorageError::NoSuchTxn(TxnId(rng.gen::<u64>())),
        StorageError::InvalidTxnState { .. } => |rng| StorageError::InvalidTxnState {
            txn: TxnId(rng.gen::<u64>()),
            state: ["active", "prepared", "committed", "aborted"][rng.gen_range(0..4usize)],
        },
        StorageError::Deadlock(_) => |rng| StorageError::Deadlock(TxnId(rng.gen::<u64>())),
        StorageError::LockTimeout(_) => |rng| StorageError::LockTimeout(TxnId(rng.gen::<u64>())),
        StorageError::Unavailable => |_| StorageError::Unavailable,
        StorageError::UniqueViolation { .. } => |rng| StorageError::UniqueViolation {
            table: rand_string(rng, 8),
            index: rand_string(rng, 8),
        },
        StorageError::SchemaMismatch(_) => |rng| StorageError::SchemaMismatch(rand_string(rng, 16)),
        StorageError::NoSuchRow(_) => |rng| StorageError::NoSuchRow(rng.gen::<u64>()),
    }
}

fn rand_storage_error(rng: &mut StdRng) -> StorageError {
    rand_variant(rng, STORAGE_ERRORS)
}

variant_table! {
    SQL_ERRORS: SqlError {
        SqlError::Lex(_) => |rng| SqlError::Lex(rand_string(rng, 16)),
        SqlError::Parse(_) => |rng| SqlError::Parse(rand_string(rng, 16)),
        SqlError::Plan(_) => |rng| SqlError::Plan(rand_string(rng, 16)),
        SqlError::Eval(_) => |rng| SqlError::Eval(rand_string(rng, 16)),
        SqlError::Params { .. } => |rng| SqlError::Params {
            expected: rng.gen_range(0..16usize),
            got: rng.gen_range(0..16usize),
        },
        SqlError::Storage(_) => |rng| SqlError::Storage(rand_storage_error(rng)),
    }
}

fn rand_sql_error(rng: &mut StdRng) -> SqlError {
    rand_variant(rng, SQL_ERRORS)
}

/// A `TxnAborted`'s cause: every refusal, or none. A newtype, because a
/// bare `None` row trips clippy's `redundant_pattern_matching` in the
/// table's `matches!`.
#[derive(Debug)]
struct Cause(Option<Refusal>);

variant_table! {
    CAUSES: Cause {
        Cause(None) => |_| Cause(None),
        Cause(Some(Refusal::Deadlock)) => |_| Cause(Some(Refusal::Deadlock)),
        Cause(Some(Refusal::LockTimeout)) => |_| Cause(Some(Refusal::LockTimeout)),
        Cause(Some(Refusal::CopyInProgress)) => |_| Cause(Some(Refusal::CopyInProgress)),
        Cause(Some(Refusal::AdmissionShed)) => |_| Cause(Some(Refusal::AdmissionShed)),
        Cause(Some(Refusal::NoReplica)) => |_| Cause(Some(Refusal::NoReplica)),
        Cause(Some(Refusal::NotLeader)) => |_| Cause(Some(Refusal::NotLeader)),
        Cause(Some(Refusal::InDoubt)) => |_| Cause(Some(Refusal::InDoubt)),
        Cause(Some(Refusal::Fenced)) => |_| Cause(Some(Refusal::Fenced)),
    }
}

variant_table! {
    CLUSTER_ERRORS: ClusterError {
        ClusterError::Sql(_) => |rng| ClusterError::Sql(rand_sql_error(rng)),
        ClusterError::NoSuchDatabase(_) => |rng| ClusterError::NoSuchDatabase(rand_string(rng, 8)),
        ClusterError::NoReplicas(_) => |rng| ClusterError::NoReplicas(rand_string(rng, 8)),
        ClusterError::NoMachines => |_| ClusterError::NoMachines,
        ClusterError::WriteRejected { .. } => |rng| ClusterError::WriteRejected {
            db: rand_string(rng, 8),
            table: rand_string(rng, 8),
        },
        ClusterError::TxnAborted(_) => |rng| ClusterError::TxnAborted(Aborted {
            cause: rand_variant(rng, CAUSES).0,
            message: rand_string(rng, 24),
        }),
        ClusterError::NoActiveTxn => |_| ClusterError::NoActiveTxn,
        ClusterError::AlreadyExists(_) => |rng| ClusterError::AlreadyExists(rand_string(rng, 8)),
        ClusterError::NotLeader { .. } => |rng| ClusterError::NotLeader {
            hint: if rng.gen_bool(0.5) {
                Some(rng.gen_range(0..8u32))
            } else {
                None
            },
        },
        ClusterError::InDoubt(_) => |rng| ClusterError::InDoubt(rand_string(rng, 24)),
        ClusterError::AdmissionRejected { .. } => |rng| ClusterError::AdmissionRejected {
            db: rand_string(rng, 8),
        },
        ClusterError::Fenced { .. } => |rng| ClusterError::Fenced { epoch: rng.gen() },
    }
}

fn rand_cluster_error(rng: &mut StdRng) -> ClusterError {
    rand_variant(rng, CLUSTER_ERRORS)
}

fn rand_query_result(rng: &mut StdRng) -> QueryResult {
    let ncols = rng.gen_range(0..4usize);
    let columns: Vec<String> = (0..ncols).map(|_| rand_string(rng, 6)).collect();
    let nrows = rng.gen_range(0..5usize);
    let rows = (0..nrows)
        .map(|_| (0..ncols).map(|_| rand_finite_value(rng)).collect())
        .collect();
    let touched = |rng: &mut StdRng| {
        (0..rng.gen_range(0..3usize))
            .map(|_| (rand_string(rng, 6).into(), rng.gen::<u64>()))
            .collect()
    };
    QueryResult {
        columns: columns.into(),
        rows,
        rows_affected: rng.gen::<u64>(),
        touched_reads: touched(rng),
        touched_writes: touched(rng),
    }
}

fn rand_batch_stmt(rng: &mut StdRng) -> BatchStmt {
    BatchStmt {
        sql: rand_string(rng, 40),
        params: (0..rng.gen_range(0..4usize))
            .map(|_| rand_finite_value(rng))
            .collect(),
    }
}

fn rand_table_schema(rng: &mut StdRng) -> TableSchema {
    let ncols = rng.gen_range(1..4usize);
    let columns = (0..ncols)
        .map(|i| {
            let ty = [
                DataType::Bool,
                DataType::Int,
                DataType::Float,
                DataType::Text,
            ][rng.gen_range(0..4usize)];
            let mut c = ColumnDef::new(format!("c{i}"), ty);
            c.nullable = rng.gen_bool(0.5);
            c
        })
        .collect();
    let mut schema = TableSchema::new(rand_string(rng, 8), columns);
    for i in 0..rng.gen_range(0..3usize) {
        schema.indexes.push(IndexDef {
            name: format!("i{i}"),
            columns: (0..rng.gen_range(1..=ncols)).collect(),
            unique: rng.gen_bool(0.5),
        });
    }
    schema
}

fn rand_redo_op(rng: &mut StdRng) -> RedoOp {
    match rng.gen_range(0..7u32) {
        0 => RedoOp::CreateDatabase,
        1 => RedoOp::DropDatabase,
        2 => RedoOp::CreateTable {
            schema: Box::new(rand_table_schema(rng)),
        },
        3 => RedoOp::CreateIndex {
            table: rand_string(rng, 8).into(),
            index: rand_string(rng, 8).into(),
            columns: (0..rng.gen_range(0..3usize))
                .map(|_| rand_string(rng, 6))
                .collect(),
            unique: rng.gen_bool(0.5),
        },
        4 => RedoOp::Insert {
            table: rand_string(rng, 8).into(),
            row_id: rng.gen::<u64>(),
            row: (0..rng.gen_range(0..4usize))
                .map(|_| rand_finite_value(rng))
                .collect(),
        },
        5 => RedoOp::Update {
            table: rand_string(rng, 8).into(),
            row_id: rng.gen::<u64>(),
            row: (0..rng.gen_range(0..4usize))
                .map(|_| rand_finite_value(rng))
                .collect(),
        },
        _ => RedoOp::Delete {
            table: rand_string(rng, 8).into(),
            row_id: rng.gen::<u64>(),
        },
    }
}

fn rand_log_record(rng: &mut StdRng) -> LogRecord {
    let entry = match rng.gen_range(0..4u32) {
        0 => WalEntry::Redo(rand_redo_op(rng)),
        1 => WalEntry::Prepare,
        2 => WalEntry::Commit,
        _ => WalEntry::Abort,
    };
    LogRecord {
        lsn: Lsn(rng.gen::<u64>()),
        txn: TxnId(rng.gen::<u64>()),
        entry,
    }
}

variant_table! {
    FRAMES: Frame {
        Frame::Hello { .. } => |rng| Frame::Hello {
            version: PROTOCOL_VERSION,
            db: rand_string(rng, 12),
            read_pref: [
                ReadPref::Default,
                ReadPref::Pinned,
                ReadPref::PerTransaction,
                ReadPref::PerOperation,
            ][rng.gen_range(0..4usize)],
            write_pref: [
                WritePref::Default,
                WritePref::Conservative,
                WritePref::Aggressive,
            ][rng.gen_range(0..3usize)],
        },
        Frame::HelloOk { .. } => |rng| Frame::HelloOk {
            version: PROTOCOL_VERSION,
            read_policy: [
                ReadPolicy::PinnedReplica,
                ReadPolicy::PerTransaction,
                ReadPolicy::PerOperation,
            ][rng.gen_range(0..3usize)],
            write_policy: [WritePolicy::Conservative, WritePolicy::Aggressive]
                [rng.gen_range(0..2usize)],
        },
        Frame::Ping { .. } => |rng| Frame::Ping {
            token: rng.gen::<u64>(),
        },
        Frame::Pong { .. } => |rng| Frame::Pong {
            token: rng.gen::<u64>(),
        },
        Frame::Ok => |_| Frame::Ok,
        Frame::Error(_) => |rng| Frame::Error(rand_cluster_error(rng)),
        Frame::Query { .. } => |rng| Frame::Query {
            sql: rand_string(rng, 40),
            params: (0..rng.gen_range(0..4usize))
                .map(|_| rand_finite_value(rng))
                .collect(),
        },
        Frame::ResultSet(_) => |rng| Frame::ResultSet(rand_query_result(rng)),
        Frame::Execute { .. } => |rng| Frame::Execute {
            sql: rand_string(rng, 40),
            params: (0..rng.gen_range(0..4usize))
                .map(|_| rand_finite_value(rng))
                .collect(),
        },
        Frame::Affected { .. } => |rng| Frame::Affected {
            rows: rng.gen::<u64>(),
        },
        Frame::Begin => |_| Frame::Begin,
        Frame::Commit => |_| Frame::Commit,
        Frame::Rollback => |_| Frame::Rollback,
        Frame::ListConns => |_| Frame::ListConns,
        Frame::Batch { .. } => |rng| Frame::Batch {
            seq: rng.gen::<u32>(),
            mode: [
                BatchMode::Statements,
                BatchMode::FinishTxn,
                BatchMode::WholeTxn,
            ][rng.gen_range(0..3usize)],
            stmts: (0..rng.gen_range(0..5usize))
                .map(|_| rand_batch_stmt(rng))
                .collect(),
        },
        Frame::BatchOk { .. } => |rng| Frame::BatchOk {
            seq: rng.gen::<u32>(),
            results: (0..rng.gen_range(0..4usize))
                .map(|_| rand_query_result(rng))
                .collect(),
        },
        Frame::BatchErr { .. } => |rng| Frame::BatchErr {
            seq: rng.gen::<u32>(),
            index: rng.gen::<u32>(),
            error: rand_cluster_error(rng),
        },
        Frame::GeoHello { .. } => |rng| Frame::GeoHello {
            version: GEOREP_PROTOCOL_VERSION,
            db: rand_string(rng, 12),
            start_lsn: Lsn(rng.gen::<u64>()),
            epoch: rng.gen::<u64>(),
            source: rng.gen::<u32>(),
        },
        Frame::GeoHelloOk { .. } => |rng| Frame::GeoHelloOk {
            version: GEOREP_PROTOCOL_VERSION,
            resume_lsn: Lsn(rng.gen::<u64>()),
        },
        Frame::GeoRecords { .. } => |rng| Frame::GeoRecords {
            epoch: rng.gen::<u64>(),
            records: (0..rng.gen_range(0..5usize))
                .map(|_| rand_log_record(rng))
                .collect(),
        },
        Frame::GeoAck { .. } => |rng| Frame::GeoAck {
            applied_lsn: Lsn(rng.gen::<u64>()),
        },
        Frame::GeoFenced { .. } => |rng| Frame::GeoFenced {
            epoch: rng.gen::<u64>(),
        },
        Frame::ConnList(_) => |rng| Frame::ConnList(
            (0..rng.gen_range(0..4usize))
                .map(|_| ConnInfo {
                    id: rng.gen::<u64>(),
                    db: rand_string(rng, 8),
                    peer: rand_string(rng, 16),
                    in_txn: rng.gen_bool(0.5),
                    busy: rng.gen_bool(0.5),
                    idle_ms: rng.gen::<u64>(),
                })
                .collect(),
        ),
    }
}

fn rand_frame(rng: &mut StdRng) -> Frame {
    rand_variant(rng, FRAMES)
}

fn body_of(encoded: &[u8]) -> &[u8] {
    &encoded[4..]
}

// ------------------------------------------------------------ properties

#[test]
fn prop_every_frame_roundtrips() {
    let mut rng = StdRng::seed_from_u64(0xF0A3);
    for i in 0..CASES {
        let frame = rand_frame(&mut rng);
        let bytes = frame.encode();
        let len = u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
        assert_eq!(len, bytes.len() - 4, "case {i}: prefix covers body");
        assert!(len as u32 <= MAX_FRAME_LEN, "case {i}: within frame bound");
        let back = Frame::decode(body_of(&bytes))
            .unwrap_or_else(|e| panic!("case {i}: decode of own encoding failed: {e} ({frame:?})"));
        assert_eq!(back, frame, "case {i}");
    }
}

#[test]
fn prop_error_classification_survives_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0xE44);
    for _ in 0..CASES {
        let err = rand_cluster_error(&mut rng);
        let bytes = Frame::Error(err.clone()).encode();
        let Frame::Error(back) = Frame::decode(body_of(&bytes)).unwrap() else {
            panic!("wrong frame kind");
        };
        assert_eq!(back, err);
        assert_eq!(back.refusal(), err.refusal());
    }
}

/// The wire contract of one tagged enum, over *every* variant (the table
/// is total — see [`variant_table`]): each round-trips, no two share a tag,
/// and over all 256 bytes `decode` accepts exactly the tags `encode`
/// emits. `wrap` embeds a value in a frame whose body carries the enum's
/// tag at byte `depth`.
fn check_wire_enum<T: std::fmt::Debug>(
    name: &str,
    table: &[Row<T>],
    depth: usize,
    wrap: fn(T) -> Frame,
) {
    let mut rng = StdRng::seed_from_u64(0x7AB1E);
    let mut tags: Vec<u8> = Vec::new();
    let mut prefix = Vec::new();
    for (i, row) in table.iter().enumerate() {
        for case in 0..CASES.min(16) {
            let v = (row.gen)(&mut rng);
            assert!(
                (row.is)(&v),
                "{name} row {i}: the generator made {v:?}, not the variant its pattern names"
            );
            let frame = wrap(v);
            let bytes = frame.encode();
            let body = body_of(&bytes);
            match Frame::decode(body) {
                Ok(back) => assert_eq!(back, frame, "{name} row {i}"),
                Err(e) => panic!("{name} row {i}: {frame:?} does not decode: {e}"),
            }
            if case == 0 {
                assert!(
                    !tags.contains(&body[depth]),
                    "{name} row {i}: tag {:#04x} already encodes another variant",
                    body[depth]
                );
                tags.push(body[depth]);
                prefix = body[..depth].to_vec();
            }
            assert_eq!(
                body[depth], tags[i],
                "{name} row {i}: one variant, two tags"
            );
        }
    }
    for tag in 0..=u8::MAX {
        let probe = [&prefix[..], &[tag]].concat();
        // Nothing follows the tag, so a known one fails later, as `Truncated`.
        let known = !matches!(
            Frame::decode(&probe),
            Err(WireError::BadOpcode(t) | WireError::BadTag(t)) if t == tag
        );
        assert_eq!(
            known,
            tags.contains(&tag),
            "{name}: tag {tag:#04x} — decode knows it: {known}, encode emits it: {}",
            tags.contains(&tag)
        );
    }
}

#[test]
fn every_wire_variant_roundtrips_under_its_own_tag() {
    check_wire_enum("Frame", FRAMES, 0, |f| f);
    check_wire_enum("ClusterError", CLUSTER_ERRORS, 1, Frame::Error);
    check_wire_enum("SqlError", SQL_ERRORS, 2, |e| {
        Frame::Error(ClusterError::Sql(e))
    });
    check_wire_enum("StorageError", STORAGE_ERRORS, 3, |e| {
        Frame::Error(ClusterError::Sql(SqlError::Storage(e)))
    });
    check_wire_enum("TxnAborted cause", CAUSES, 2, |Cause(cause)| {
        Frame::Error(ClusterError::TxnAborted(Aborted {
            cause,
            message: String::new(),
        }))
    });
}

// ------------------------------------------------------- corrupt inputs

#[test]
fn truncated_frames_error_never_panic() {
    let mut rng = StdRng::seed_from_u64(0x7125);
    for _ in 0..CASES.min(64) {
        let frame = rand_frame(&mut rng);
        let bytes = frame.encode();
        let body = body_of(&bytes);
        // Every proper prefix of the body must fail to decode (the only
        // exception would be a frame whose payload is a prefix of itself,
        // which the trailing-bytes check rules out for suffix cuts).
        for cut in 0..body.len() {
            match Frame::decode(&body[..cut]) {
                Err(_) => {}
                Ok(f) => panic!("prefix of {frame:?} decoded to {f:?}"),
            }
        }
    }
}

#[test]
fn trailing_garbage_is_rejected() {
    let mut rng = StdRng::seed_from_u64(0x9A);
    for _ in 0..CASES.min(64) {
        let frame = rand_frame(&mut rng);
        let mut body = body_of(&frame.encode()).to_vec();
        body.push(rng.gen::<u8>());
        assert!(
            matches!(Frame::decode(&body), Err(WireError::TrailingBytes(_))),
            "appended byte must trip the trailing-bytes check"
        );
    }
}

#[test]
fn oversized_length_prefix_rejected_before_allocation() {
    // A stream claiming a 4-GiB frame must be refused at the header.
    for len in [MAX_FRAME_LEN + 1, u32::MAX, u32::MAX / 2] {
        let mut buf = Vec::new();
        buf.extend_from_slice(&len.to_le_bytes());
        buf.extend_from_slice(&[0x05; 16]);
        let mut cursor = std::io::Cursor::new(buf);
        assert!(matches!(
            tenantdb_net::wire::read_frame(&mut cursor),
            Err(WireError::FrameLength(_))
        ));
    }
    // Zero-length frames are equally invalid (no opcode).
    let mut cursor = std::io::Cursor::new(vec![0u8, 0, 0, 0]);
    assert!(matches!(
        tenantdb_net::wire::read_frame(&mut cursor),
        Err(WireError::FrameLength(0))
    ));
}

#[test]
fn oversized_inner_length_rejected() {
    // A Query frame whose sql-string length field lies (huge) must error
    // without trying to reserve that much.
    let mut body = vec![0x10u8]; // Query opcode
    body.extend_from_slice(&u32::MAX.to_le_bytes()); // sql length: 4 GiB
    assert!(Frame::decode(&body).is_err());
}

#[test]
fn bad_version_is_detected() {
    let good = Frame::Hello {
        version: PROTOCOL_VERSION,
        db: "app".into(),
        read_pref: ReadPref::Default,
        write_pref: WritePref::Default,
    };
    let mut body = body_of(&good.encode()).to_vec();
    // version is the u16 right after the opcode
    body[1] = 0xFF;
    body[2] = 0xFF;
    assert!(matches!(
        Frame::decode(&body),
        Err(WireError::BadVersion(0xFFFF))
    ));
}

#[test]
fn garbage_opcode_is_rejected() {
    for op in 0u8..=255 {
        let known = matches!(op, 0x01..=0x06 | 0x10..=0x1B | 0x20..=0x24);
        let body = [op];
        match Frame::decode(&body) {
            Err(WireError::BadOpcode(b)) => {
                assert_eq!(b, op);
                assert!(!known, "opcode 0x{op:02x} should be known");
            }
            // Known opcodes fail differently (truncated payload) or are
            // payload-less and succeed.
            Err(_) | Ok(_) => assert!(known, "opcode 0x{op:02x} should be unknown"),
        }
    }
}

#[test]
fn bad_utf8_in_string_field_is_rejected() {
    let good = Frame::Query {
        sql: "SELECT 1".into(),
        params: vec![],
    };
    let mut body = body_of(&good.encode()).to_vec();
    // Corrupt a byte inside the sql string (offset: opcode + 4-byte len).
    body[6] = 0xFF;
    assert!(matches!(Frame::decode(&body), Err(WireError::BadUtf8)));
}

#[test]
fn random_bytes_never_panic() {
    let mut rng = StdRng::seed_from_u64(0xDEAD);
    for _ in 0..CASES {
        let n = rng.gen_range(0..64usize);
        let body: Vec<u8> = (0..n).map(|_| rng.gen::<u8>()).collect();
        let _ = Frame::decode(&body); // must return, not panic
    }
}

#[test]
fn bit_flips_never_panic() {
    let mut rng = StdRng::seed_from_u64(0xF11B);
    for _ in 0..CASES.min(100) {
        let frame = rand_frame(&mut rng);
        let mut body = body_of(&frame.encode()).to_vec();
        if body.is_empty() {
            continue;
        }
        for _ in 0..4 {
            let i = rng.gen_range(0..body.len());
            let bit = rng.gen_range(0..8u32);
            body[i] ^= 1 << bit;
        }
        let _ = Frame::decode(&body); // any outcome but a panic
    }
}

#[test]
fn unknown_txn_state_decodes_to_sentinel() {
    // InvalidTxnState carries `&'static str`; the wire can only restore
    // members of the known-state set, anything else maps to "unknown".
    let err = ClusterError::Sql(SqlError::Storage(StorageError::InvalidTxnState {
        txn: TxnId(7),
        state: "active",
    }));
    let mut body = body_of(&Frame::Error(err).encode()).to_vec();
    // Rewrite the state string "active" -> "zctive" (same length).
    let pos = body.len() - 6;
    body[pos] = b'z';
    let Frame::Error(ClusterError::Sql(SqlError::Storage(StorageError::InvalidTxnState {
        state,
        ..
    }))) = Frame::decode(&body).unwrap()
    else {
        panic!("wrong decode shape");
    };
    assert_eq!(state, "unknown");
}

#[test]
fn mid_frame_eof_is_an_error_but_clean_eof_is_none() {
    let bytes = Frame::Ping { token: 3 }.encode();
    // Clean EOF before any header byte: None.
    let mut empty = std::io::Cursor::new(Vec::<u8>::new());
    assert!(matches!(
        tenantdb_net::wire::read_frame(&mut empty),
        Ok(None)
    ));
    // EOF after a partial frame: error.
    for cut in 1..bytes.len() {
        let mut cursor = std::io::Cursor::new(bytes[..cut].to_vec());
        assert!(
            tenantdb_net::wire::read_frame(&mut cursor).is_err(),
            "cut at {cut} must error"
        );
    }
}
