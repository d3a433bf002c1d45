//! The one byte format for values and log records.
//!
//! The log ([`crate::wal`]) stores every record in this format, and
//! `tenantdb-net` carries statement parameters, result rows and shipped log
//! records in it, so the layout is written down once, here. An integer is a
//! LEB128 varint (a signed one zigzagged first), a string its varint length
//! and its UTF-8 bytes, a value a tag byte and its payload, a row its varint
//! length and its values. A log record is a varint transaction id, a kind
//! byte and the kind's payload — nothing for a `Prepare`, `Commit` or
//! `Abort` marker or a `CreateDatabase` or `DropDatabase` one; for any other
//! redo operation its table's name as an id into a name table, which the
//! log keeps once per log and a shipped batch ([`encode_batch`]) lists once
//! per batch. No record names its database: the log, or the stream, that
//! carries it does.
//!
//! The decoder is total, because the bytes may come from another process:
//! every read returns a [`DecodeError`] on truncated or corrupt input, a
//! name id past the name table is an error, and every declared length is
//! checked against the bytes left before anything is reserved.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::schema::{ColumnDef, IndexDef, TableSchema};
use crate::txn::TxnId;
use crate::value::{DataType, Value};
use crate::wal::{LogRecord, Lsn, RedoOp, WalEntry};

/// The byte after a record's transaction id.
pub(crate) mod kind {
    pub const PREPARE: u8 = 0;
    pub const COMMIT: u8 = 1;
    pub const ABORT: u8 = 2;
    pub const CREATE_DATABASE: u8 = 3;
    pub const DROP_DATABASE: u8 = 4;
    pub const CREATE_TABLE: u8 = 5;
    pub const CREATE_INDEX: u8 = 6;
    pub const INSERT: u8 = 7;
    pub const UPDATE: u8 = 8;
    pub const DELETE: u8 = 9;

    pub fn is_redo(kind: u8) -> bool {
        kind >= CREATE_DATABASE
    }

    pub fn is_row(kind: u8) -> bool {
        matches!(kind, INSERT | UPDATE | DELETE)
    }
}

/// The byte before each encoded value.
mod tag {
    pub const NULL: u8 = 0;
    pub const FALSE: u8 = 1;
    pub const TRUE: u8 = 2;
    pub const INT: u8 = 3;
    pub const FLOAT: u8 = 4;
    pub const TEXT: u8 = 5;
}

/// Why bytes did not decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The bytes end inside an item, or a length declares more items than
    /// there are bytes left.
    Truncated,
    /// An unknown record kind, value tag or column type.
    BadTag(u8),
    /// A string is not UTF-8.
    BadUtf8,
    /// A name id past the end of the name table.
    BadName(u64),
    /// A varint longer than ten bytes, or too large for what it counts.
    BadVarint,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => f.write_str("truncated value or record"),
            DecodeError::BadTag(t) => write!(f, "unknown kind or tag 0x{t:02x}"),
            DecodeError::BadUtf8 => f.write_str("invalid utf-8 in a string"),
            DecodeError::BadName(id) => write!(f, "name id {id} past the name table"),
            DecodeError::BadVarint => f.write_str("varint out of range"),
        }
    }
}

impl std::error::Error for DecodeError {}

type Decoded<T> = std::result::Result<T, DecodeError>;

/// Append `row`: its length, then each value.
pub fn encode_row(out: &mut Vec<u8>, row: &[Value]) {
    put_varint(out, row.len() as u64);
    for v in row {
        put_value(out, v);
    }
}

/// Read one row [`encode_row`] wrote from the front of `buf`, and advance
/// `buf` past it.
///
/// The wire decodes one row per statement, most of them one or two values
/// long, so this and the reads under it are `#[inline]`: inlined into the
/// frame decoder in `tenantdb-net` they cost what the wire's own reads did;
/// called across the crate boundary they show in `e2e`'s
/// `net.decode_ns_per_frame`.
#[inline]
pub fn decode_row(buf: &mut &[u8]) -> Decoded<Vec<Value>> {
    let mut d = Decoder::new(buf, &[]);
    let row = d.row()?;
    d.advance(buf);
    Ok(row)
}

/// Append `records` as one batch: the names they use, once each, then each
/// record's LSN followed by the record as the log lays it out.
pub fn encode_batch(out: &mut Vec<u8>, records: &[LogRecord]) {
    let mut names = Names::default();
    let mut body = Vec::new();
    let mut enc = Encoder {
        out: &mut body,
        names: &mut names,
    };
    for rec in records {
        put_varint(enc.out, rec.lsn.0);
        enc.record(rec.txn, |enc| enc.entry(&rec.entry));
    }
    put_varint(out, names.names.len() as u64);
    for name in &names.names {
        put_str(out, name);
    }
    put_varint(out, records.len() as u64);
    out.extend_from_slice(&body);
}

/// Read one batch [`encode_batch`] wrote from the front of `buf`, and
/// advance `buf` past it.
pub fn decode_batch(buf: &mut &[u8]) -> Decoded<Vec<LogRecord>> {
    let mut d = Decoder::new(buf, &[]);
    let names = (0..d.count()?)
        .map(|_| d.str().map(Arc::from))
        .collect::<Decoded<Vec<Arc<str>>>>()?;
    let mut d = Decoder::new(d.buf, &names);
    let n = d.count()?;
    let mut records = Vec::with_capacity(n);
    for _ in 0..n {
        let lsn = Lsn(d.varint()?);
        let (txn, kind) = d.header()?;
        let entry = d.entry(kind)?;
        records.push(LogRecord { lsn, txn, entry });
    }
    d.advance(buf);
    Ok(records)
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.push(tag::NULL),
        Value::Bool(false) => out.push(tag::FALSE),
        Value::Bool(true) => out.push(tag::TRUE),
        &Value::Int(i) => {
            out.push(tag::INT);
            put_varint(out, ((i << 1) ^ (i >> 63)) as u64);
        }
        Value::Float(f) => {
            out.push(tag::FLOAT);
            out.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Value::Text(s) => {
            out.push(tag::TEXT);
            put_str(out, s);
        }
    }
}

/// Every distinct table name a log (or a batch) has recorded, stored once;
/// a record names one by its position here.
#[derive(Default)]
pub(crate) struct Names {
    pub(crate) ids: HashMap<Arc<str>, u64>,
    pub(crate) names: Vec<Arc<str>>,
}

impl Names {
    fn id(&mut self, name: &str) -> u64 {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = self.names.len() as u64;
        let name: Arc<str> = name.into();
        self.names.push(Arc::clone(&name));
        self.ids.insert(name, id);
        id
    }
}

/// Writes records onto the end of a buffer, naming names by their id in
/// `names`.
pub(crate) struct Encoder<'a> {
    pub(crate) out: &'a mut Vec<u8>,
    pub(crate) names: &'a mut Names,
}

impl Encoder<'_> {
    /// One record: `txn`, then the kind byte and the payload `payload`
    /// writes (the payload goes first and the kind byte is slotted in front
    /// of it, so that one match both encodes and names the kind).
    pub(crate) fn record(&mut self, txn: TxnId, payload: impl FnOnce(&mut Self) -> u8) {
        put_varint(self.out, txn.0);
        let at = self.out.len();
        self.out.push(0);
        let kind = payload(self);
        self.out[at] = kind;
    }

    /// Encode `entry`'s payload; returns its kind.
    pub(crate) fn entry(&mut self, entry: &WalEntry) -> u8 {
        match entry {
            WalEntry::Redo(op) => self.redo(op),
            WalEntry::Prepare => kind::PREPARE,
            WalEntry::Commit => kind::COMMIT,
            WalEntry::Abort => kind::ABORT,
        }
    }

    fn name(&mut self, name: &str) {
        let id = self.names.id(name);
        put_varint(self.out, id);
    }

    pub(crate) fn row_write(&mut self, table: &str, row_id: u64, row: Option<&[Value]>) {
        self.name(table);
        put_varint(self.out, row_id);
        if let Some(row) = row {
            encode_row(self.out, row);
        }
    }

    fn schema(&mut self, schema: &TableSchema) {
        self.name(&schema.name);
        put_varint(self.out, schema.columns.len() as u64);
        for c in &schema.columns {
            put_str(self.out, &c.name);
            self.out.push(match c.ty {
                DataType::Bool => 0,
                DataType::Int => 1,
                DataType::Float => 2,
                DataType::Text => 3,
            });
            self.out.push(c.nullable as u8);
        }
        put_varint(self.out, schema.indexes.len() as u64);
        for idx in &schema.indexes {
            put_str(self.out, &idx.name);
            put_varint(self.out, idx.columns.len() as u64);
            for &c in &idx.columns {
                put_varint(self.out, c as u64);
            }
            self.out.push(idx.unique as u8);
        }
    }

    /// Encode `op`'s payload; returns its kind.
    pub(crate) fn redo(&mut self, op: &RedoOp) -> u8 {
        match op {
            RedoOp::CreateDatabase => kind::CREATE_DATABASE,
            RedoOp::DropDatabase => kind::DROP_DATABASE,
            RedoOp::CreateTable { schema } => {
                self.schema(schema);
                kind::CREATE_TABLE
            }
            RedoOp::CreateIndex {
                table,
                index,
                columns,
                unique,
            } => {
                self.name(table);
                put_str(self.out, index);
                put_varint(self.out, columns.len() as u64);
                for c in columns.iter() {
                    put_str(self.out, c);
                }
                self.out.push(*unique as u8);
                kind::CREATE_INDEX
            }
            RedoOp::Insert { table, row_id, row } => {
                self.row_write(table, *row_id, Some(row));
                kind::INSERT
            }
            RedoOp::Update { table, row_id, row } => {
                self.row_write(table, *row_id, Some(row));
                kind::UPDATE
            }
            RedoOp::Delete { table, row_id } => {
                self.row_write(table, *row_id, None);
                kind::DELETE
            }
        }
    }
}

/// Reads values and records from the front of `buf`, resolving name ids
/// against `names`.
pub(crate) struct Decoder<'a> {
    buf: &'a [u8],
    names: &'a [Arc<str>],
}

impl<'a> Decoder<'a> {
    pub(crate) fn new(buf: &'a [u8], names: &'a [Arc<str>]) -> Self {
        Decoder { buf, names }
    }

    /// Move `from`, the slice this decoder started on, past what it read.
    #[inline]
    fn advance(&self, from: &mut &[u8]) {
        let all: &[u8] = from;
        *from = &all[all.len() - self.buf.len()..];
    }

    #[inline]
    fn byte(&mut self) -> Decoded<u8> {
        let (&b, rest) = self.buf.split_first().ok_or(DecodeError::Truncated)?;
        self.buf = rest;
        Ok(b)
    }

    #[inline]
    pub(crate) fn varint(&mut self) -> Decoded<u64> {
        let mut v = 0;
        let mut shift = 0;
        loop {
            let b = self.byte()?;
            v |= u64::from(b & 0x7f) << shift;
            if b < 0x80 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(DecodeError::BadVarint);
            }
        }
    }

    /// A varint that indexes something in memory.
    #[inline]
    fn usize(&mut self) -> Decoded<usize> {
        usize::try_from(self.varint()?).map_err(|_| DecodeError::BadVarint)
    }

    /// A length. Each item it counts takes at least one byte, so a length
    /// past the bytes left is refused before anything is reserved for it.
    #[inline]
    fn count(&mut self) -> Decoded<usize> {
        let n = self.usize()?;
        if n > self.buf.len() {
            return Err(DecodeError::Truncated);
        }
        Ok(n)
    }

    fn bool(&mut self) -> Decoded<bool> {
        Ok(self.byte()? != 0)
    }

    fn str(&mut self) -> Decoded<&'a str> {
        let n = self.count()?;
        let (s, rest) = self.buf.split_at(n);
        self.buf = rest;
        std::str::from_utf8(s).map_err(|_| DecodeError::BadUtf8)
    }

    pub(crate) fn name(&mut self) -> Decoded<Arc<str>> {
        let id = self.varint()?;
        let name = usize::try_from(id).ok().and_then(|i| self.names.get(i));
        name.cloned().ok_or(DecodeError::BadName(id))
    }

    #[inline]
    fn value(&mut self) -> Decoded<Value> {
        Ok(match self.byte()? {
            tag::NULL => Value::Null,
            tag::FALSE => Value::Bool(false),
            tag::TRUE => Value::Bool(true),
            tag::INT => {
                let z = self.varint()?;
                Value::Int((z >> 1) as i64 ^ -((z & 1) as i64))
            }
            tag::FLOAT => {
                let (bits, rest) = self
                    .buf
                    .split_first_chunk::<8>()
                    .ok_or(DecodeError::Truncated)?;
                self.buf = rest;
                Value::Float(f64::from_bits(u64::from_le_bytes(*bits)))
            }
            tag::TEXT => Value::Text(self.str()?.to_string()),
            other => return Err(DecodeError::BadTag(other)),
        })
    }

    #[inline]
    fn row(&mut self) -> Decoded<Vec<Value>> {
        let n = self.count()?;
        let mut row = Vec::with_capacity(n);
        for _ in 0..n {
            row.push(self.value()?);
        }
        Ok(row)
    }

    fn schema(&mut self) -> Decoded<TableSchema> {
        let name = self.name()?.to_string();
        let columns = (0..self.count()?)
            .map(|_| {
                let name = self.str()?.to_string();
                let ty = match self.byte()? {
                    0 => DataType::Bool,
                    1 => DataType::Int,
                    2 => DataType::Float,
                    3 => DataType::Text,
                    other => return Err(DecodeError::BadTag(other)),
                };
                Ok(ColumnDef {
                    name,
                    ty,
                    nullable: self.bool()?,
                })
            })
            .collect::<Decoded<_>>()?;
        let indexes = (0..self.count()?)
            .map(|_| {
                Ok(IndexDef {
                    name: self.str()?.to_string(),
                    columns: (0..self.count()?)
                        .map(|_| self.usize())
                        .collect::<Decoded<_>>()?,
                    unique: self.bool()?,
                })
            })
            .collect::<Decoded<_>>()?;
        Ok(TableSchema {
            name,
            columns,
            indexes,
        })
    }

    /// A record's transaction and kind.
    pub(crate) fn header(&mut self) -> Decoded<(TxnId, u8)> {
        Ok((TxnId(self.varint()?), self.byte()?))
    }

    /// The payload of a record of `kind`.
    pub(crate) fn entry(&mut self, kind: u8) -> Decoded<WalEntry> {
        Ok(match kind {
            kind::PREPARE => WalEntry::Prepare,
            kind::COMMIT => WalEntry::Commit,
            kind::ABORT => WalEntry::Abort,
            kind => WalEntry::Redo(self.redo(kind)?),
        })
    }

    /// The payload of a redo record of `kind`.
    pub(crate) fn redo(&mut self, kind: u8) -> Decoded<RedoOp> {
        Ok(match kind {
            kind::CREATE_DATABASE => RedoOp::CreateDatabase,
            kind::DROP_DATABASE => RedoOp::DropDatabase,
            kind::CREATE_TABLE => RedoOp::CreateTable {
                schema: Box::new(self.schema()?),
            },
            kind::CREATE_INDEX => RedoOp::CreateIndex {
                table: self.name()?,
                index: self.str()?.into(),
                columns: (0..self.count()?)
                    .map(|_| self.str().map(str::to_string))
                    .collect::<Decoded<_>>()?,
                unique: self.bool()?,
            },
            kind::INSERT => RedoOp::Insert {
                table: self.name()?,
                row_id: self.varint()?,
                row: self.row()?,
            },
            kind::UPDATE => RedoOp::Update {
                table: self.name()?,
                row_id: self.varint()?,
                row: self.row()?,
            },
            kind::DELETE => RedoOp::Delete {
                table: self.name()?,
                row_id: self.varint()?,
            },
            other => return Err(DecodeError::BadTag(other)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A batch holding one record of every kind, with every value kind.
    fn every_kind() -> Vec<LogRecord> {
        let schema = TableSchema::new(
            "größe",
            vec![
                ColumnDef::new("id", DataType::Int).not_null(),
                ColumnDef::new("name", DataType::Text),
                ColumnDef::new("ok", DataType::Bool),
                ColumnDef::new("score", DataType::Float),
            ],
        )
        .with_primary_key(&["id"])
        .with_index("by_name", &["name"], false);
        let row = vec![
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(i64::MIN),
            Value::Float(-0.0),
            Value::Text("é€".into()),
        ];
        let table: Arc<str> = "größe".into();
        let ops = [
            RedoOp::CreateDatabase,
            RedoOp::CreateTable {
                schema: Box::new(schema),
            },
            RedoOp::CreateIndex {
                table: table.clone(),
                index: "by_score".into(),
                columns: ["score".to_string()].into(),
                unique: false,
            },
            RedoOp::Insert {
                table: table.clone(),
                row_id: u64::MAX,
                row: row.clone(),
            },
            RedoOp::Update {
                table: table.clone(),
                row_id: 1,
                row,
            },
            RedoOp::Delete { table, row_id: 1 },
            RedoOp::DropDatabase,
        ];
        let entries = ops.into_iter().map(WalEntry::Redo).chain([
            WalEntry::Prepare,
            WalEntry::Commit,
            WalEntry::Abort,
        ]);
        entries
            .enumerate()
            .map(|(i, entry)| LogRecord {
                lsn: Lsn(1 << (6 * i)),
                txn: TxnId(i as u64 * 300),
                entry,
            })
            .collect()
    }

    /// The decoder is total on a batch holding every record kind: the batch
    /// reads back, every proper prefix of it is an error, and every
    /// single-byte change of it decodes to an error or to records, never a
    /// panic. A length past the bytes left is refused before anything is
    /// reserved for it (2^32 values would be 128 GiB), and so are a name id
    /// past the name table and an eleven-byte varint.
    #[test]
    fn a_batch_of_every_kind_decodes_totally() {
        let records = every_kind();
        let mut bytes = Vec::new();
        encode_batch(&mut bytes, &records);
        let mut rest = &bytes[..];
        let back = decode_batch(&mut rest).expect("the batch decodes");
        assert!(rest.is_empty());
        // `Value`'s `PartialEq` calls `0.0` equal to `-0.0`; `Debug` does not.
        assert_eq!(format!("{back:?}"), format!("{records:?}"));

        for cut in 0..bytes.len() {
            let got = decode_batch(&mut &bytes[..cut]);
            assert!(got.is_err(), "prefix of {cut} bytes decoded: {got:?}");
        }
        // Miri interprets each decode about a thousand times slower.
        let masks: Vec<u8> = if cfg!(miri) {
            vec![0x01, 0x80, 0xff]
        } else {
            (1..=u8::MAX).collect()
        };
        for at in 0..bytes.len() {
            for &mask in &masks {
                let mut flipped = bytes.clone();
                flipped[at] ^= mask;
                let _ = decode_batch(&mut &flipped[..]);
            }
        }

        let mut row = Vec::new();
        put_varint(&mut row, 1 << 32);
        row.extend_from_slice(&[tag::NULL; 10]);
        assert_eq!(decode_row(&mut &row[..]), Err(DecodeError::Truncated));

        // No names, one record, LSN 0, txn 7, and a delete of name 0's row 0.
        let batch = [0, 1, 0, 7, kind::DELETE, 0, 0];
        assert_eq!(decode_batch(&mut &batch[..]), Err(DecodeError::BadName(0)));

        let eleven_bytes = [[0x80; 10].as_slice(), &[0]].concat();
        assert_eq!(
            decode_row(&mut &eleven_bytes[..]),
            Err(DecodeError::BadVarint)
        );
    }
}
