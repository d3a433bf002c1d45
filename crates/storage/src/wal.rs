//! Logical write-ahead logs, one per database.
//!
//! The engine applies writes in place, so a log is *redo-only*: each write
//! appends a redo record, prepare/commit/abort append control records, and
//! crash recovery replays — in LSN order — the redo records of transactions
//! that have a commit record. Strict 2PL guarantees that conflicting writes
//! appear in the log in serialization order, so replay reconstructs exactly
//! the committed state.
//!
//! Every database an engine hosts has its own [`Wal`], kept in [`Logs`]; a
//! transaction touches one database, so a log holds one tenant's records.
//! A record does not name its database: the log that holds it does, so
//! restart replays each log into the database its [`Logs`] key names, and a
//! shipped stream belongs to the database its handshake names.
//!
//! The logs live in memory (this engine simulates one machine of the
//! paper's cluster; durability across *process* death is out of scope, but
//! the logs give us honest crash-restart semantics for fault-injection
//! tests: an engine crash discards all in-flight transactions and rebuilds
//! committed state from the logs).
//!
//! A log is what a long run retains, so it keeps bytes, not objects: each
//! record is encoded where it is appended, into one append-only buffer, and
//! the log keeps one end offset per record. The layout is
//! [`crate::codec`]'s, the same one a shipped batch carries; the log keeps
//! its name table (each distinct table name stored once per log) beside
//! the buffer. [`LogRecord`], [`WalEntry`] and [`RedoOp`] are the decoded form
//! the readers hand out; the passes that need only a record's transaction
//! and kind decode nothing else. The log decodes only bytes it wrote, so a
//! record that does not decode is a bug here, and the reads panic.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use crate::codec::{kind, Decoder, Encoder, Names};
use crate::sync::{Mutex, RwLock, ENGINE_LOGS, WAL_RECORDS};

use crate::schema::TableSchema;
use crate::txn::TxnId;
use crate::value::Value;

/// A log sequence number: the position of one record in a database's log.
///
/// This is the *stable public cursor type* for everything that tails a
/// log from outside the engine (cross-colo shipping, lag accounting,
/// resume-after-disconnect). LSNs are dense and strictly increasing per
/// log; [`Lsn::ZERO`] is the position of the first record ever
/// appended to it, and a reader holding LSN `n` resumes with
/// [`Wal::tail_from_capped`]`(Lsn(n), ..)` to see record `n` onward.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Lsn(pub u64);

impl Lsn {
    /// The position of the first record ever appended to a log.
    pub const ZERO: Lsn = Lsn(0);

    /// The position immediately after this one — what a reader that has
    /// consumed `self` passes to [`Wal::tail_from_capped`] to resume.
    pub fn next(self) -> Lsn {
        Lsn(self.0 + 1)
    }
}

impl std::fmt::Display for Lsn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A redo operation of the database whose log holds it: the log is the
/// only thing that names the database. The table names of a row operation
/// are shared, not copied: a decoded record hands out the log's own name,
/// the same `Arc<str>` every time. The DDL variants keep their rarely-used
/// payload behind a pointer, so that a decoded batch of records — most of
/// them `Commit` markers — stays small.
#[derive(Debug, Clone, PartialEq)]
pub enum RedoOp {
    /// The database (re)appears: what follows in its log applies to this
    /// incarnation.
    CreateDatabase,
    /// The database is dropped: nothing before this marker applies to a
    /// later incarnation.
    DropDatabase,
    CreateTable {
        schema: Box<TableSchema>,
    },
    CreateIndex {
        table: Arc<str>,
        index: Box<str>,
        columns: Box<[String]>,
        unique: bool,
    },
    Insert {
        table: Arc<str>,
        row_id: u64,
        row: Vec<Value>,
    },
    Update {
        table: Arc<str>,
        row_id: u64,
        row: Vec<Value>,
    },
    Delete {
        table: Arc<str>,
        row_id: u64,
    },
}

/// A log record body.
#[derive(Debug, Clone, PartialEq)]
pub enum WalEntry {
    Redo(RedoOp),
    Prepare,
    Commit,
    Abort,
}

/// A sequenced log record.
#[derive(Debug, Clone, PartialEq)]
pub struct LogRecord {
    pub lsn: Lsn,
    pub txn: TxnId,
    pub entry: WalEntry,
}

/// A row write as the engine logs it: the log encodes the image from this
/// borrow and keeps no reference to it.
pub(crate) enum RowWrite<'a> {
    Insert(&'a [Value]),
    Update(&'a [Value]),
    Delete,
}

const CORRUPT: &str = "the log decodes only records it encoded itself";

/// The retained records, encoded back to back, plus the LSN of the first
/// one still held — the prefix below `start` has been released by
/// [`Wal::truncate_prefix`].
struct WalInner {
    start: u64,
    bytes: Vec<u8>,
    /// `ends[i]`: where retained record `i` ends in `bytes`; it begins
    /// where record `i - 1` ends.
    ends: Vec<usize>,
    names: Names,
}

impl WalInner {
    fn head(&self) -> Lsn {
        Lsn(self.start + self.ends.len() as u64)
    }

    /// Index into `ends` of the record at `lsn` (clamped to the retained
    /// range's start).
    fn index_of(&self, lsn: Lsn) -> usize {
        usize::try_from(lsn.0.saturating_sub(self.start)).unwrap_or(usize::MAX)
    }

    /// Retained record `i`'s transaction and kind, and a decoder at the
    /// start of its payload.
    fn record(&self, i: usize) -> (TxnId, u8, Decoder<'_>) {
        let from = if i == 0 { 0 } else { self.ends[i - 1] };
        let mut d = Decoder::new(&self.bytes[from..self.ends[i]], &self.names.names);
        let (txn, kind) = d.header().expect(CORRUPT);
        (txn, kind, d)
    }

    fn decode(&self, i: usize) -> LogRecord {
        let (txn, kind, mut d) = self.record(i);
        LogRecord {
            lsn: Lsn(self.start + i as u64),
            txn,
            entry: d.entry(kind).expect(CORRUPT),
        }
    }

    /// Up to `max` decoded records from retained index `from` on.
    fn decode_from(&self, from: usize, max: usize) -> Vec<LogRecord> {
        let end = from.saturating_add(max).min(self.ends.len());
        (from..end).map(|i| self.decode(i)).collect()
    }
}

/// One database's log. DDL records use [`Wal::DDL_TXN`] as their txn id and
/// are always replayed.
pub struct Wal {
    records: Mutex<WalInner>,
}

impl Default for Wal {
    fn default() -> Self {
        Wal {
            records: Mutex::new(
                &WAL_RECORDS,
                WalInner {
                    start: 0,
                    bytes: Vec::new(),
                    ends: Vec::new(),
                    names: Names::default(),
                },
            ),
        }
    }
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal").finish_non_exhaustive()
    }
}

impl Wal {
    /// Pseudo transaction id for auto-committed DDL.
    pub const DDL_TXN: TxnId = TxnId(0);

    pub fn append(&self, txn: TxnId, entry: WalEntry) -> Lsn {
        self.push(txn, |enc| enc.entry(&entry))
    }

    /// [`Wal::append`] of a redo record, encoded from a borrow.
    pub(crate) fn append_redo(&self, txn: TxnId, op: &RedoOp) -> Lsn {
        self.push(txn, |enc| enc.redo(op))
    }

    /// Append a row write of `table`, encoded from a borrow of the image.
    pub(crate) fn append_row(
        &self,
        txn: TxnId,
        table: &str,
        row_id: u64,
        write: RowWrite<'_>,
    ) -> Lsn {
        self.push(txn, |enc| match write {
            RowWrite::Insert(row) => {
                enc.row_write(table, row_id, Some(row));
                kind::INSERT
            }
            RowWrite::Update(row) => {
                enc.row_write(table, row_id, Some(row));
                kind::UPDATE
            }
            RowWrite::Delete => {
                enc.row_write(table, row_id, None);
                kind::DELETE
            }
        })
    }

    /// Append one record of `txn` whose kind and payload `payload` writes
    /// (see [`Encoder::record`]).
    fn push(&self, txn: TxnId, payload: impl FnOnce(&mut Encoder<'_>) -> u8) -> Lsn {
        let mut guard = self.records.lock();
        let inner = &mut *guard;
        let lsn = inner.head();
        Encoder {
            out: &mut inner.bytes,
            names: &mut inner.names,
        }
        .record(txn, payload);
        inner.ends.push(inner.bytes.len());
        lsn
    }

    /// Number of records currently retained (truncated prefix excluded).
    pub fn len(&self) -> usize {
        self.records.lock().ends.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.lock().ends.is_empty()
    }

    /// The LSN the *next* append will receive. Equivalently: one past the
    /// last record, so `head_lsn() - tail position` is a reader's lag in
    /// records. A fresh log has `head_lsn() == Lsn::ZERO`.
    pub fn head_lsn(&self) -> Lsn {
        self.records.lock().head()
    }

    /// Snapshot of all retained records (tests, debugging, replay).
    pub fn snapshot(&self) -> Vec<LogRecord> {
        self.tail_from_capped(Lsn::ZERO, usize::MAX)
    }

    /// Up to `max` retained records with `lsn >= from`, in LSN order — the
    /// tailing cursor for log shipping. A reader that has applied through
    /// LSN `n` resumes from `Lsn(n + 1)` (or `lsn.next()`); an empty result
    /// means the reader is caught up. A lagging reader pages through its
    /// backlog in `O(max)` decodes per call. Asking for an LSN below the
    /// truncated prefix returns everything retained, so a stale reader
    /// observes the gap by seeing a first record above its cursor.
    pub fn tail_from_capped(&self, from: Lsn, max: usize) -> Vec<LogRecord> {
        let inner = self.records.lock();
        inner.decode_from(inner.index_of(from), max)
    }

    /// Drop retained records with `lsn < upto`, returning how many were
    /// released. The caller owns the safety argument: a prefix may only be
    /// truncated once every consumer (crash recovery via
    /// [`Wal::committed_redo`], cross-colo shippers) has durably applied
    /// it — replay after truncation reconstructs only the retained suffix.
    pub fn truncate_prefix(&self, upto: Lsn) -> usize {
        let mut inner = self.records.lock();
        let cut = inner.index_of(upto).min(inner.ends.len());
        if cut > 0 {
            let released = inner.ends[cut - 1];
            inner.bytes.drain(..released);
            inner.ends.drain(..cut);
            for end in &mut inner.ends {
                *end -= released;
            }
            inner.start += cut as u64;
        }
        cut
    }

    /// Redo records of committed transactions plus all DDL, in LSN order.
    /// This is the exact input to crash recovery. The pass that finds the
    /// committed transactions reads record headers only.
    pub fn committed_redo(&self) -> Vec<RedoOp> {
        let inner = self.records.lock();
        let n = inner.ends.len();
        let committed: HashSet<TxnId> = (0..n)
            .filter_map(|i| {
                let (txn, kind, _) = inner.record(i);
                (kind == kind::COMMIT).then_some(txn)
            })
            .collect();
        (0..n)
            .filter_map(|i| {
                let (txn, kind, mut d) = inner.record(i);
                let replayed =
                    kind::is_redo(kind) && (txn == Self::DDL_TXN || committed.contains(&txn));
                replayed.then(|| d.redo(kind).expect(CORRUPT))
            })
            .collect()
    }

    /// Transactions that prepared but neither committed nor aborted — the
    /// coordinator must resolve these after a restart (2PC in-doubt set).
    /// Reads record headers only.
    pub fn in_doubt(&self) -> Vec<TxnId> {
        let inner = self.records.lock();
        let mut prepared = HashSet::new();
        for i in 0..inner.ends.len() {
            let (txn, kind, _) = inner.record(i);
            match kind {
                kind::PREPARE => {
                    prepared.insert(txn);
                }
                kind::COMMIT | kind::ABORT => {
                    prepared.remove(&txn);
                }
                _ => {}
            }
        }
        let mut v: Vec<TxnId> = prepared.into_iter().collect();
        v.sort();
        v
    }

    /// The transaction and table of each retained row record, in LSN
    /// order, skipping [`Wal::DDL_TXN`] (replicated and restored rows) and
    /// a repeat of the pair just before it. Reads record headers and names
    /// only: no row is decoded.
    pub fn row_writes(&self) -> Vec<(TxnId, Arc<str>)> {
        let inner = self.records.lock();
        let mut out: Vec<(TxnId, Arc<str>)> = Vec::new();
        for i in 0..inner.ends.len() {
            let (txn, kind, mut d) = inner.record(i);
            if txn == Self::DDL_TXN || !kind::is_row(kind) {
                continue;
            }
            let table = d.name().expect(CORRUPT);
            if out
                .last()
                .is_some_and(|(t, name)| *t == txn && Arc::ptr_eq(name, &table))
            {
                continue;
            }
            out.push((txn, table));
        }
        out
    }
}

/// An engine's logs, one per database name it has hosted. A log outlives
/// its database — a drop is a record in it, and a re-create under the name
/// appends to it — and survives a crash: it is what restart rebuilds from.
pub struct Logs {
    by_db: RwLock<HashMap<String, Arc<Wal>>>,
}

impl Default for Logs {
    fn default() -> Self {
        Logs {
            by_db: RwLock::new(&ENGINE_LOGS, HashMap::new()),
        }
    }
}

impl Logs {
    /// `db`'s log, if it has one.
    pub fn get(&self, db: &str) -> Option<Arc<Wal>> {
        self.by_db.read().get(db).cloned()
    }

    /// `db`'s log, made now if it has none.
    pub(crate) fn open(&self, db: &str) -> Arc<Wal> {
        let made = || Arc::clone(self.by_db.write().entry(db.into()).or_default());
        self.get(db).unwrap_or_else(made)
    }

    /// Every log, with the name of the database it belongs to.
    pub(crate) fn all(&self) -> Vec<(String, Arc<Wal>)> {
        let by_db = self.by_db.read();
        by_db
            .iter()
            .map(|(db, log)| (db.clone(), Arc::clone(log)))
            .collect()
    }

    /// Records retained over every log: what the machine holds.
    pub fn len(&self) -> usize {
        self.by_db.read().values().map(|log| log.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec;
    use crate::schema::{ColumnDef, IndexDef};
    use crate::value::DataType;

    fn ins(row_id: u64) -> WalEntry {
        WalEntry::Redo(RedoOp::Insert {
            table: "t".into(),
            row_id,
            row: vec![Value::Int(row_id as i64)],
        })
    }

    #[test]
    fn lsns_are_sequential() {
        let wal = Wal::default();
        assert_eq!(wal.head_lsn(), Lsn::ZERO);
        assert_eq!(wal.append(TxnId(1), ins(1)), Lsn(0));
        assert_eq!(wal.append(TxnId(1), ins(2)), Lsn(1));
        assert_eq!(wal.append(TxnId(1), WalEntry::Commit), Lsn(2));
        assert_eq!(wal.len(), 3);
        assert_eq!(wal.head_lsn(), Lsn(3));
    }

    #[test]
    fn tail_from_resumes_at_the_cursor() {
        let wal = Wal::default();
        for i in 0..5 {
            wal.append(TxnId(1), ins(i));
        }
        let tail = wal.tail_from_capped(Lsn(3), usize::MAX);
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[0].lsn, Lsn(3));
        assert_eq!(tail[1].lsn, Lsn(4));
        assert!(wal.tail_from_capped(wal.head_lsn(), 1).is_empty());
        // `next()` is the resume idiom after consuming a record.
        assert_eq!(tail[1].lsn.next(), wal.head_lsn());
    }

    #[test]
    fn tail_from_capped_pages_the_backlog() {
        let wal = Wal::default();
        for i in 0..5 {
            wal.append(TxnId(1), ins(i));
        }
        let page = wal.tail_from_capped(Lsn(1), 2);
        assert_eq!(page.len(), 2);
        assert_eq!(page[0].lsn, Lsn(1));
        assert_eq!(page[1].lsn, Lsn(2));
        // The next page resumes where the cap cut off.
        let page = wal.tail_from_capped(page[1].lsn.next(), 100);
        assert_eq!(page.len(), 2);
        assert_eq!(page[0].lsn, Lsn(3));
        assert!(wal.tail_from_capped(wal.head_lsn(), 100).is_empty());
    }

    #[test]
    fn truncate_prefix_preserves_lsns() {
        let wal = Wal::default();
        for i in 0..6 {
            wal.append(TxnId(1), ins(i));
        }
        assert_eq!(wal.truncate_prefix(Lsn(4)), 4);
        assert_eq!(wal.len(), 2);
        assert_eq!(wal.head_lsn(), Lsn(6));
        // Retained records keep their original LSNs, and a fresh append
        // continues the sequence.
        let tail = wal.snapshot();
        assert_eq!(tail[0].lsn, Lsn(4));
        assert_eq!(wal.append(TxnId(1), ins(9)), Lsn(6));
        // Truncating past the head releases everything but never rewinds.
        assert_eq!(wal.truncate_prefix(Lsn(100)), 3);
        assert_eq!(wal.head_lsn(), Lsn(7));
    }

    #[test]
    fn committed_redo_filters_uncommitted() {
        let wal = Wal::default();
        wal.append(TxnId(1), ins(1));
        wal.append(TxnId(2), ins(2));
        wal.append(TxnId(1), WalEntry::Commit);
        wal.append(TxnId(2), WalEntry::Abort);
        let redo = wal.committed_redo();
        assert_eq!(redo.len(), 1);
        assert!(matches!(redo[0], RedoOp::Insert { row_id: 1, .. }));
    }

    #[test]
    fn ddl_always_replayed() {
        let wal = Wal::default();
        wal.append(Wal::DDL_TXN, WalEntry::Redo(RedoOp::CreateDatabase));
        wal.append(TxnId(5), ins(1)); // never commits
        let redo = wal.committed_redo();
        assert_eq!(redo.len(), 1);
        assert!(matches!(redo[0], RedoOp::CreateDatabase));
    }

    #[test]
    fn in_doubt_tracking() {
        let wal = Wal::default();
        wal.append(TxnId(1), WalEntry::Prepare);
        wal.append(TxnId(2), WalEntry::Prepare);
        wal.append(TxnId(3), WalEntry::Prepare);
        wal.append(TxnId(1), WalEntry::Commit);
        wal.append(TxnId(2), WalEntry::Abort);
        assert_eq!(wal.in_doubt(), vec![TxnId(3)]);
    }

    #[test]
    fn replay_order_is_lsn_order() {
        let wal = Wal::default();
        wal.append(TxnId(1), ins(1));
        wal.append(TxnId(2), ins(2));
        wal.append(TxnId(1), ins(3));
        wal.append(TxnId(1), WalEntry::Commit);
        wal.append(TxnId(2), WalEntry::Commit);
        let ids: Vec<u64> = wal
            .committed_redo()
            .iter()
            .map(|op| match op {
                RedoOp::Insert { row_id, .. } => *row_id,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(ids, vec![1, 2, 3]);
    }

    /// A name is stored once per log: every record that names it decodes
    /// to the same `Arc<str>`.
    #[test]
    fn decoded_names_are_shared() {
        let wal = Wal::default();
        wal.append(TxnId(1), ins(1));
        wal.append(TxnId(2), ins(2));
        let names = |rec: &LogRecord| match &rec.entry {
            WalEntry::Redo(RedoOp::Insert { table, .. }) => table.clone(),
            other => panic!("not an insert: {other:?}"),
        };
        let records = wal.snapshot();
        assert!(Arc::ptr_eq(&names(&records[0]), &names(&records[1])));
    }

    #[test]
    fn row_writes_name_the_tables_each_transaction_wrote() {
        let wal = Wal::default();
        let row = |table: &str| {
            WalEntry::Redo(RedoOp::Update {
                table: table.into(),
                row_id: 0,
                row: vec![Value::Null],
            })
        };
        wal.append(TxnId(1), row("a"));
        wal.append(TxnId(1), row("a"));
        wal.append(TxnId(1), row("b"));
        wal.append(Wal::DDL_TXN, row("c"));
        wal.append(TxnId(2), row("c"));
        let writes: Vec<(u64, String)> = wal
            .row_writes()
            .into_iter()
            .map(|(txn, t)| (txn.0, t.to_string()))
            .collect();
        assert_eq!(writes, [(1, "a".into()), (1, "b".into()), (2, "c".into())]);
        assert!(Wal::default().row_writes().is_empty());
    }

    /// splitmix64: a seeded generator with no dependency.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn pick<T: Clone>(&mut self, from: &[T]) -> T {
            from[self.below(from.len() as u64) as usize].clone()
        }
    }

    const TABLES: [&str; 3] = ["t", "orders", "größe"];

    fn value(rng: &mut Rng) -> Value {
        match rng.below(12) {
            0 => Value::Null,
            1 => Value::Bool(false),
            2 => Value::Bool(true),
            3 => Value::Int(i64::MIN),
            4 => Value::Int(i64::MAX),
            5 => Value::Int(-(rng.below(1 << 40) as i64)),
            6 => Value::Int(rng.next() as i64),
            7 => Value::Float(f64::NAN),
            8 => Value::Float(-0.0),
            9 => Value::Float(f64::from_bits(rng.next())),
            10 => Value::Text(String::new()),
            _ => {
                let chars = ["a", "é", "€", "🦀", " "];
                Value::Text((0..rng.below(9)).map(|_| rng.pick(&chars)).collect())
            }
        }
    }

    fn schema(rng: &mut Rng) -> TableSchema {
        let types = [
            DataType::Bool,
            DataType::Int,
            DataType::Float,
            DataType::Text,
        ];
        let columns: Vec<ColumnDef> = (0..1 + rng.below(4))
            .map(|c| ColumnDef {
                name: format!("c{c}_ü"),
                ty: rng.pick(&types),
                nullable: rng.below(2) == 0,
            })
            .collect();
        let n = columns.len();
        let mut indexes = vec![IndexDef {
            name: "pk".into(),
            columns: vec![0],
            unique: true,
        }];
        for i in 0..rng.below(3) {
            indexes.push(IndexDef {
                name: format!("by_{i}"),
                columns: (0..1 + rng.below(n as u64))
                    .map(|_| rng.below(n as u64) as usize)
                    .collect(),
                unique: rng.below(2) == 0,
            });
        }
        TableSchema {
            name: rng.pick(&TABLES).into(),
            columns,
            indexes,
        }
    }

    fn entry(rng: &mut Rng) -> WalEntry {
        let table: Arc<str> = rng.pick(&TABLES).into();
        let row_id = rng.next() >> rng.below(64);
        let row = |rng: &mut Rng| -> Vec<Value> { (0..rng.below(6)).map(|_| value(rng)).collect() };
        WalEntry::Redo(match rng.below(10) {
            0 => return WalEntry::Prepare,
            1 => return WalEntry::Commit,
            2 => return WalEntry::Abort,
            3 => RedoOp::CreateDatabase,
            4 => RedoOp::DropDatabase,
            5 => RedoOp::CreateTable {
                schema: Box::new(schema(rng)),
            },
            6 => RedoOp::CreateIndex {
                table,
                index: "by_ø".into(),
                columns: (0..rng.below(3)).map(|c| format!("c{c}")).collect(),
                unique: rng.below(2) == 0,
            },
            7 => RedoOp::Insert {
                table,
                row_id,
                row: row(rng),
            },
            8 => RedoOp::Update {
                table,
                row_id,
                row: row(rng),
            },
            _ => RedoOp::Delete { table, row_id },
        })
    }

    /// Bit-exact equality: `Value`'s `PartialEq` calls `5` equal to `5.0`
    /// and `0.0` equal to `-0.0`; its `Debug` tells them apart.
    fn same<T: std::fmt::Debug>(got: &[T], want: &[T], what: &str) {
        assert_eq!(format!("{got:#?}"), format!("{want:#?}"), "{what}");
    }

    /// What the log must hand back for `appended`, computed without it.
    fn reference(appended: &[LogRecord]) -> (Vec<RedoOp>, Vec<TxnId>) {
        let committed: HashSet<TxnId> = appended
            .iter()
            .filter(|r| r.entry == WalEntry::Commit)
            .map(|r| r.txn)
            .collect();
        let redo = appended
            .iter()
            .filter_map(|r| match &r.entry {
                WalEntry::Redo(op) if r.txn == Wal::DDL_TXN || committed.contains(&r.txn) => {
                    Some(op.clone())
                }
                _ => None,
            })
            .collect();
        let mut prepared = std::collections::BTreeSet::new();
        for r in appended {
            match r.entry {
                WalEntry::Prepare => {
                    prepared.insert(r.txn);
                }
                WalEntry::Commit | WalEntry::Abort => {
                    prepared.remove(&r.txn);
                }
                WalEntry::Redo(_) => {}
            }
        }
        (redo, prepared.into_iter().collect())
    }

    fn check(wal: &Wal, appended: &[LogRecord], page: usize, what: &str) {
        same(&wal.snapshot(), appended, &format!("{what}: snapshot"));
        let mut paged = Vec::new();
        let mut cursor = Lsn::ZERO;
        loop {
            let batch = wal.tail_from_capped(cursor, page);
            let Some(last) = batch.last() else { break };
            assert!(batch.len() <= page, "{what}: page over its cap");
            let mut bytes = Vec::new();
            codec::encode_batch(&mut bytes, &batch);
            let mut rest = &bytes[..];
            let shipped = codec::decode_batch(&mut rest).expect("a shipped page decodes");
            assert!(rest.is_empty(), "{what}: bytes left after a shipped page");
            same(
                &shipped,
                &batch,
                &format!("{what}: a page shipped as a batch"),
            );
            cursor = last.lsn.next();
            paged.extend(batch);
        }
        same(&paged, appended, &format!("{what}: pages of {page}"));
        let (redo, in_doubt) = reference(appended);
        same(
            &wal.committed_redo(),
            &redo,
            &format!("{what}: committed_redo"),
        );
        assert_eq!(wal.in_doubt(), in_doubt, "{what}: in_doubt");
        assert_eq!(wal.len(), appended.len(), "{what}: len");
    }

    /// Every record reads back bit-exactly — through `snapshot`, through
    /// `tail_from_capped` pages (each also shipped through the batch codec),
    /// and after `truncate_prefix` — with its LSN; `committed_redo` and
    /// `in_doubt` agree with a reference computed from the appended records.
    #[test]
    fn every_record_round_trips() {
        for seed in 0..24 {
            let mut rng = Rng(seed);
            let wal = Wal::default();
            let mut appended = Vec::new();
            let append = |rng: &mut Rng, appended: &mut Vec<LogRecord>| {
                // Few transactions, so markers meet their redo; 0 is DDL.
                let txn = TxnId(rng.below(6));
                let entry = entry(rng);
                let lsn = wal.append(txn, entry.clone());
                appended.push(LogRecord { lsn, txn, entry });
            };
            for _ in 0..200 {
                append(&mut rng, &mut appended);
            }
            let page = 1 + rng.below(40) as usize;
            check(&wal, &appended, page, &format!("seed {seed}"));

            let cut = rng.below(appended.len() as u64 + 1) as usize;
            assert_eq!(wal.truncate_prefix(Lsn(cut as u64)), cut);
            appended.drain(..cut);
            for _ in 0..50 {
                append(&mut rng, &mut appended);
            }
            check(&wal, &appended, page, &format!("seed {seed}, cut at {cut}"));
        }
    }
}
