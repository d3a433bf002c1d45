//! Logical write-ahead log.
//!
//! The engine applies writes in place, so the log is *redo-only*: each write
//! appends a redo record, prepare/commit/abort append control records, and
//! crash recovery replays — in LSN order — the redo records of transactions
//! that have a commit record. Strict 2PL guarantees that conflicting writes
//! appear in the log in serialization order, so replay reconstructs exactly
//! the committed state.
//!
//! The log lives in memory (this engine simulates one machine of the paper's
//! cluster; durability across *process* death is out of scope, but the log
//! gives us honest crash-restart semantics for fault-injection tests: an
//! engine crash discards all in-flight transactions and rebuilds committed
//! state from the log).

use std::sync::Arc;

use crate::sync::{Mutex, WAL_RECORDS};

use crate::schema::TableSchema;
use crate::txn::TxnId;
use crate::value::Value;

/// A log sequence number: the position of one record in an engine's WAL.
///
/// This is the *stable public cursor type* for everything that tails the
/// log from outside the engine (cross-colo shipping, lag accounting,
/// resume-after-disconnect). LSNs are dense and strictly increasing per
/// engine; [`Lsn::ZERO`] is the position of the first record ever
/// appended, and a reader holding LSN `n` resumes with
/// [`Wal::tail_from`]`(Lsn(n))` to see record `n` onward.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Lsn(pub u64);

impl Lsn {
    /// The position of the first record ever appended to a log.
    pub const ZERO: Lsn = Lsn(0);

    /// The position immediately after this one — what a reader that has
    /// consumed `self` passes to [`Wal::tail_from`] to resume.
    pub fn next(self) -> Lsn {
        Lsn(self.0 + 1)
    }
}

impl std::fmt::Display for Lsn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A redo operation. The database and table names of a row operation are
/// the engine's own (`Database::name`, `Table::name`), shared, not copied;
/// the DDL variants keep their rarely-used payload behind a pointer so that
/// a [`LogRecord`] — most of them `Commit` markers — stays small.
#[derive(Debug, Clone, PartialEq)]
pub enum RedoOp {
    CreateDatabase {
        db: Arc<str>,
    },
    DropDatabase {
        db: Arc<str>,
    },
    CreateTable {
        db: Arc<str>,
        schema: Box<TableSchema>,
    },
    CreateIndex {
        db: Arc<str>,
        table: Arc<str>,
        index: Box<str>,
        columns: Box<[String]>,
        unique: bool,
    },
    Insert {
        db: Arc<str>,
        table: Arc<str>,
        row_id: u64,
        row: Vec<Value>,
    },
    Update {
        db: Arc<str>,
        table: Arc<str>,
        row_id: u64,
        row: Vec<Value>,
    },
    Delete {
        db: Arc<str>,
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

/// Retained log records plus the LSN of the first one still held — the
/// prefix below `start` has been released by [`Wal::truncate_prefix`].
struct WalInner {
    start: u64,
    recs: Vec<LogRecord>,
}

/// The engine-wide log. DDL records use [`Wal::DDL_TXN`] as their txn id and
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
                    recs: Vec::new(),
                },
            ),
        }
    }
}

impl Wal {
    /// Pseudo transaction id for auto-committed DDL.
    pub const DDL_TXN: TxnId = TxnId(0);

    pub fn append(&self, txn: TxnId, entry: WalEntry) -> Lsn {
        let mut inner = self.records.lock();
        let lsn = Lsn(inner.start + inner.recs.len() as u64);
        inner.recs.push(LogRecord { lsn, txn, entry });
        lsn
    }

    /// Number of records currently retained (truncated prefix excluded).
    pub fn len(&self) -> usize {
        self.records.lock().recs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.lock().recs.is_empty()
    }

    /// The LSN the *next* append will receive. Equivalently: one past the
    /// last record, so `head_lsn() - tail position` is a reader's lag in
    /// records. A fresh log has `head_lsn() == Lsn::ZERO`.
    pub fn head_lsn(&self) -> Lsn {
        let inner = self.records.lock();
        Lsn(inner.start + inner.recs.len() as u64)
    }

    /// Snapshot of all retained records (tests, debugging, replay).
    pub fn snapshot(&self) -> Vec<LogRecord> {
        self.records.lock().recs.clone()
    }

    /// All retained records with `lsn >= from`, in LSN order — the tailing
    /// cursor for log shipping. A reader that has applied through LSN `n`
    /// calls `tail_from(Lsn(n + 1))` (or `lsn.next()`) to resume; an empty
    /// result means the reader is caught up. Asking for an LSN below the
    /// truncated prefix returns everything retained, so a stale reader
    /// observes the gap by seeing a first record above its cursor.
    pub fn tail_from(&self, from: Lsn) -> Vec<LogRecord> {
        let inner = self.records.lock();
        let skip = from.0.saturating_sub(inner.start) as usize;
        inner.recs.iter().skip(skip).cloned().collect()
    }

    /// [`Wal::tail_from`], capped at `max` records. A lagging reader pages
    /// through its backlog in `O(max)` clones per call instead of cloning
    /// the whole suffix and discarding most of it.
    pub fn tail_from_capped(&self, from: Lsn, max: usize) -> Vec<LogRecord> {
        let inner = self.records.lock();
        let skip = from.0.saturating_sub(inner.start) as usize;
        inner.recs.iter().skip(skip).take(max).cloned().collect()
    }

    /// Drop retained records with `lsn < upto`, returning how many were
    /// released. The caller owns the safety argument: a prefix may only be
    /// truncated once every consumer (crash recovery via
    /// [`Wal::committed_redo`], cross-colo shippers) has durably applied
    /// it — replay after truncation reconstructs only the retained suffix.
    pub fn truncate_prefix(&self, upto: Lsn) -> usize {
        let mut inner = self.records.lock();
        let cut = upto.0.saturating_sub(inner.start) as usize;
        let cut = cut.min(inner.recs.len());
        inner.recs.drain(..cut);
        inner.start += cut as u64;
        cut
    }

    /// Redo records of committed transactions plus all DDL, in LSN order.
    /// This is the exact input to crash recovery.
    pub fn committed_redo(&self) -> Vec<RedoOp> {
        let inner = self.records.lock();
        let committed: std::collections::HashSet<TxnId> = inner
            .recs
            .iter()
            .filter(|r| matches!(r.entry, WalEntry::Commit))
            .map(|r| r.txn)
            .collect();
        inner
            .recs
            .iter()
            .filter_map(|r| match &r.entry {
                WalEntry::Redo(op) if r.txn == Self::DDL_TXN || committed.contains(&r.txn) => {
                    Some(op.clone())
                }
                _ => None,
            })
            .collect()
    }

    /// Transactions that prepared but neither committed nor aborted — the
    /// coordinator must resolve these after a restart (2PC in-doubt set).
    pub fn in_doubt(&self) -> Vec<TxnId> {
        let inner = self.records.lock();
        let mut prepared = std::collections::HashSet::new();
        for r in inner.recs.iter() {
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
        let mut v: Vec<TxnId> = prepared.into_iter().collect();
        v.sort();
        v
    }

    pub fn clear(&self) {
        let mut inner = self.records.lock();
        inner.start = 0;
        inner.recs.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ins(row_id: u64) -> WalEntry {
        WalEntry::Redo(RedoOp::Insert {
            db: "d".into(),
            table: "t".into(),
            row_id,
            row: vec![Value::Int(row_id as i64)],
        })
    }

    /// The log is what a long run retains (ROADMAP item 4): a record must
    /// not pay for the widest DDL payload.
    #[test]
    fn a_log_record_is_small() {
        assert!(std::mem::size_of::<LogRecord>() < 96);
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
        let tail = wal.tail_from(Lsn(3));
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[0].lsn, Lsn(3));
        assert_eq!(tail[1].lsn, Lsn(4));
        assert!(wal.tail_from(wal.head_lsn()).is_empty());
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
        let tail = wal.tail_from(Lsn::ZERO);
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
        wal.append(
            Wal::DDL_TXN,
            WalEntry::Redo(RedoOp::CreateDatabase { db: "d".into() }),
        );
        wal.append(TxnId(5), ins(1)); // never commits
        let redo = wal.committed_redo();
        assert_eq!(redo.len(), 1);
        assert!(matches!(redo[0], RedoOp::CreateDatabase { .. }));
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
}
