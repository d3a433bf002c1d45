//! Transaction bookkeeping: ids, lifecycle states, undo logs, and the
//! two-phase-commit participant state machine.
//!
//! The engine applies writes in place (under strict 2PL) and keeps an undo
//! log per transaction; abort applies it in reverse. An entry holds the
//! table object the write went to, not its name, so an abort changes the
//! table its transaction wrote even after the database was dropped and
//! re-created under the same name; it applies the entry's [`RowOp`] with
//! the engine's one row applier, the one row redo runs too. The 2PC
//! participant states follow the classic protocol:
//!
//! ```text
//! Active --prepare()--> Prepared --commit()--> (committed)
//!    \--abort()-----------------\--abort()--> (aborted)
//! ```
//!
//! A `Prepared` transaction may no longer issue reads or writes and must not
//! unilaterally abort from the participant's point of view — only the
//! coordinator (the cluster controller) decides its fate.
//!
//! A finished transaction is forgotten: committing or aborting removes its
//! entry, so the table holds live transactions only and a second commit or
//! abort of the same id reports `NoSuchTxn`.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::sync::{Mutex, TXN_MANAGER};

use crate::error::{Result, StorageError};
use crate::idmap::IdMap;
use crate::table::Table;
use crate::value::Value;
use crate::wal::Wal;

/// A transaction identifier, unique within one engine instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TxnId(pub u64);

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Lifecycle phase of a live transaction (a finished one is forgotten).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnPhase {
    Active,
    Prepared,
}

impl TxnPhase {
    pub fn name(self) -> &'static str {
        match self {
            TxnPhase::Active => "active",
            TxnPhase::Prepared => "prepared",
        }
    }
}

/// One row write: what a row redo record applies once its table is
/// resolved by name, and what an undo entry applies to reverse a write.
#[derive(Debug, PartialEq)]
pub enum RowOp {
    /// Put this image in under the row id.
    Insert(Vec<Value>),
    /// Replace the row's image with this one.
    Update(Vec<Value>),
    /// Remove the row.
    Delete,
}

/// One undo entry: the table a write went to — the object the writing
/// statement resolved, never a name looked up again — and the row write
/// that reverses it. Applied in reverse order on abort.
#[derive(Debug)]
pub struct Undo {
    pub table: Arc<Table>,
    pub row_id: u64,
    pub op: RowOp,
}

#[derive(Debug)]
struct TxnInfo {
    phase: TxnPhase,
    undo: Vec<Undo>,
    writes: u64,
    /// The log of the database the transaction touched first; it touches
    /// no other.
    log: Option<Arc<Wal>>,
}

/// What a finished transaction leaves behind (see [`TxnManager::finish`]).
pub struct Finished {
    /// The undo log **in application order**: abort applies it in reverse,
    /// commit discards it.
    pub undo: Vec<Undo>,
    /// The log holding records of this transaction — redo, or its
    /// `Prepare` — which must get the outcome record too. A transaction
    /// that wrote nothing and never prepared a touched database has none.
    pub log: Option<Arc<Wal>>,
}

/// Per-engine table of live transactions.
pub struct TxnManager {
    next_id: AtomicU64,
    txns: Mutex<IdMap<TxnId, TxnInfo>>,
}

impl Default for TxnManager {
    fn default() -> Self {
        TxnManager {
            next_id: AtomicU64::new(1),
            txns: Mutex::new(&TXN_MANAGER, IdMap::default()),
        }
    }
}

impl TxnManager {
    /// Start a new transaction.
    pub fn begin(&self) -> TxnId {
        // ordering: Relaxed — id minting; uniqueness needs only atomicity.
        let id = TxnId(self.next_id.fetch_add(1, Ordering::Relaxed));
        self.txns.lock().insert(
            id,
            TxnInfo {
                phase: TxnPhase::Active,
                undo: Vec::new(),
                writes: 0,
                log: None,
            },
        );
        id
    }

    /// Ensure `txn` exists and is `Active` (required for reads and writes)
    /// and is bound to the database whose log is `log`: the first read or
    /// write binds it, and a touch of another database is refused.
    pub fn require_active(&self, txn: TxnId, log: &Arc<Wal>) -> Result<()> {
        let mut map = self.txns.lock();
        let info = map.get_mut(&txn).ok_or(StorageError::NoSuchTxn(txn))?;
        let state = match &info.log {
            _ if info.phase != TxnPhase::Active => info.phase.name(),
            Some(bound) if !Arc::ptr_eq(bound, log) => "bound to another database",
            Some(_) => return Ok(()),
            None => {
                info.log = Some(Arc::clone(log));
                return Ok(());
            }
        };
        Err(StorageError::InvalidTxnState { txn, state })
    }

    /// Record an undo entry for a write just applied.
    pub fn push_undo(&self, txn: TxnId, rec: Undo) -> Result<()> {
        let mut map = self.txns.lock();
        let info = map.get_mut(&txn).ok_or(StorageError::NoSuchTxn(txn))?;
        info.writes += 1;
        info.undo.push(rec);
        Ok(())
    }

    /// Transition Active -> Prepared (the 2PC vote), returning the log the
    /// `Prepare` record goes to: none if the transaction touched nothing.
    /// Returns an error from any other state.
    pub fn set_prepared(&self, txn: TxnId) -> Result<Option<Arc<Wal>>> {
        let mut map = self.txns.lock();
        let info = map.get_mut(&txn).ok_or(StorageError::NoSuchTxn(txn))?;
        match info.phase {
            TxnPhase::Active => {
                info.phase = TxnPhase::Prepared;
                Ok(info.log.clone())
            }
            other => Err(StorageError::InvalidTxnState {
                txn,
                state: other.name(),
            }),
        }
    }

    /// Finish the transaction — commit (legal from Active for one-phase, or
    /// Prepared for two-phase) and abort alike — and forget it.
    pub fn finish(&self, txn: TxnId) -> Result<Finished> {
        let info = self
            .txns
            .lock()
            .remove(&txn)
            .ok_or(StorageError::NoSuchTxn(txn))?;
        let logged = info.writes > 0 || info.phase == TxnPhase::Prepared;
        Ok(Finished {
            undo: info.undo,
            log: info.log.filter(|_| logged),
        })
    }

    /// Ids of all live (Active or Prepared) transactions.
    pub fn live_txns(&self) -> Vec<TxnId> {
        self.txns.lock().keys().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::TableSchema;

    fn log() -> Arc<Wal> {
        Arc::new(Wal::default())
    }

    impl TxnManager {
        /// Current phase, or an error if the txn is unknown.
        fn phase(&self, txn: TxnId) -> Result<TxnPhase> {
            self.txns
                .lock()
                .get(&txn)
                .map(|t| t.phase)
                .ok_or(StorageError::NoSuchTxn(txn))
        }
    }

    #[test]
    fn lifecycle_one_phase_commit() {
        let (tm, log) = (TxnManager::default(), log());
        let t = tm.begin();
        assert_eq!(tm.phase(t).unwrap(), TxnPhase::Active);
        tm.require_active(t, &log).unwrap();
        tm.finish(t).unwrap();
        assert_eq!(tm.phase(t).unwrap_err(), StorageError::NoSuchTxn(t));
        assert!(tm.require_active(t, &log).is_err());
    }

    #[test]
    fn lifecycle_two_phase_commit() {
        let (tm, log) = (TxnManager::default(), log());
        let t = tm.begin();
        tm.require_active(t, &log).unwrap();
        let prepare_to = tm.set_prepared(t).unwrap();
        assert!(prepare_to.is_some_and(|l| Arc::ptr_eq(&l, &log)));
        assert_eq!(tm.phase(t).unwrap(), TxnPhase::Prepared);
        // No reads/writes after prepare.
        assert!(tm.require_active(t, &log).is_err());
        assert!(
            tm.finish(t).unwrap().log.is_some(),
            "a prepare is in the log"
        );
    }

    #[test]
    fn an_untouched_prepare_logs_nothing() {
        let tm = TxnManager::default();
        let t = tm.begin();
        assert!(tm.set_prepared(t).unwrap().is_none());
        assert!(tm.finish(t).unwrap().log.is_none());
    }

    #[test]
    fn a_transaction_touches_one_database() {
        let (tm, a, b) = (TxnManager::default(), log(), log());
        let t = tm.begin();
        tm.require_active(t, &a).unwrap();
        tm.require_active(t, &a).unwrap();
        assert_eq!(
            tm.require_active(t, &b).unwrap_err(),
            StorageError::InvalidTxnState {
                txn: t,
                state: "bound to another database"
            }
        );
    }

    #[test]
    fn prepared_can_still_abort() {
        let tm = TxnManager::default();
        let t = tm.begin();
        tm.set_prepared(t).unwrap();
        tm.finish(t).unwrap();
        assert_eq!(tm.phase(t).unwrap_err(), StorageError::NoSuchTxn(t));
    }

    #[test]
    fn illegal_transitions_rejected() {
        let tm = TxnManager::default();
        let t = tm.begin();
        tm.finish(t).unwrap();
        assert!(tm.set_prepared(t).is_err());
        assert!(tm.finish(t).is_err());
    }

    #[test]
    fn unknown_txn() {
        let tm = TxnManager::default();
        assert_eq!(
            tm.phase(TxnId(99)).unwrap_err(),
            StorageError::NoSuchTxn(TxnId(99))
        );
    }

    #[test]
    fn undo_log_returned_on_abort() {
        let (tm, log) = (TxnManager::default(), log());
        let t = tm.begin();
        tm.require_active(t, &log).unwrap();
        let table = Arc::new(Table::new(1, TableSchema::new("t", Vec::new())));
        for op in [RowOp::Delete, RowOp::Update(vec![])] {
            let table = Arc::clone(&table);
            tm.push_undo(
                t,
                Undo {
                    table,
                    row_id: 1,
                    op,
                },
            )
            .unwrap();
        }
        let Finished { undo, log } = tm.finish(t).unwrap();
        assert!(log.is_some(), "it wrote");
        assert_eq!(undo.len(), 2);
        assert_eq!((undo[0].row_id, &undo[0].op), (1, &RowOp::Delete));
    }

    #[test]
    fn read_only_detection() {
        let tm = TxnManager::default();
        let t = tm.begin();
        tm.require_active(t, &log()).unwrap();
        assert!(tm.finish(t).unwrap().log.is_none(), "nothing for the log");
    }

    #[test]
    fn ids_are_unique_and_monotonic() {
        let tm = TxnManager::default();
        let a = tm.begin();
        let b = tm.begin();
        assert!(b.0 > a.0);
    }

    #[test]
    fn live_txns_forget_the_finished() {
        let tm = TxnManager::default();
        let a = tm.begin();
        let b = tm.begin();
        tm.finish(a).unwrap();
        assert_eq!(tm.live_txns(), vec![b]);
        assert!(tm.phase(a).is_err());
        assert!(tm.phase(b).is_ok());
    }

    #[test]
    fn display() {
        assert_eq!(TxnId(42).to_string(), "t42");
    }
}
