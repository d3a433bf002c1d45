//! Cluster-level errors.

use std::fmt;

use tenantdb_sql::SqlError;
use tenantdb_storage::StorageError;

/// Why the platform refused a transaction, as [`ClusterError::refusal`]
/// classifies every failed transaction on either transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refusal {
    /// Chosen as a deadlock victim.
    Deadlock,
    /// A lock wait timed out (a distributed deadlock ends this way).
    LockTimeout,
    /// Algorithm 1 refused a write to a table being copied to a new replica.
    CopyInProgress,
    /// SLA admission shed the transaction: the tenant is past its rate.
    AdmissionShed,
    /// No live replica could serve it.
    NoReplica,
    /// The controller replica contacted is not the metadata leader.
    NotLeader,
    /// The commit decision may or may not be durable.
    InDoubt,
    /// A promoted standby colo took this cluster's write authority.
    Fenced,
}

/// The `tenantdb_txn_outcomes_total` label a failed transaction counts under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Caused by the workload; the §4.1 SLA excludes it.
    Deadlock,
    /// A §4.1 proactive rejection, counted against `max_rejected_frac`.
    Rejected,
    /// Anything else: statement errors, rollbacks, lost leadership, fencing.
    Aborted,
}

/// What [`ClusterError::TxnAborted`] carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Aborted {
    /// The refusal underneath, or `None` for an abort that is no refusal.
    pub cause: Option<Refusal>,
    /// The reason in words.
    pub message: String,
}

/// Errors surfaced to clients of the cluster controller.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterError {
    /// SQL parse/plan/eval error, or a storage error from one replica.
    Sql(SqlError),
    /// No machine currently hosts this database.
    NoSuchDatabase(String),
    /// All replicas of the database are unavailable.
    NoReplicas(String),
    /// The cluster has no machines (or none that can host a new database).
    NoMachines,
    /// The write was proactively rejected — Algorithm 1 rejects writes to a
    /// table while it is being copied to a new replica.
    WriteRejected {
        /// Database the write targeted.
        db: String,
        /// Table whose copy is in flight (`"<ddl>"` for DDL statements).
        table: String,
    },
    /// The transaction was aborted (reason attached). The client must retry.
    TxnAborted(Aborted),
    /// `commit`/`rollback` without an active transaction.
    NoActiveTxn,
    /// A database with this name already exists.
    AlreadyExists(String),
    /// The controller replica contacted is not the metadata leader (or the
    /// controller group is mid-election / lost its quorum). Retryable: the
    /// hint, when present, is the replica id believed to be the leader
    /// (DESIGN.md §12).
    NotLeader {
        /// Controller replica id to redirect to, if known.
        hint: Option<u32>,
    },
    /// The transaction's commit outcome is unknown: the commit decision may
    /// or may not be durable on the controller group (quorum lost at the
    /// decision point, after a proposal was already in flight). The
    /// transaction is **not** known to be aborted — blind retries can
    /// double-apply; recovery resolves the participants once the group
    /// heals.
    InDoubt(String),
    /// The transaction was shed by SLA admission control before it started:
    /// the tenant is past its provisioned rate (§4's proactive-rejection
    /// knob). Counted against the tenant's `max_rejected_frac`; the client
    /// should back off rather than retry immediately.
    AdmissionRejected {
        /// Database whose admission gate shed the transaction.
        db: String,
    },
    /// This cluster has been fenced by a cross-colo failover: a standby was
    /// promoted at `epoch`, which is newer than this cluster's write
    /// authority, so every write here is rejected (the split-brain guard of
    /// the georep promotion protocol). Not retryable against this cluster —
    /// the client must reconnect to the promoted colo.
    Fenced {
        /// The fencing epoch that superseded this cluster's authority.
        epoch: u64,
    },
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::Sql(e) => write!(f, "{e}"),
            ClusterError::NoSuchDatabase(db) => write!(f, "no such database: {db}"),
            ClusterError::NoReplicas(db) => write!(f, "no live replicas for database: {db}"),
            ClusterError::NoMachines => f.write_str("no machines available"),
            ClusterError::WriteRejected { db, table } => {
                write!(f, "write to {db}.{table} rejected: table is being copied")
            }
            ClusterError::TxnAborted(a) => write!(f, "transaction aborted: {}", a.message),
            ClusterError::NoActiveTxn => f.write_str("no active transaction"),
            ClusterError::AlreadyExists(db) => write!(f, "database already exists: {db}"),
            ClusterError::NotLeader { hint: Some(h) } => {
                write!(f, "not the controller leader (try controller {h})")
            }
            ClusterError::NotLeader { hint: None } => {
                f.write_str("not the controller leader (no leader elected)")
            }
            ClusterError::InDoubt(why) => {
                write!(f, "transaction outcome unknown: {why}")
            }
            ClusterError::AdmissionRejected { db } => {
                write!(
                    f,
                    "admission rejected for {db}: tenant over provisioned SLA rate"
                )
            }
            ClusterError::Fenced { epoch } => {
                write!(
                    f,
                    "cluster fenced: a standby colo was promoted at epoch {epoch}"
                )
            }
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<SqlError> for ClusterError {
    fn from(e: SqlError) -> Self {
        ClusterError::Sql(e)
    }
}

impl From<StorageError> for ClusterError {
    fn from(e: StorageError) -> Self {
        ClusterError::Sql(SqlError::Storage(e))
    }
}

impl ClusterError {
    /// An abort that is no refusal: a protocol error, a lost connection.
    pub fn aborted(message: impl Into<String>) -> Self {
        ClusterError::TxnAborted(Aborted {
            cause: None,
            message: message.into(),
        })
    }

    /// The one classifier of a failed transaction: why the platform
    /// refused it, or `None` for an error that is no refusal.
    pub fn refusal(&self) -> Option<Refusal> {
        use StorageError::{Deadlock, LockTimeout, Unavailable};
        match self {
            ClusterError::Sql(SqlError::Storage(Deadlock(_))) => Some(Refusal::Deadlock),
            ClusterError::Sql(SqlError::Storage(LockTimeout(_))) => Some(Refusal::LockTimeout),
            ClusterError::Sql(SqlError::Storage(Unavailable)) | ClusterError::NoReplicas(_) => {
                Some(Refusal::NoReplica)
            }
            ClusterError::WriteRejected { .. } => Some(Refusal::CopyInProgress),
            ClusterError::AdmissionRejected { .. } => Some(Refusal::AdmissionShed),
            ClusterError::NotLeader { .. } => Some(Refusal::NotLeader),
            ClusterError::InDoubt(_) => Some(Refusal::InDoubt),
            ClusterError::Fenced { .. } => Some(Refusal::Fenced),
            ClusterError::TxnAborted(a) => a.cause,
            ClusterError::Sql(_)
            | ClusterError::NoSuchDatabase(_)
            | ClusterError::NoMachines
            | ClusterError::NoActiveTxn
            | ClusterError::AlreadyExists(_) => None,
        }
    }

    /// The `tenantdb_txn_outcomes_total` label this failure counts under.
    pub fn outcome(&self) -> Outcome {
        use Refusal::*;
        match self.refusal() {
            Some(Deadlock | LockTimeout) => Outcome::Deadlock,
            Some(CopyInProgress | AdmissionShed | NoReplica) => Outcome::Rejected,
            Some(NotLeader | InDoubt | Fenced) | None => Outcome::Aborted,
        }
    }

    /// Was the transaction a deadlock victim?
    pub fn is_deadlock(&self) -> bool {
        self.refusal() == Some(Refusal::Deadlock)
    }

    /// Did a lock wait time out?
    pub fn is_timeout(&self) -> bool {
        self.refusal() == Some(Refusal::LockTimeout)
    }

    /// Counted as a *proactive rejection* in the §4.1 SLA model.
    pub fn is_proactive_rejection(&self) -> bool {
        self.outcome() == Outcome::Rejected
    }

    /// Was this a controller-leadership redirect (retryable after the
    /// controller group re-elects)?
    pub fn is_not_leader(&self) -> bool {
        matches!(self, ClusterError::NotLeader { .. })
    }

    /// Was this write rejected because a newer colo holds the fencing
    /// epoch? Not retryable against this cluster.
    pub fn is_fenced(&self) -> bool {
        matches!(self, ClusterError::Fenced { .. })
    }
}

/// Shorthand for results carrying a [`ClusterError`].
pub type Result<T> = std::result::Result<T, ClusterError>;

#[cfg(test)]
mod tests {
    use super::*;
    use tenantdb_storage::TxnId;

    /// `pattern => value, refusal;` rows. The patterns also form a `match`
    /// with no wildcard arm, so a variant without a row does not compile,
    /// and each value is held to the pattern beside it.
    macro_rules! refusal_table {
        ($ty:ty { $($pat:pat => $val:expr, $want:expr;)* }) => {{
            let _exhaustive = |v: &$ty| match v {
                $($pat => (),)*
            };
            vec![$({
                let v: $ty = $val;
                assert!(matches!(v, $pat), "{v:?} is not its row's variant");
                (v, $want)
            }),*]
        }};
    }

    #[test]
    fn classification() {
        let (t, s) = (TxnId(1), String::new);
        let storage = refusal_table!(StorageError {
            StorageError::NoSuchDatabase(_) => StorageError::NoSuchDatabase(s()), None;
            StorageError::NoSuchTable(_) => StorageError::NoSuchTable(s()), None;
            StorageError::NoSuchIndex(_) => StorageError::NoSuchIndex(s()), None;
            StorageError::AlreadyExists(_) => StorageError::AlreadyExists(s()), None;
            StorageError::NoSuchTxn(_) => StorageError::NoSuchTxn(t), None;
            StorageError::InvalidTxnState { .. } =>
                StorageError::InvalidTxnState { txn: t, state: "active" }, None;
            StorageError::Deadlock(_) => StorageError::Deadlock(t), Some(Refusal::Deadlock);
            StorageError::LockTimeout(_) => StorageError::LockTimeout(t), Some(Refusal::LockTimeout);
            StorageError::Unavailable => StorageError::Unavailable, Some(Refusal::NoReplica);
            StorageError::UniqueViolation { .. } =>
                StorageError::UniqueViolation { table: s(), index: s() }, None;
            StorageError::SchemaMismatch(_) => StorageError::SchemaMismatch(s()), None;
            StorageError::NoSuchRow(_) => StorageError::NoSuchRow(1), None;
        });
        for (e, want) in storage {
            assert_eq!(ClusterError::from(e.clone()).refusal(), want, "{e:?}");
        }

        let cluster = refusal_table!(ClusterError {
            ClusterError::Sql(_) => ClusterError::Sql(SqlError::Parse(s())), None;
            ClusterError::NoSuchDatabase(_) => ClusterError::NoSuchDatabase(s()), None;
            ClusterError::NoReplicas(_) => ClusterError::NoReplicas(s()), Some(Refusal::NoReplica);
            ClusterError::NoMachines => ClusterError::NoMachines, None;
            ClusterError::WriteRejected { .. } =>
                ClusterError::WriteRejected { db: s(), table: s() }, Some(Refusal::CopyInProgress);
            ClusterError::TxnAborted(Aborted { cause: None, .. }) =>
                ClusterError::aborted("network: io error: Resource temporarily unavailable"), None;
            ClusterError::TxnAborted(Aborted { cause: Some(_), .. }) =>
                ClusterError::TxnAborted(Aborted { cause: Some(Refusal::LockTimeout), message: s() }),
                Some(Refusal::LockTimeout);
            ClusterError::NoActiveTxn => ClusterError::NoActiveTxn, None;
            ClusterError::AlreadyExists(_) => ClusterError::AlreadyExists(s()), None;
            ClusterError::NotLeader { .. } =>
                ClusterError::NotLeader { hint: None }, Some(Refusal::NotLeader);
            ClusterError::InDoubt(_) => ClusterError::InDoubt(s()), Some(Refusal::InDoubt);
            ClusterError::AdmissionRejected { .. } =>
                ClusterError::AdmissionRejected { db: s() }, Some(Refusal::AdmissionShed);
            ClusterError::Fenced { .. } => ClusterError::Fenced { epoch: 1 }, Some(Refusal::Fenced);
        });
        for (e, want) in cluster {
            assert_eq!(e.refusal(), want, "{e:?}");
        }
    }

    #[test]
    fn display() {
        let rej = ClusterError::WriteRejected {
            db: "app".into(),
            table: "items".into(),
        };
        assert_eq!(
            rej.to_string(),
            "write to app.items rejected: table is being copied"
        );
    }
}
