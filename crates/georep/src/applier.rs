//! The standby-side applier: replays one database's shipped WAL records
//! into the standby cluster.
//!
//! Records arrive in source-LSN order but *transactions* are only safe to
//! materialize once decided, so the applier buffers each transaction's
//! redo until its `Commit` (apply) or `Abort` (drop) marker arrives. DDL
//! records (under `Wal::DDL_TXN`) were auto-committed on the primary and
//! apply immediately. No record names its database: each is applied to
//! this applier's, through [`tenantdb_storage::Engine::apply_replicated_redo`]
//! on **every** alive replica of it on the standby cluster — the stream
//! replays the primary's serialization, the standby's own write-all
//! replication shape is preserved.
//!
//! ## The ack watermark
//!
//! The cumulative ack ([`Applier::resume_lsn`]) is *one past the highest
//! LSN that is safe for the shipper never to resend*: it holds at the
//! first record of the oldest still-undecided transaction, because those
//! buffered records live only in memory. After a disconnect the shipper
//! rewinds here, which may resend records the applier already processed —
//! [`Applier::ingest`] drops everything below its high-water mark, and
//! the apply path itself is idempotent, so at-least-once delivery is
//! harmless. The high-water mark passes a record only once it applied: a
//! record whose apply failed is ingested again when it is re-shipped.
//!
//! ## Fencing
//!
//! Every handshake and every batch restates the sender's epoch. The
//! applier compares it against the standby cluster's replicated fencing
//! epoch ([`ClusterController::geo_epoch`]) and kills the stream with
//! [`GeoError::Fenced`] the moment the sender is stale — a promotion
//! fences mid-stream, not just at the next handshake.

use std::collections::BTreeMap;
use std::sync::Arc;

use tenantdb_cluster::fault::{CrashPoint, FaultAction, GEO};
use tenantdb_cluster::{ClusterController, ClusterError, MachineId};
use tenantdb_storage::{LogRecord, Lsn, RedoOp, TxnId, Wal, WalEntry};

use crate::metrics::{ApplierSeries, GeoMetrics};
use crate::GeoError;

/// One buffered, not-yet-decided transaction.
#[derive(Debug)]
struct PendingTxn {
    /// Source LSN of the transaction's first buffered record — the ack
    /// watermark holds here until the decision arrives.
    first_lsn: Lsn,
    /// A `Prepare` marker arrived: the transaction voted in 2PC and is
    /// *in doubt* if the stream dies before its decision ships.
    prepared: bool,
    ops: Vec<RedoOp>,
}

/// An applier as the stream server, its links and promotion share it.
/// `e2e` spells this type, so its lock stays the unranked one.
pub type SharedApplier = Arc<parking_lot::Mutex<Applier>>; // lint:allow(raw-lock): `e2e` names it

/// Replays one database's shipped records into the standby cluster.
pub struct Applier {
    db: String,
    standby: Arc<ClusterController>,
    /// Replica count used when the shipped `CreateDatabase` places the
    /// database on the standby cluster.
    replicas: usize,
    /// The source engine this stream is pinned to (from the handshake).
    /// Shipped LSNs and txn ids are local to it; a new source re-seeds.
    source: Option<MachineId>,
    pending: BTreeMap<TxnId, PendingTxn>,
    /// One past the highest source LSN ingested (the dedupe high-water).
    high_seen: Lsn,
    series: ApplierSeries,
}

impl Applier {
    /// A fresh applier for `db` on `standby`. `replicas` is the placement
    /// width used when the shipped `CreateDatabase` arrives.
    pub fn new(
        standby: Arc<ClusterController>,
        db: &str,
        replicas: usize,
        metrics: GeoMetrics,
    ) -> Self {
        Applier {
            db: db.to_string(),
            standby,
            replicas: replicas.max(1),
            source: None,
            pending: BTreeMap::new(),
            high_seen: Lsn::ZERO,
            series: metrics.applier(db),
        }
    }

    /// [`Self::new`], shared: the one constructor of a [`SharedApplier`].
    pub fn shared(
        standby: Arc<ClusterController>,
        db: &str,
        replicas: usize,
        metrics: GeoMetrics,
    ) -> SharedApplier {
        let applier = Applier::new(standby, db, replicas, metrics);
        Arc::new(parking_lot::Mutex::new(applier)) // lint:allow(raw-lock): the lock `SharedApplier` names
    }

    /// The database this applier replays.
    pub fn db(&self) -> &str {
        &self.db
    }

    /// The pinned source engine, once a handshake happened.
    pub fn source(&self) -> Option<MachineId> {
        self.source
    }

    /// The cumulative ack: one past the highest source LSN the shipper
    /// never needs to resend. Holds at the oldest undecided transaction's
    /// first record (see module docs).
    pub fn resume_lsn(&self) -> Lsn {
        self.pending
            .values()
            .map(|p| p.first_lsn)
            .min()
            .unwrap_or(self.high_seen)
    }

    /// Source transaction ids that prepared but never learned a decision —
    /// the in-doubt set promotion must reconcile.
    pub fn in_doubt(&self) -> Vec<TxnId> {
        self.pending
            .iter()
            .filter(|(_, p)| p.prepared)
            .map(|(t, _)| *t)
            .collect()
    }

    /// Open (or re-open) the stream: validate the sender's epoch, reset
    /// state if the stream re-seeded onto a different source engine, and
    /// return the LSN the shipper must resume from.
    pub fn handshake(&mut self, source: MachineId, epoch: u64) -> Result<Lsn, GeoError> {
        self.fence_check(epoch)?;
        if self.source != Some(source) {
            // New LSN space and new local txn ids: replay from zero. A
            // repeated op replays idempotently, but this converges only if
            // the standby's state is a prefix of the new source's log.
            self.source = Some(source);
            self.pending.clear();
            self.high_seen = Lsn::ZERO;
        }
        Ok(self.resume_lsn())
    }

    /// Ingest one shipped batch and return the new cumulative ack.
    ///
    /// Hook site for [`CrashPoint::GeoApplyBatch`] (machine [`GEO`]): a
    /// `Crash` drops the batch before anything is applied — the ack never
    /// goes out, the shipper re-ships from the previous watermark, and the
    /// high-water dedupe absorbs the overlap.
    pub fn ingest(&mut self, epoch: u64, records: &[LogRecord]) -> Result<Lsn, GeoError> {
        self.fence_check(epoch)?;
        match self.standby.faults().check(CrashPoint::GeoApplyBatch, GEO) {
            Some(FaultAction::Crash) => {
                return Err(GeoError::Severed("geo_apply_batch crash point".into()));
            }
            Some(FaultAction::Delay(d)) => std::thread::sleep(d),
            None => {}
        }
        let mut ingested = 0u64;
        let mut committed = 0u64;
        for rec in records {
            if rec.lsn < self.high_seen {
                continue; // re-shipped after a lost ack — already processed
            }
            match &rec.entry {
                WalEntry::Redo(op) if rec.txn == Wal::DDL_TXN => self.apply_ddl(op)?,
                WalEntry::Redo(op) => {
                    self.pending
                        .entry(rec.txn)
                        .or_insert_with(|| PendingTxn {
                            first_lsn: rec.lsn,
                            prepared: false,
                            ops: Vec::new(),
                        })
                        .ops
                        .push(op.clone());
                }
                WalEntry::Prepare => {
                    self.pending
                        .entry(rec.txn)
                        .or_insert_with(|| PendingTxn {
                            first_lsn: rec.lsn,
                            prepared: false,
                            ops: Vec::new(),
                        })
                        .prepared = true;
                }
                WalEntry::Commit => {
                    if let Some(p) = self.pending.get(&rec.txn) {
                        for op in &p.ops {
                            self.apply_op(op)?;
                        }
                        // Only now: a commit that failed part-way stays
                        // pending, and its re-shipped marker applies it
                        // again (every op replays idempotently).
                        self.pending.remove(&rec.txn);
                        committed += 1;
                    }
                }
                WalEntry::Abort => {
                    self.pending.remove(&rec.txn);
                }
            }
            // Past the record only once it applied: a failed one is
            // re-shipped from the ack, and the dedupe must not skip it.
            self.high_seen = rec.lsn.next();
            ingested += 1;
        }
        let watermark = self.resume_lsn();
        self.series.applied.add(ingested);
        self.series.txns.add(committed);
        self.series.applied_lsn.set(watermark.0 as i64);
        Ok(watermark)
    }

    /// Resolve every buffered transaction at promotion time: `commit`
    /// answers whether the old primary's replicated decision log holds a
    /// commit decision for `(source, txn)`. Committed transactions are
    /// applied; the rest are presumed aborted (they never got a decision
    /// the client could have observed). Returns `(committed, aborted)`.
    pub fn reconcile_in_doubt(
        &mut self,
        commit: &dyn Fn(MachineId, TxnId) -> bool,
    ) -> Result<(Vec<TxnId>, Vec<TxnId>), GeoError> {
        let source = match self.source {
            Some(s) => s,
            None => return Ok((Vec::new(), Vec::new())),
        };
        let mut committed = Vec::new();
        let mut aborted = Vec::new();
        let drained = std::mem::take(&mut self.pending);
        for (txn, p) in drained {
            if commit(source, txn) {
                for op in &p.ops {
                    self.apply_op(op)?;
                }
                committed.push(txn);
            } else {
                aborted.push(txn);
            }
        }
        Ok((committed, aborted))
    }

    /// Stale-epoch guard shared by the handshake and every batch.
    fn fence_check(&self, epoch: u64) -> Result<(), GeoError> {
        let known = self.standby.geo_epoch();
        if epoch < known {
            self.series.fenced.inc();
            return Err(GeoError::Fenced { epoch: known });
        }
        Ok(())
    }

    /// Apply an auto-committed DDL record. `CreateDatabase` and
    /// `DropDatabase` go through the standby *controller* so its placement
    /// map stays correct (SQL must route after promotion); everything else
    /// replays on each replica engine.
    fn apply_ddl(&self, op: &RedoOp) -> Result<(), GeoError> {
        match op {
            RedoOp::CreateDatabase => match self.standby.create_database(&self.db, self.replicas) {
                // Re-shipped after a re-seed: already placed.
                Ok(_) | Err(ClusterError::AlreadyExists(_)) => Ok(()),
                Err(e) => Err(GeoError::Cluster(e)),
            },
            RedoOp::DropDatabase => match self.standby.drop_database(&self.db) {
                Ok(()) | Err(ClusterError::NoSuchDatabase(_)) => Ok(()),
                Err(e) => Err(GeoError::Cluster(e)),
            },
            _ => self.apply_op(op),
        }
    }

    /// Replay one decided redo operation on every alive replica of the
    /// database on the standby cluster.
    fn apply_op(&self, op: &RedoOp) -> Result<(), GeoError> {
        for id in self.standby.alive_replicas(&self.db)? {
            self.standby
                .machine(id)?
                .engine
                .apply_replicated_redo(&self.db, op)
                .map_err(|e| GeoError::Protocol(format!("standby replay failed: {e}")))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tenantdb_cluster::controller::ClusterConfig;
    use tenantdb_obs::MetricsRegistry;
    use tenantdb_storage::Value;

    fn metrics() -> GeoMetrics {
        GeoMetrics::new(Arc::new(MetricsRegistry::new()))
    }

    fn schema() -> tenantdb_storage::TableSchema {
        tenantdb_storage::TableSchema::new(
            "t",
            vec![
                tenantdb_storage::ColumnDef::new("id", tenantdb_storage::DataType::Int).not_null(),
                tenantdb_storage::ColumnDef::new("v", tenantdb_storage::DataType::Text),
            ],
        )
        .with_primary_key(&["id"])
    }

    fn rec(lsn: u64, txn: u64, entry: WalEntry) -> LogRecord {
        LogRecord {
            lsn: Lsn(lsn),
            txn: TxnId(txn),
            entry,
        }
    }

    fn ddl(lsn: u64, op: RedoOp) -> LogRecord {
        rec(lsn, Wal::DDL_TXN.0, WalEntry::Redo(op))
    }

    fn insert(lsn: u64, txn: u64, id: i64) -> LogRecord {
        rec(
            lsn,
            txn,
            WalEntry::Redo(RedoOp::Insert {
                table: "t".into(),
                row_id: id as u64,
                row: vec![Value::Int(id), Value::Text(format!("v{id}"))],
            }),
        )
    }

    fn standby() -> Arc<ClusterController> {
        ClusterController::with_machines(ClusterConfig::for_tests(), 2)
    }

    fn count(c: &Arc<ClusterController>) -> i64 {
        let conn = c.connect("app").unwrap();
        match conn.execute("SELECT COUNT(*) FROM t", &[]).unwrap().rows[0][0] {
            Value::Int(n) => n,
            ref v => panic!("unexpected {v:?}"),
        }
    }

    #[test]
    fn buffers_until_decision_and_holds_the_watermark() {
        let c = standby();
        let mut a = Applier::new(Arc::clone(&c), "app", 2, metrics());
        assert_eq!(a.handshake(MachineId(0), 0).unwrap(), Lsn::ZERO);

        let setup = vec![
            ddl(0, RedoOp::CreateDatabase),
            ddl(
                1,
                RedoOp::CreateTable {
                    schema: Box::new(schema()),
                },
            ),
        ];
        assert_eq!(a.ingest(0, &setup).unwrap(), Lsn(2));

        // Txn 7 stays undecided: the watermark holds at its first record.
        let batch = vec![
            insert(2, 7, 1),
            insert(3, 8, 2),
            rec(4, 8, WalEntry::Commit),
        ];
        assert_eq!(a.ingest(0, &batch).unwrap(), Lsn(2));
        assert_eq!(count(&c), 1, "only txn 8 is decided");

        // Re-ship from the watermark (ack was lost): dedupe absorbs the
        // overlap, then txn 7's decision releases the watermark.
        let reship = vec![insert(2, 7, 1), rec(5, 7, WalEntry::Prepare)];
        assert_eq!(a.ingest(0, &reship).unwrap(), Lsn(2));
        assert_eq!(a.in_doubt(), vec![TxnId(7)]);
        assert_eq!(a.ingest(0, &[rec(6, 7, WalEntry::Commit)]).unwrap(), Lsn(7));
        assert_eq!(count(&c), 2);
        assert!(a.in_doubt().is_empty());

        // Aborted txns leave nothing behind.
        let aborted = vec![insert(7, 9, 3), rec(8, 9, WalEntry::Abort)];
        assert_eq!(a.ingest(0, &aborted).unwrap(), Lsn(9));
        assert_eq!(count(&c), 2);

        // Every alive replica replayed the stream.
        for id in c.alive_replicas("app").unwrap() {
            let names = c.machine(id).unwrap().engine.database_names();
            assert!(names.contains(&"app".to_string()), "{id} missing app");
        }
    }

    /// `db`'s rows of table `t` on each of its replicas on `c`.
    fn replica_rows(c: &Arc<ClusterController>, db: &str) -> Vec<Vec<Vec<Value>>> {
        let replicas = c.alive_replicas(db).unwrap();
        let scan = |id| {
            let engine = &c.machine(id).unwrap().engine;
            let rows = engine.with_txn(|t| engine.scan(t, db, "t")).unwrap();
            rows.into_iter().map(|(_, row)| row).collect()
        };
        replicas.into_iter().map(scan).collect()
    }

    /// A stream writes only the database its applier was made for: `other`
    /// lives on the same standby machines with a table of the same name,
    /// and `app`'s inserts, update, delete and index build leave it as it
    /// was.
    #[test]
    fn a_stream_writes_only_its_own_database() {
        let c = standby();
        c.create_database("other", 2).unwrap();
        c.ddl(
            "other",
            "CREATE TABLE t (id INT NOT NULL, v TEXT, PRIMARY KEY (id))",
        )
        .unwrap();
        let conn = c.connect("other").unwrap();
        for id in 0..4 {
            let insert = format!("INSERT INTO t VALUES ({id}, 'other')");
            conn.execute(&insert, &[]).unwrap();
        }
        let before = replica_rows(&c, "other");
        assert_eq!(before.len(), 2);

        let mut a = Applier::new(Arc::clone(&c), "app", 2, metrics());
        a.handshake(MachineId(0), 0).unwrap();
        let row = |id: i64, v: &str| vec![Value::Int(id), Value::Text(v.into())];
        let stream = vec![
            ddl(0, RedoOp::CreateDatabase),
            ddl(
                1,
                RedoOp::CreateTable {
                    schema: Box::new(schema()),
                },
            ),
            insert(2, 7, 1),
            insert(3, 7, 2),
            rec(
                4,
                7,
                WalEntry::Redo(RedoOp::Update {
                    table: "t".into(),
                    row_id: 1,
                    row: row(1, "new"),
                }),
            ),
            rec(
                5,
                7,
                WalEntry::Redo(RedoOp::Delete {
                    table: "t".into(),
                    row_id: 2,
                }),
            ),
            rec(6, 7, WalEntry::Commit),
            ddl(
                7,
                RedoOp::CreateIndex {
                    table: "t".into(),
                    index: "by_v".into(),
                    columns: ["v".to_string()].into(),
                    unique: false,
                },
            ),
            insert(8, 8, 3),
            rec(9, 8, WalEntry::Commit),
        ];
        assert_eq!(a.ingest(0, &stream).unwrap(), Lsn(10));
        let app = vec![row(1, "new"), row(3, "v3")];
        assert_eq!(replica_rows(&c, "app"), [app.clone(), app]);
        assert_eq!(replica_rows(&c, "other"), before);
        for id in c.alive_replicas("other").unwrap() {
            let t = c.machine(id).unwrap().engine.table("other", "t").unwrap();
            assert_eq!(t.schema.indexes.len(), 1, "other's t gained an index");
        }
    }

    /// A record whose apply fails is not acknowledged: re-ingesting the
    /// same batch applies it. First the shipped `CreateDatabase` finds too
    /// few standby machines, then a replica that lost the database refuses
    /// a commit.
    #[test]
    fn a_failed_apply_is_retried_not_skipped() {
        let c = standby();
        let mut a = Applier::new(Arc::clone(&c), "app", 2, metrics());
        a.handshake(MachineId(0), 0).unwrap();
        let create_table = RedoOp::CreateTable {
            schema: Box::new(schema()),
        };
        let setup = [ddl(0, RedoOp::CreateDatabase), ddl(1, create_table.clone())];
        c.fail_machine(MachineId(1)).unwrap();
        assert!(matches!(
            a.ingest(0, &setup),
            Err(GeoError::Cluster(ClusterError::NoMachines))
        ));
        assert_eq!(
            a.resume_lsn(),
            Lsn::ZERO,
            "the watermark passed a failed record"
        );
        c.restart_machine(MachineId(1)).unwrap();
        assert_eq!(a.ingest(0, &setup).unwrap(), Lsn(2));

        let m1 = c.machine(MachineId(1)).unwrap();
        m1.engine.drop_database("app").unwrap();
        let txn = [insert(2, 7, 1), rec(3, 7, WalEntry::Commit)];
        assert!(matches!(a.ingest(0, &txn), Err(GeoError::Protocol(_))));
        assert_eq!(
            a.resume_lsn(),
            Lsn(2),
            "the watermark passed a failed commit"
        );
        for op in [RedoOp::CreateDatabase, create_table] {
            m1.engine.apply_replicated_redo("app", &op).unwrap();
        }
        assert_eq!(a.ingest(0, &txn).unwrap(), Lsn(4));
        let row = vec![vec![Value::Int(1), Value::Text("v1".into())]];
        assert_eq!(replica_rows(&c, "app"), [row.clone(), row]);
    }

    #[test]
    fn stale_epoch_is_fenced_and_new_source_reseeds() {
        let c = standby();
        let mut a = Applier::new(Arc::clone(&c), "app", 2, metrics());
        a.handshake(MachineId(0), 0).unwrap();
        a.ingest(0, &[ddl(0, RedoOp::CreateDatabase)]).unwrap();
        assert_eq!(a.resume_lsn(), Lsn(1));

        // This colo promotes at epoch 3: the old stream is now stale.
        c.assume_geo_epoch(3).unwrap();
        assert!(matches!(
            a.ingest(0, &[ddl(1, RedoOp::CreateDatabase)]),
            Err(GeoError::Fenced { epoch: 3 })
        ));
        assert!(matches!(
            a.handshake(MachineId(0), 2),
            Err(GeoError::Fenced { epoch: 3 })
        ));

        // A shipper with authority (failback) re-seeds from a new source:
        // state resets to zero.
        assert_eq!(a.handshake(MachineId(1), 3).unwrap(), Lsn::ZERO);
        assert_eq!(a.source(), Some(MachineId(1)));
    }

    #[test]
    fn reconcile_applies_logged_decisions_and_presumes_abort() {
        let c = standby();
        let mut a = Applier::new(Arc::clone(&c), "app", 2, metrics());
        a.handshake(MachineId(4), 0).unwrap();
        let setup = vec![
            ddl(0, RedoOp::CreateDatabase),
            ddl(
                1,
                RedoOp::CreateTable {
                    schema: Box::new(schema()),
                },
            ),
        ];
        a.ingest(0, &setup).unwrap();
        let batch = vec![
            insert(2, 7, 1),
            rec(3, 7, WalEntry::Prepare),
            insert(4, 9, 2),
            rec(5, 9, WalEntry::Prepare),
        ];
        a.ingest(0, &batch).unwrap();
        assert_eq!(a.in_doubt().len(), 2);

        // The decision log only knows txn 7 committed (on source m4).
        let (committed, aborted) = a
            .reconcile_in_doubt(&|m, t| m == MachineId(4) && t == TxnId(7))
            .unwrap();
        assert_eq!(committed, vec![TxnId(7)]);
        assert_eq!(aborted, vec![TxnId(9)]);
        assert_eq!(count(&c), 1);
        assert!(a.in_doubt().is_empty());
    }
}
