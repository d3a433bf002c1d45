//! The primary-side shipper: tails one engine's WAL and turns it into a
//! per-database record stream.
//!
//! A shipper is **pinned** to one replica of its database on the primary
//! cluster — LSNs and transaction ids are engine-local (each engine's WAL
//! interleaves every database it hosts), so the stream's cursor is only
//! meaningful against that one engine. The pinned engine's WAL is tailed
//! through the stable surface (`Engine::wal_tail_from_capped`); records are
//! filtered down to the stream's database:
//!
//! * redo records name their database directly and teach the shipper which
//!   transactions belong to the stream;
//! * `Prepare`/`Commit`/`Abort` markers carry only a transaction id and
//!   ship iff that transaction previously wrote the stream's database;
//! * DDL records (under `Wal::DDL_TXN`) ship whenever they name the
//!   database — the standby applies them immediately.
//!
//! If the pinned replica dies the shipper re-pins to another alive replica
//! — but the new engine has a different LSN space and different local
//! transaction ids, so the stream **re-seeds**: the cursor rewinds to zero
//! and the standby resets its applier state on seeing the new `source` in
//! the handshake. Replaying a repeated op is idempotent
//! ([`tenantdb_storage::Engine::apply_replicated_redo`]), so a re-seed
//! converges when the standby's state is a prefix of the new source's log.
//! When it is not — the new source is a copied replica, whose log is a
//! snapshot followed by a tail, and the standby lagged — it does not, and
//! nothing here prevents that yet.

use std::collections::HashSet;
use std::sync::Arc;

use tenantdb_cluster::fault::{CrashPoint, FaultAction, GEO};
use tenantdb_cluster::{ClusterController, MachineId};
use tenantdb_storage::{LogRecord, Lsn, RedoOp, TxnId, Wal, WalEntry};

use crate::metrics::GeoMetrics;
use crate::GeoError;

/// Default maximum records per [`Frame::GeoRecords`] batch.
///
/// [`Frame::GeoRecords`]: tenantdb_net::wire::Frame::GeoRecords
pub const DEFAULT_BATCH: usize = 256;

/// Tails the pinned primary engine and produces filtered, batched record
/// runs for one database's cross-colo stream.
pub struct Shipper {
    db: String,
    primary: Arc<ClusterController>,
    pin: MachineId,
    cursor: Lsn,
    /// Transactions known (from their redo records) to write this stream's
    /// database — the filter for bare `Prepare`/`Commit`/`Abort` markers.
    ours: HashSet<TxnId>,
    batch: usize,
    metrics: GeoMetrics,
}

impl Shipper {
    /// Pin a new stream for `db` to the first alive replica on `primary`.
    pub fn new(
        primary: Arc<ClusterController>,
        db: &str,
        metrics: GeoMetrics,
    ) -> Result<Self, GeoError> {
        let pin = first_alive(&primary, db)?;
        Ok(Shipper {
            db: db.to_string(),
            primary,
            pin,
            cursor: Lsn::ZERO,
            ours: HashSet::new(),
            batch: DEFAULT_BATCH,
            metrics,
        })
    }

    /// The database this stream carries.
    pub fn db(&self) -> &str {
        &self.db
    }

    /// The primary cluster this shipper reads from.
    pub fn primary(&self) -> &Arc<ClusterController> {
        &self.primary
    }

    /// The shipper's write-authority epoch, restated on every batch. This
    /// is the primary cluster's *own* authority — a promotion elsewhere
    /// raises the standby's known epoch past it, and the very next batch
    /// is fenced.
    pub fn epoch(&self) -> u64 {
        self.primary.geo_write_epoch()
    }

    /// The currently pinned source replica, re-pinning (and re-seeding the
    /// stream) if the pinned machine is down. Callers must re-handshake
    /// whenever the returned pin differs from the one they pinned at
    /// handshake time.
    pub fn pin(&mut self) -> Result<MachineId, GeoError> {
        let alive = self
            .primary
            .machine(self.pin)
            .map(|m| !m.is_failed())
            .unwrap_or(false);
        if !alive {
            let next = first_alive(&self.primary, &self.db)?;
            // New engine, new LSN space, new local txn ids: re-seed.
            self.pin = next;
            self.cursor = Lsn::ZERO;
            self.ours.clear();
        }
        Ok(self.pin)
    }

    /// Next LSN the shipper will scan.
    pub fn cursor(&self) -> Lsn {
        self.cursor
    }

    /// The currently pinned source replica, without the liveness re-check
    /// of [`Shipper::pin`] (status displays).
    pub fn source(&self) -> MachineId {
        self.pin
    }

    /// Rewind the scan cursor to `to` — the standby's resume point from a
    /// `GeoHelloOk`. The transaction filter is rebuilt by the re-scan: any
    /// transaction still undecided on the standby has its first record at
    /// or above the resume watermark, so its redo is scanned again.
    pub fn rewind(&mut self, to: Lsn) {
        self.cursor = to;
        self.ours.clear();
    }

    /// WAL head of the pinned source engine (the lag reference point).
    pub fn head_lsn(&self) -> Result<Lsn, GeoError> {
        Ok(self.primary.machine(self.pin)?.engine.wal_head_lsn())
    }

    /// Record the standby's cumulative ack into the lag gauges.
    pub fn note_acked(&self, acked: Lsn) -> Result<(), GeoError> {
        let head = self.head_lsn()?;
        let lag = head.0.saturating_sub(acked.0);
        self.metrics.note_acked(&self.db, acked.0, lag);
        Ok(())
    }

    /// Produce the next batch of records for this stream, advancing the
    /// cursor past everything scanned (shipped or filtered). An empty
    /// result means the stream is drained to the source's WAL head.
    ///
    /// Hook site for [`CrashPoint::GeoShipBatch`] (machine [`GEO`]): a
    /// `Crash` severs the stream before the batch leaves — the caller must
    /// drop the connection and resume from the standby's cumulative ack.
    pub fn next_batch(&mut self) -> Result<Vec<LogRecord>, GeoError> {
        let engine = Arc::clone(&self.primary.machine(self.pin)?.engine);
        if engine.is_failed() {
            return Err(GeoError::Severed("pinned source replica is down".into()));
        }
        let mut out = Vec::new();
        // Page the scan through the capped tail: filtered-out records
        // (other databases' traffic) don't count against the batch, so a
        // sparse stream keeps scanning until it fills or drains — but each
        // page clones at most one batch worth of records.
        'scan: loop {
            let page = engine.wal_tail_from_capped(self.cursor, self.batch);
            if page.is_empty() {
                break;
            }
            for rec in page {
                self.cursor = rec.lsn.next();
                if self.ships(&rec) {
                    out.push(rec);
                }
                if out.len() >= self.batch {
                    break 'scan;
                }
            }
        }
        if !out.is_empty() {
            match self.primary.faults().check(CrashPoint::GeoShipBatch, GEO) {
                Some(FaultAction::Crash) => {
                    return Err(GeoError::Severed("geo_ship_batch crash point".into()));
                }
                Some(FaultAction::Delay(d)) => std::thread::sleep(d),
                None => {}
            }
            self.metrics
                .note_shipped(&self.db, out.len() as u64, self.cursor.0);
        }
        Ok(out)
    }

    /// Does `rec` belong on this stream? Maintains the txn→db filter.
    fn ships(&mut self, rec: &LogRecord) -> bool {
        match &rec.entry {
            WalEntry::Redo(op) => {
                let ours = op_db(op) == self.db;
                if ours && rec.txn != Wal::DDL_TXN {
                    self.ours.insert(rec.txn);
                }
                ours
            }
            WalEntry::Prepare => self.ours.contains(&rec.txn),
            WalEntry::Commit | WalEntry::Abort => self.ours.remove(&rec.txn),
        }
    }
}

/// The database a redo operation belongs to.
fn op_db(op: &RedoOp) -> &str {
    match op {
        RedoOp::CreateDatabase { db }
        | RedoOp::DropDatabase { db }
        | RedoOp::CreateTable { db, .. }
        | RedoOp::CreateIndex { db, .. }
        | RedoOp::Insert { db, .. }
        | RedoOp::Update { db, .. }
        | RedoOp::Delete { db, .. } => db,
    }
}

/// First alive replica of `db` on `cluster` — the pin rule.
fn first_alive(cluster: &Arc<ClusterController>, db: &str) -> Result<MachineId, GeoError> {
    cluster
        .alive_replicas(db)?
        .first()
        .copied()
        .ok_or_else(|| GeoError::NoSource(db.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tenantdb_cluster::controller::ClusterConfig;
    use tenantdb_obs::MetricsRegistry;

    fn cluster_with(db: &str) -> Arc<ClusterController> {
        let c = ClusterController::with_machines(ClusterConfig::for_tests(), 2);
        c.create_database(db, 2).unwrap();
        c.ddl(
            db,
            "CREATE TABLE t (id INT NOT NULL, v TEXT, PRIMARY KEY (id))",
        )
        .unwrap();
        c
    }

    fn metrics() -> GeoMetrics {
        GeoMetrics::new(Arc::new(MetricsRegistry::new()))
    }

    #[test]
    fn filters_to_the_pinned_database_and_batches() {
        let c = cluster_with("app");
        c.create_database("other", 1).unwrap();
        c.ddl(
            "other",
            "CREATE TABLE o (id INT NOT NULL, PRIMARY KEY (id))",
        )
        .unwrap();
        let conn = c.connect("app").unwrap();
        conn.execute("INSERT INTO t VALUES (1, 'a')", &[]).unwrap();
        if let Ok(oc) = c.connect("other") {
            let _ = oc.execute("INSERT INTO o VALUES (1)", &[]);
        }

        let mut s = Shipper::new(Arc::clone(&c), "app", metrics()).unwrap();
        let mut got = Vec::new();
        loop {
            let batch = s.next_batch().unwrap();
            if batch.is_empty() {
                break;
            }
            got.extend(batch);
        }
        assert!(!got.is_empty());
        // Every shipped redo names "app"; markers only for app's txns.
        for rec in &got {
            if let WalEntry::Redo(op) = &rec.entry {
                assert_eq!(op_db(op), "app");
            }
        }
        // The insert's commit marker shipped (txn filter tracked it).
        assert!(got
            .iter()
            .any(|r| matches!(r.entry, WalEntry::Commit) && r.txn != Wal::DDL_TXN));
        // Drained: cursor reached the head.
        assert_eq!(s.cursor(), s.head_lsn().unwrap());
    }

    #[test]
    fn repins_and_reseeds_when_the_source_dies() {
        let c = cluster_with("app");
        let mut s = Shipper::new(Arc::clone(&c), "app", metrics()).unwrap();
        let first = s.pin().unwrap();
        while !s.next_batch().unwrap().is_empty() {}
        assert_ne!(s.cursor(), Lsn::ZERO);

        c.fail_machine(first).unwrap();
        let second = s.pin().unwrap();
        assert_ne!(first, second);
        assert_eq!(s.cursor(), Lsn::ZERO, "re-pin must re-seed the stream");

        // Both replicas down: no source left.
        c.fail_machine(second).unwrap();
        assert!(matches!(s.pin(), Err(GeoError::NoSource(_))));
    }
}
