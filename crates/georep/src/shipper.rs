//! The primary-side shipper: tails one database's log on one engine and
//! turns it into that database's record stream.
//!
//! A shipper is **pinned** to one replica of its database on the primary
//! cluster — LSNs and transaction ids are engine-local (each replica's log
//! of the database is its own), so the stream's cursor is only meaningful
//! against that one engine. The pinned engine's log of the database is
//! tailed through the stable surface (`Engine::wal_tail_from_capped`); it
//! holds the stream's records and nothing else, so every record scanned
//! ships.
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

use std::sync::Arc;

use tenantdb_cluster::fault::{CrashPoint, FaultAction, GEO};
use tenantdb_cluster::{ClusterController, MachineId};
use tenantdb_storage::{LogRecord, Lsn};

use crate::metrics::{GeoMetrics, ShipperSeries};
use crate::GeoError;

/// Default maximum records per [`Frame::GeoRecords`] batch.
///
/// [`Frame::GeoRecords`]: tenantdb_net::wire::Frame::GeoRecords
pub const DEFAULT_BATCH: usize = 256;

/// Tails one database's log on the pinned primary engine and produces
/// batched record runs for its cross-colo stream.
pub struct Shipper {
    db: String,
    primary: Arc<ClusterController>,
    pin: MachineId,
    cursor: Lsn,
    batch: usize,
    series: ShipperSeries,
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
            batch: DEFAULT_BATCH,
            series: metrics.shipper(db),
        })
    }

    /// The database this stream carries.
    pub fn db(&self) -> &str {
        &self.db
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
        }
        Ok(self.pin)
    }

    /// Next LSN the shipper will ship.
    pub fn cursor(&self) -> Lsn {
        self.cursor
    }

    /// The currently pinned source replica, without the liveness re-check
    /// of [`Shipper::pin`] (status displays).
    pub fn source(&self) -> MachineId {
        self.pin
    }

    /// Rewind the cursor to `to` — the standby's resume point from a
    /// `GeoHelloOk`.
    pub fn rewind(&mut self, to: Lsn) {
        self.cursor = to;
    }

    /// Head of the database's log on the pinned source engine (the lag
    /// reference point).
    pub fn head_lsn(&self) -> Result<Lsn, GeoError> {
        let source = self.primary.machine(self.pin)?;
        Ok(source.engine.wal_head_lsn(&self.db))
    }

    /// Record the standby's cumulative ack into the lag gauges.
    pub fn note_acked(&self, acked: Lsn) -> Result<(), GeoError> {
        let head = self.head_lsn()?;
        let lag = head.0.saturating_sub(acked.0);
        self.series.acked_lsn.set(acked.0 as i64);
        self.series.lag.set(lag as i64);
        Ok(())
    }

    /// Produce the next batch of records for this stream, advancing the
    /// cursor past them. An empty result means the stream is drained to
    /// the head of the database's log on the source.
    ///
    /// Hook site for [`CrashPoint::GeoShipBatch`] (machine [`GEO`]): a
    /// `Crash` severs the stream before the batch leaves — the caller must
    /// drop the connection and resume from the standby's cumulative ack.
    pub fn next_batch(&mut self) -> Result<Vec<LogRecord>, GeoError> {
        let engine = Arc::clone(&self.primary.machine(self.pin)?.engine);
        if engine.is_failed() {
            return Err(GeoError::Severed("pinned source replica is down".into()));
        }
        let out = engine.wal_tail_from_capped(&self.db, self.cursor, self.batch);
        if let Some(last) = out.last() {
            self.cursor = last.lsn.next();
            match self.primary.faults().check(CrashPoint::GeoShipBatch, GEO) {
                Some(FaultAction::Crash) => {
                    return Err(GeoError::Severed("geo_ship_batch crash point".into()));
                }
                Some(FaultAction::Delay(d)) => std::thread::sleep(d),
                None => {}
            }
            self.series.shipped.add(out.len() as u64);
            self.series.shipped_lsn.set(self.cursor.0 as i64);
        }
        Ok(out)
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
    use tenantdb_storage::{RedoOp, Wal, WalEntry};

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
        s.batch = 2;
        let mut got = Vec::new();
        loop {
            let before = s.cursor();
            let batch = s.next_batch().unwrap();
            assert!(batch.len() <= 2);
            // The cursor moves by exactly what shipped: nothing is skipped.
            assert_eq!(s.cursor().0 - before.0, batch.len() as u64);
            if batch.is_empty() {
                break;
            }
            got.extend(batch);
        }
        assert!(!got.is_empty());
        // Every shipped row write is of "app"'s table, never "other"'s.
        for rec in &got {
            if let WalEntry::Redo(RedoOp::Insert { table, .. }) = &rec.entry {
                assert_eq!(&**table, "t");
            }
        }
        // The insert's commit marker shipped.
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
