//! Cross-colo replication observability (DESIGN.md §8).
//!
//! One [`GeoMetrics`] handle wraps an obs registry — normally the owning
//! cluster's, so `\metrics` in the shell and the bench snapshots see the
//! georep series next to everything else. Shipper-side series live on the
//! primary cluster's registry, applier-side series on the standby's.
//!
//! Lag is reported in *LSN units* against the database's log on the
//! pinned source engine, which holds that database's records only:
//! `tenantdb_georep_lag_records` is the number of records the standby has
//! not acknowledged, and reaches zero exactly when the stream is drained.

use std::sync::Arc;

use tenantdb_obs::MetricsRegistry;

/// Gauge: the shipper's scan cursor (next LSN to ship), per database.
pub const GEOREP_SHIPPED_LSN: &str = "tenantdb_georep_shipped_lsn";
/// Gauge: the standby's cumulative ack (one past highest safe LSN), as
/// observed by the shipper, per database.
pub const GEOREP_ACKED_LSN: &str = "tenantdb_georep_acked_lsn";
/// Gauge: source log head minus the standby's cumulative ack, per database
/// (LSN units — the unacknowledged records, zero when drained).
pub const GEOREP_LAG_RECORDS: &str = "tenantdb_georep_lag_records";
/// Gauge: the applier's resume watermark (one past highest safe LSN), per
/// database, on the standby side.
pub const GEOREP_APPLIED_LSN: &str = "tenantdb_georep_applied_lsn";
/// Counter: WAL records shipped to the standby (re-ships count again).
pub const GEOREP_RECORDS_SHIPPED: &str = "tenantdb_georep_records_shipped_total";
/// Counter: WAL records ingested by the standby applier.
pub const GEOREP_RECORDS_APPLIED: &str = "tenantdb_georep_records_applied_total";
/// Counter: replicated transactions whose commit was applied on the standby.
pub const GEOREP_TXNS_APPLIED: &str = "tenantdb_georep_txns_applied_total";
/// Counter: stream reconnects (severed link, re-pin, or standby restart).
pub const GEOREP_RECONNECTS: &str = "tenantdb_georep_reconnects_total";
/// Counter: streams refused or killed because the sender's epoch was stale.
pub const GEOREP_FENCED_STREAMS: &str = "tenantdb_georep_fenced_streams_total";
/// Counter: standby promotions completed by this colo.
pub const GEOREP_PROMOTIONS: &str = "tenantdb_georep_promotions_total";

/// Handle resolving the `tenantdb_georep_*` series against one registry.
#[derive(Clone)]
pub struct GeoMetrics {
    registry: Arc<MetricsRegistry>,
}

impl GeoMetrics {
    /// Wrap `registry` (typically `cluster.metrics().registry().clone()`)
    /// and register the series descriptions.
    pub fn new(registry: Arc<MetricsRegistry>) -> Self {
        registry.describe(
            GEOREP_SHIPPED_LSN,
            "Shipper scan cursor: next LSN to ship to the standby colo.",
        );
        registry.describe(
            GEOREP_ACKED_LSN,
            "Standby cumulative ack as observed by the shipper.",
        );
        registry.describe(
            GEOREP_LAG_RECORDS,
            "Source WAL head minus the standby ack, in LSN units.",
        );
        registry.describe(
            GEOREP_APPLIED_LSN,
            "Applier resume watermark: one past the highest LSN safe to not resend.",
        );
        registry.describe(
            GEOREP_RECORDS_SHIPPED,
            "WAL records shipped cross-colo (re-ships after a sever count again).",
        );
        registry.describe(
            GEOREP_RECORDS_APPLIED,
            "WAL records ingested by the standby applier.",
        );
        registry.describe(
            GEOREP_TXNS_APPLIED,
            "Replicated transactions committed on the standby.",
        );
        registry.describe(
            GEOREP_RECONNECTS,
            "Cross-colo stream reconnects (sever, re-pin, standby restart).",
        );
        registry.describe(
            GEOREP_FENCED_STREAMS,
            "Streams refused or killed because the sender's fencing epoch was stale.",
        );
        registry.describe(
            GEOREP_PROMOTIONS,
            "Standby promotions completed by this colo.",
        );
        GeoMetrics { registry }
    }

    /// The wrapped registry (for tests and status rendering).
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Shipper sent `n` records for `db`; the cursor now sits at `cursor`.
    pub fn note_shipped(&self, db: &str, n: u64, cursor: u64) {
        self.registry
            .counter(GEOREP_RECORDS_SHIPPED, &[("db", db)])
            .add(n);
        self.registry
            .gauge(GEOREP_SHIPPED_LSN, &[("db", db)])
            .set(cursor as i64);
    }

    /// Shipper observed the standby's cumulative ack for `db`; `lag` is the
    /// source head minus that ack.
    pub fn note_acked(&self, db: &str, acked: u64, lag: u64) {
        self.registry
            .gauge(GEOREP_ACKED_LSN, &[("db", db)])
            .set(acked as i64);
        self.registry
            .gauge(GEOREP_LAG_RECORDS, &[("db", db)])
            .set(lag as i64);
    }

    /// Applier ingested `records` for `db`, committing `txns` transactions;
    /// its resume watermark is now `watermark`.
    pub fn note_applied(&self, db: &str, records: u64, txns: u64, watermark: u64) {
        self.registry
            .counter(GEOREP_RECORDS_APPLIED, &[("db", db)])
            .add(records);
        if txns > 0 {
            self.registry
                .counter(GEOREP_TXNS_APPLIED, &[("db", db)])
                .add(txns);
        }
        self.registry
            .gauge(GEOREP_APPLIED_LSN, &[("db", db)])
            .set(watermark as i64);
    }

    /// A stream for `db` had to reconnect.
    pub fn note_reconnect(&self, db: &str) {
        self.registry
            .counter(GEOREP_RECONNECTS, &[("db", db)])
            .inc();
    }

    /// A stream was refused or killed for carrying a stale epoch.
    pub fn note_fenced_stream(&self) {
        self.registry.counter(GEOREP_FENCED_STREAMS, &[]).inc();
    }

    /// A standby promotion completed.
    pub fn note_promotion(&self) {
        self.registry.counter(GEOREP_PROMOTIONS, &[]).inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_resolve_and_accumulate() {
        let m = GeoMetrics::new(Arc::new(MetricsRegistry::new()));
        m.note_shipped("app", 3, 7);
        m.note_shipped("app", 2, 9);
        m.note_acked("app", 9, 0);
        m.note_applied("app", 5, 2, 9);
        m.note_reconnect("app");
        m.note_fenced_stream();
        m.note_promotion();
        let r = m.registry();
        assert_eq!(r.counter_value(GEOREP_RECORDS_SHIPPED, &[("db", "app")]), 5);
        assert_eq!(r.gauge(GEOREP_SHIPPED_LSN, &[("db", "app")]).get(), 9);
        assert_eq!(r.gauge(GEOREP_LAG_RECORDS, &[("db", "app")]).get(), 0);
        assert_eq!(r.counter_value(GEOREP_TXNS_APPLIED, &[("db", "app")]), 2);
        assert_eq!(r.counter_value(GEOREP_FENCED_STREAMS, &[]), 1);
        assert_eq!(r.counter_value(GEOREP_PROMOTIONS, &[]), 1);
    }
}
