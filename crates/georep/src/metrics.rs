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

use tenantdb_obs::{Counter, Gauge, MetricsRegistry};

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

    /// Resolve `db`'s shipper-side series (made now if absent).
    pub(crate) fn shipper(&self, db: &str) -> ShipperSeries {
        let r = &self.registry;
        ShipperSeries {
            shipped: r.counter(GEOREP_RECORDS_SHIPPED, &[("db", db)]),
            shipped_lsn: r.gauge(GEOREP_SHIPPED_LSN, &[("db", db)]),
            acked_lsn: r.gauge(GEOREP_ACKED_LSN, &[("db", db)]),
            lag: r.gauge(GEOREP_LAG_RECORDS, &[("db", db)]),
        }
    }

    /// Resolve `db`'s stream-reconnect counter (made now if absent).
    pub(crate) fn reconnects(&self, db: &str) -> Arc<Counter> {
        self.registry.counter(GEOREP_RECONNECTS, &[("db", db)])
    }

    /// Resolve `db`'s applier-side series (made now if absent).
    pub(crate) fn applier(&self, db: &str) -> ApplierSeries {
        let r = &self.registry;
        ApplierSeries {
            applied: r.counter(GEOREP_RECORDS_APPLIED, &[("db", db)]),
            txns: r.counter(GEOREP_TXNS_APPLIED, &[("db", db)]),
            applied_lsn: r.gauge(GEOREP_APPLIED_LSN, &[("db", db)]),
            fenced: r.counter(GEOREP_FENCED_STREAMS, &[]),
        }
    }

    /// A standby promotion completed.
    pub fn note_promotion(&self) {
        self.registry.counter(GEOREP_PROMOTIONS, &[]).inc();
    }
}

/// One database's shipper-side series, resolved once per [`Shipper`].
///
/// [`Shipper`]: crate::Shipper
pub(crate) struct ShipperSeries {
    pub(crate) shipped: Arc<Counter>,
    pub(crate) shipped_lsn: Arc<Gauge>,
    pub(crate) acked_lsn: Arc<Gauge>,
    pub(crate) lag: Arc<Gauge>,
}

/// One database's applier-side series, resolved once per [`Applier`].
///
/// [`Applier`]: crate::Applier
pub(crate) struct ApplierSeries {
    pub(crate) applied: Arc<Counter>,
    pub(crate) txns: Arc<Counter>,
    pub(crate) applied_lsn: Arc<Gauge>,
    /// Streams refused for a stale epoch (colo-wide, unlabelled).
    pub(crate) fenced: Arc<Counter>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_resolve_and_accumulate() {
        let m = GeoMetrics::new(Arc::new(MetricsRegistry::new()));
        let (ship, apply) = (m.shipper("app"), m.applier("app"));
        ship.shipped.add(5);
        ship.shipped_lsn.set(9);
        ship.lag.set(0);
        apply.txns.add(2);
        m.reconnects("app").inc();
        apply.fenced.inc();
        m.note_promotion();
        let r = m.registry();
        assert_eq!(r.counter_value(GEOREP_RECORDS_SHIPPED, &[("db", "app")]), 5);
        assert_eq!(r.gauge(GEOREP_SHIPPED_LSN, &[("db", "app")]).get(), 9);
        assert_eq!(r.gauge(GEOREP_LAG_RECORDS, &[("db", "app")]).get(), 0);
        assert_eq!(r.counter_value(GEOREP_TXNS_APPLIED, &[("db", "app")]), 2);
        assert_eq!(r.counter_value(GEOREP_RECONNECTS, &[("db", "app")]), 1);
        assert_eq!(r.counter_value(GEOREP_FENCED_STREAMS, &[]), 1);
        assert_eq!(r.counter_value(GEOREP_PROMOTIONS, &[]), 1);
    }
}
