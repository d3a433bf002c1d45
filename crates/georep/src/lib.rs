//! # tenantdb-georep — cross-colo WAL shipping and disaster recovery
//!
//! The paper's deployment unit above the cluster is the **colo**; losing
//! one must not lose the platform. This crate implements the asynchronous
//! cross-colo story (§2.3 *replication across colos*): every database's
//! WAL is shipped from its primary cluster to a standby colo, a standby
//! can be **promoted** behind a fencing epoch, and in-flight 2PC is
//! reconciled from the replicated decision log.
//!
//! The moving parts:
//!
//! * [`Shipper`] — pins one replica engine on the primary and tails that
//!   engine's log of the stream's database (every engine keeps one log
//!   per database) through the stable `Engine` cursor surface.
//! * [`Applier`] — the standby side: buffers each transaction until its
//!   decision marker, applies committed work to every standby replica via
//!   the idempotent `Engine::apply_replicated_redo` path, and maintains
//!   the cumulative-ack watermark that makes resume-after-disconnect
//!   lossless.
//! * [`GeoStandbyServer`] / [`GeoTcpLink`] — the versioned log-stream
//!   protocol over real loopback TCP, speaking the `Geo*` frames from
//!   `tenantdb_net::wire` (handshake pinning `(db, start_lsn, source)`
//!   under an epoch, batched records restating the epoch, cumulative
//!   acks, `GeoFenced` stream kills).
//! * [`GeoLink`] — the same exchange as direct function calls, for the
//!   deterministic sim scenarios.
//! * [`fn@promote`] — fence the old primary (every write there then fails
//!   with `ClusterError::Fenced`; reads stay up), raise the standby's
//!   write authority, and resolve in-doubt transactions against the old
//!   primary's replicated decision log (presumed abort when unreachable).
//!
//! ## Guarantees (and the honest caveat)
//!
//! Shipping is **asynchronous**: commits acknowledged to clients but not
//! yet acknowledged by the standby are lost with the primary colo — the
//! recovery point is exactly the stream's cumulative ack, exported as the
//! `tenantdb_georep_*` lag gauges. What the sim's invariant checker holds
//! us to: every commit the *standby acked* survives colo loss, and a
//! fenced primary accepts no writes afterwards (split-brain safety).

#![warn(missing_docs)]

use std::fmt;

pub mod applier;
pub mod metrics;
pub mod promote;
pub mod shipper;
pub mod stream;

pub use applier::{Applier, SharedApplier};
pub use metrics::GeoMetrics;
pub use promote::{promote, PromotionOutcome};
pub use shipper::Shipper;
pub use stream::{GeoLink, GeoStandbyServer, GeoTcpLink};

/// Errors surfaced by the cross-colo stream machinery.
#[derive(Debug)]
pub enum GeoError {
    /// The peer has seen a newer fencing epoch: a promotion happened and
    /// this side must stand down (stop shipping, or stop applying).
    Fenced {
        /// The newest epoch the rejecting peer has seen.
        epoch: u64,
    },
    /// The stream died mid-exchange (socket error, crash point, source
    /// engine down). Reconnect and resume from the cumulative ack.
    Severed(String),
    /// No alive replica of the database to pin as the stream source.
    NoSource(String),
    /// The peer spoke the protocol wrong (unexpected frame, bad reply, or
    /// a standby replay failure).
    Protocol(String),
    /// A cluster-level operation failed (placement lookup, metadata
    /// quorum, catalog write).
    Cluster(tenantdb_cluster::ClusterError),
}

impl fmt::Display for GeoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GeoError::Fenced { epoch } => {
                write!(f, "stream fenced: peer has seen promotion epoch {epoch}")
            }
            GeoError::Severed(why) => write!(f, "stream severed: {why}"),
            GeoError::NoSource(db) => {
                write!(f, "no alive replica of '{db}' to pin as stream source")
            }
            GeoError::Protocol(why) => write!(f, "stream protocol error: {why}"),
            GeoError::Cluster(e) => write!(f, "cluster error on stream path: {e}"),
        }
    }
}

impl std::error::Error for GeoError {}

impl From<tenantdb_cluster::ClusterError> for GeoError {
    fn from(e: tenantdb_cluster::ClusterError) -> Self {
        GeoError::Cluster(e)
    }
}

impl From<std::io::Error> for GeoError {
    fn from(e: std::io::Error) -> Self {
        GeoError::Severed(e.to_string())
    }
}

impl From<tenantdb_net::wire::WireError> for GeoError {
    fn from(e: tenantdb_net::wire::WireError) -> Self {
        GeoError::Protocol(e.to_string())
    }
}
