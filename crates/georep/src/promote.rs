//! Standby promotion: fence the old primary, raise the standby's write
//! authority, and reconcile in-flight 2PC.
//!
//! Promotion is the disaster-recovery switch. In epoch order:
//!
//! 1. pick the next fencing epoch — one past every epoch either colo has
//!    ever seen, so the token is globally fresh;
//! 2. **fence** the old primary at that epoch (when it is reachable — a
//!    planned failover). From this point the old primary's per-write geo
//!    fence check rejects every write: a split brain cannot commit on both
//!    sides. Reads stay up (the paper's read-only fallback);
//! 3. raise the standby's own authority
//!    ([`ClusterController::assume_geo_epoch`]) — its clusters now accept
//!    writes, and any record batch still in flight from the old primary is
//!    refused as stale by the epoch check on every frame;
//! 4. **reconcile in-flight 2PC**: transactions that shipped a `Prepare`
//!    but no decision are resolved against the old primary's replicated
//!    decision log when reachable — a logged commit decision is applied;
//!    everything else is presumed aborted (no client can have observed a
//!    commit that never reached the decision log).
//!
//! The [`CrashPoint::GeoPromote`] hook sits between fencing and the
//! standby's epoch assumption — the worst window, where the old primary is
//! already fenced but no colo has write authority. A crashed promotion is
//! simply retried: every step is idempotent (`fence_geo` and
//! `assume_geo_epoch` are monotonic maxes).

use std::collections::HashSet;
use std::sync::Arc;

use tenantdb_cluster::fault::{CrashPoint, FaultAction, GEO};
use tenantdb_cluster::{ClusterController, MachineId};
use tenantdb_storage::TxnId;

use crate::applier::SharedApplier;
use crate::metrics::GeoMetrics;
use crate::GeoError;

/// What a completed promotion did.
#[derive(Debug)]
pub struct PromotionOutcome {
    /// The fencing epoch the standby now writes under.
    pub epoch: u64,
    /// Whether the old primary acknowledged the fence (planned failover).
    /// `false` means it was unreachable — it will fence itself on its
    /// first stream exchange with the promoted colo.
    pub fenced_old_primary: bool,
    /// In-doubt source transactions whose logged commit decision was found
    /// and applied.
    pub committed: Vec<TxnId>,
    /// In-doubt source transactions presumed aborted.
    pub aborted: Vec<TxnId>,
}

/// Promote `standby` to primary, fencing `old_primary` when reachable
/// (`None`: unreachable, so nothing is fenced here). `appliers` are the
/// standby's per-database stream states whose in-flight transactions need
/// reconciling.
pub fn promote(
    standby: &Arc<ClusterController>,
    old_primary: Option<&Arc<ClusterController>>,
    appliers: &[SharedApplier],
    metrics: &GeoMetrics,
) -> Result<PromotionOutcome, GeoError> {
    // One past everything either side has seen: globally fresh.
    let mut seen = standby.geo_epoch().max(standby.geo_write_epoch());
    if let Some(p) = old_primary {
        seen = seen.max(p.geo_epoch()).max(p.geo_write_epoch());
    }
    let epoch = seen + 1;

    // A fence that cannot reach the old primary's metadata quorum is the
    // unplanned-DR case: proceed, the epoch check on every stream frame
    // fences it on first contact.
    let fenced_old_primary = old_primary.is_some_and(|p| p.fence_geo(epoch).is_ok());

    // The worst window: old primary fenced, no colo holds write authority.
    match standby.faults().check(CrashPoint::GeoPromote, GEO) {
        Some(FaultAction::Crash) => {
            return Err(GeoError::Severed("geo_promote crash point".into()));
        }
        Some(FaultAction::Delay(d)) => std::thread::sleep(d),
        None => {}
    }

    standby.assume_geo_epoch(epoch)?;

    // Reconcile in-flight 2PC against the old primary's replicated
    // decision log (empty when unreachable: presumed abort).
    let decided: HashSet<(MachineId, TxnId)> = old_primary
        .map(|p| {
            p.decisions()
                .into_iter()
                .flat_map(|(_, parts)| parts)
                .collect()
        })
        .unwrap_or_default();
    let mut committed = Vec::new();
    let mut aborted = Vec::new();
    for a in appliers {
        let (c, ab) = a
            .lock()
            .reconcile_in_doubt(&|m, t| decided.contains(&(m, t)))?;
        committed.extend(c);
        aborted.extend(ab);
    }

    metrics.note_promotion();
    Ok(PromotionOutcome {
        epoch,
        fenced_old_primary,
        committed,
        aborted,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tenantdb_cluster::controller::ClusterConfig;
    use tenantdb_cluster::fault::{FaultPlan, Trigger};
    use tenantdb_obs::MetricsRegistry;

    fn metrics() -> GeoMetrics {
        GeoMetrics::new(Arc::new(MetricsRegistry::new()))
    }

    #[test]
    fn promotion_fences_old_primary_and_raises_standby_authority() {
        let old = ClusterController::with_machines(ClusterConfig::for_tests(), 2);
        let new = ClusterController::with_machines(ClusterConfig::for_tests(), 2);
        let m = metrics();

        let out = promote(&new, Some(&old), &[], &m).unwrap();
        assert_eq!(out.epoch, 1);
        assert!(out.fenced_old_primary);
        assert!(old.is_geo_fenced());
        assert!(!new.is_geo_fenced());
        assert_eq!(new.geo_write_epoch(), 1);
        assert_eq!(
            m.registry()
                .counter_value(crate::metrics::GEOREP_PROMOTIONS, &[]),
            1
        );

        // Failing back promotes the other way at a strictly higher epoch.
        let back = promote(&old, Some(&new), &[], &m).unwrap();
        assert_eq!(back.epoch, 2);
        assert!(!old.is_geo_fenced());
        assert!(new.is_geo_fenced());
    }

    #[test]
    fn unreachable_old_primary_is_presumed_lost() {
        let new = ClusterController::with_machines(ClusterConfig::for_tests(), 1);
        let out = promote(&new, None, &[], &metrics()).unwrap();
        assert_eq!(out.epoch, 1);
        assert!(!out.fenced_old_primary);
        assert_eq!(new.geo_write_epoch(), 1);
    }

    #[test]
    fn crashed_promotion_leaves_a_retryable_fence_gap() {
        let old = ClusterController::with_machines(ClusterConfig::for_tests(), 1);
        let new = ClusterController::with_machines(ClusterConfig::for_tests(), 1);
        new.faults().arm(FaultPlan::new(vec![Trigger {
            point: CrashPoint::GeoPromote,
            machine: Some(GEO),
            after_hits: 0,
            action: FaultAction::Crash,
        }]));

        // First attempt dies in the window: old fenced, nobody promoted.
        let err = promote(&new, Some(&old), &[], &metrics()).unwrap_err();
        assert!(matches!(err, GeoError::Severed(_)), "{err}");
        assert!(old.is_geo_fenced());
        assert_eq!(new.geo_write_epoch(), 0);

        // The retry completes idempotently.
        let out = promote(&new, Some(&old), &[], &metrics()).unwrap();
        assert!(out.epoch >= 1);
        assert!(old.is_geo_fenced());
        assert_eq!(new.geo_write_epoch(), out.epoch);
    }
}
