//! Runtime SLA compliance checking.
//!
//! §4.1 defines the SLA as two requirements over a period T: minimum
//! committed throughput and a maximum fraction of proactively rejected
//! transactions. The cluster controller counts outcomes per database; this
//! module turns those counters into a compliance verdict, and projects
//! whether a *planned* action (a migration) still fits the availability
//! budget.

use std::time::Duration;

use crate::{expected_rejected_frac, Sla};

/// Observed per-database outcome totals over a measurement window.
/// (Mirrors the cluster controller's counters without depending on it —
/// the cluster crate depends on this one.)
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ObservedOutcomes {
    /// Successfully committed transactions.
    pub committed: u64,
    /// Proactively rejected (failures, copy rejections) — the SLA numerator.
    pub rejected: u64,
    /// Workload-inherent aborts (deadlocks, timeouts) — excluded by §4.1.
    pub workload_aborts: u64,
}

impl ObservedOutcomes {
    /// Every transaction that reached an outcome in the window.
    pub fn total_attempted(&self) -> u64 {
        self.committed + self.rejected + self.workload_aborts
    }

    /// Committed transactions per second over `window`.
    pub fn throughput(&self, window: Duration) -> f64 {
        let secs = window.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.committed as f64 / secs
    }

    /// Fraction of SLA-relevant transactions that were proactively rejected.
    /// Deadlock aborts are excluded from the denominator, exactly as the
    /// paper excludes "transactions that fail due to reasons that are
    /// inherent to the application".
    pub fn rejected_frac(&self) -> f64 {
        let denom = self.committed + self.rejected;
        if denom == 0 {
            return 0.0;
        }
        self.rejected as f64 / denom as f64
    }
}

/// Compliance verdict for one database over one window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Compliance {
    /// Observed throughput met the SLA's minimum.
    pub throughput_ok: bool,
    /// Observed rejection fraction stayed within the SLA's maximum.
    pub availability_ok: bool,
    /// Committed transactions per second over the window.
    pub observed_tps: f64,
    /// Fraction of SLA-relevant transactions proactively rejected.
    pub observed_rejected_frac: f64,
}

impl Compliance {
    /// True when both SLA requirements held.
    pub fn ok(&self) -> bool {
        self.throughput_ok && self.availability_ok
    }
}

/// Check one database's observed window against its SLA.
pub fn check_compliance(sla: &Sla, outcomes: &ObservedOutcomes, window: Duration) -> Compliance {
    let observed_tps = outcomes.throughput(window);
    let observed_rejected_frac = outcomes.rejected_frac();
    Compliance {
        throughput_ok: observed_tps + 1e-12 >= sla.min_tps,
        availability_ok: observed_rejected_frac <= sla.max_rejected_frac + 1e-12,
        observed_tps,
        observed_rejected_frac,
    }
}

/// Budgeted maintenance planning: how many replica reallocations (each
/// costing one `recovery_time` copy window) fit in period T without
/// breaching the availability SLA, given the expected machine failure rate?
///
/// Solves the §4.1 inequality for `reallocation_rate`.
pub fn reallocation_budget(
    sla: &Sla,
    machine_failure_rate: f64,
    recovery_time: Duration,
    write_mix: f64,
) -> u64 {
    if write_mix <= 0.0 || recovery_time.is_zero() {
        return u64::MAX; // read-only or instant copies: unconstrained
    }
    let t = sla.period.as_secs_f64();
    let per_event = recovery_time.as_secs_f64() / t * write_mix;
    if per_event <= 0.0 {
        return u64::MAX;
    }
    let max_events = sla.max_rejected_frac / per_event;
    let budget = max_events - machine_failure_rate;
    if budget <= 0.0 {
        0
    } else {
        budget.floor() as u64
    }
}

/// Does one more reallocation fit the budget right now?
pub fn can_reallocate(
    sla: &Sla,
    machine_failure_rate: f64,
    reallocations_so_far: f64,
    recovery_time: Duration,
    write_mix: f64,
) -> bool {
    expected_rejected_frac(
        machine_failure_rate,
        reallocations_so_far + 1.0,
        recovery_time,
        sla.period,
        write_mix,
    ) < sla.max_rejected_frac
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sla() -> Sla {
        Sla::new(10.0, 0.01, Duration::from_secs(3600))
    }

    #[test]
    fn throughput_and_rejection_math() {
        let o = ObservedOutcomes {
            committed: 1200,
            rejected: 6,
            workload_aborts: 100,
        };
        let w = Duration::from_secs(60);
        assert!((o.throughput(w) - 20.0).abs() < 1e-9);
        // Deadlocks excluded from the denominator.
        assert!((o.rejected_frac() - 6.0 / 1206.0).abs() < 1e-12);
        assert_eq!(o.total_attempted(), 1306);
    }

    #[test]
    fn compliant_database() {
        let o = ObservedOutcomes {
            committed: 1200,
            rejected: 6,
            workload_aborts: 0,
        };
        let c = check_compliance(&sla(), &o, Duration::from_secs(60));
        assert!(c.throughput_ok);
        assert!(c.availability_ok);
        assert!(c.ok());
    }

    #[test]
    fn throughput_breach_detected() {
        let o = ObservedOutcomes {
            committed: 100,
            rejected: 0,
            workload_aborts: 0,
        };
        let c = check_compliance(&sla(), &o, Duration::from_secs(60));
        assert!(!c.throughput_ok, "100/60s < 10 TPS");
        assert!(c.availability_ok);
        assert!(!c.ok());
    }

    #[test]
    fn availability_breach_detected() {
        let o = ObservedOutcomes {
            committed: 900,
            rejected: 100,
            workload_aborts: 0,
        };
        let c = check_compliance(&sla(), &o, Duration::from_secs(60));
        assert!(c.throughput_ok);
        assert!(!c.availability_ok, "10% rejected >> 1%");
    }

    #[test]
    fn deadlocks_do_not_breach_availability() {
        // Per §4.1, workload-inherent aborts don't count against the SLA.
        let o = ObservedOutcomes {
            committed: 900,
            rejected: 0,
            workload_aborts: 500,
        };
        let c = check_compliance(&sla(), &o, Duration::from_secs(60));
        assert!(c.availability_ok);
    }

    #[test]
    fn reallocation_budget_shape() {
        let sla = sla(); // 1% over an hour
        let recovery = Duration::from_secs(36); // 1% of the period
                                                // Each event costs (36/3600)*0.5 = 0.5% of the budget; 1% allows 2
                                                // events total; with 1 expected failure, 1 reallocation remains.
        let b = reallocation_budget(&sla, 1.0, recovery, 0.5);
        assert_eq!(b, 1);
        // Faster copies buy more reallocations.
        let b = reallocation_budget(&sla, 1.0, Duration::from_secs(4), 0.5);
        assert!(b > 10);
        // Read-only workloads are unconstrained.
        assert_eq!(reallocation_budget(&sla, 100.0, recovery, 0.0), u64::MAX);
    }

    #[test]
    fn budget_exhausted_when_failures_eat_it() {
        let sla = sla();
        let recovery = Duration::from_secs(72); // each event = 1% with write_mix 0.5
        assert_eq!(reallocation_budget(&sla, 2.0, recovery, 0.5), 0);
    }

    #[test]
    fn can_reallocate_is_consistent_with_budget() {
        let sla = sla();
        let recovery = Duration::from_secs(36);
        assert!(can_reallocate(&sla, 0.0, 0.0, recovery, 0.5));
        // Budget of 2 total events at this cost: the 2nd reallocation after a
        // failure would exactly consume it (strict inequality -> false).
        assert!(!can_reallocate(&sla, 1.0, 1.0, recovery, 0.5));
    }

    #[test]
    fn empty_window_is_vacuously_unavailable_but_not_rejecting() {
        let o = ObservedOutcomes::default();
        let c = check_compliance(&sla(), &o, Duration::from_secs(60));
        assert!(!c.throughput_ok);
        assert!(c.availability_ok);
    }
}
