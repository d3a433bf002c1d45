//! # tenantdb-sla
//!
//! The paper's §4: database Service Level Agreements and SLA-driven
//! placement.
//!
//! An SLA is a pair of requirements over a period `T`:
//! 1. a minimum throughput (transactions per second), which maps — via an
//!    observation period on a dedicated machine — to a multi-dimensional
//!    [`ResourceVector`] demand `r[j]` (CPU, memory, disk I/O, disk size);
//! 2. a maximum fraction of *proactively rejected* transactions (those
//!    rejected because of machine failures and replica migration, not
//!    workload-inherent aborts such as deadlocks), captured by the
//!    availability inequality of §4.1 (see [`availability_ok`]).
//!
//! Placing databases onto the fewest machines subject to per-machine
//! capacity is multi-dimensional bin packing (NP-hard); the paper uses
//! online **First-Fit** (Algorithm 2) with the restriction that replicas of
//! the same database land on distinct machines. [`FirstFitPlacer`]
//! implements it, [`optimal_machine_count`] computes the true optimum by
//! branch-and-bound for the Table 2 comparison, and [`Zipf`] reproduces the
//! skewed size/throughput distributions of the experiment.

#![warn(missing_docs)]

pub mod admission;
pub mod monitor;
pub mod placement;
pub mod zipf;

pub use admission::{AdmissionDecision, AdmissionGate, AdmissionParams};
pub use monitor::{
    can_reallocate, check_compliance, reallocation_budget, Compliance, ObservedOutcomes,
};
pub use placement::{
    machine_lower_bound, optimal_machine_count, optimal_machine_count_budgeted, FirstFitPlacer,
    PlacementError, Placer,
};
pub use zipf::Zipf;

use std::ops::{Add, AddAssign, Sub};
use std::time::Duration;

/// A multi-dimensional resource demand or capacity.
///
/// Units are abstract but consistent: `cpu` in transaction-cost units/sec,
/// `memory` and `disk_size` in pages, `disk_io` in page-misses/sec.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ResourceVector {
    /// Processing demand/capacity, in transaction-cost units per second.
    pub cpu: f64,
    /// Buffer-pool demand/capacity, in pages.
    pub memory: f64,
    /// I/O demand/capacity, in page-misses per second.
    pub disk_io: f64,
    /// Storage demand/capacity, in pages.
    pub disk_size: f64,
}

/// Each term by its bits, `-0.0` as `0.0` (`+ 0.0` makes it so), so that
/// vectors that are `==` hash alike.
impl std::hash::Hash for ResourceVector {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        for term in [self.cpu, self.memory, self.disk_io, self.disk_size] {
            (term + 0.0).to_bits().hash(state);
        }
    }
}

impl ResourceVector {
    /// The zero vector (no demand).
    pub const ZERO: ResourceVector = ResourceVector {
        cpu: 0.0,
        memory: 0.0,
        disk_io: 0.0,
        disk_size: 0.0,
    };

    /// Build a vector from its four components.
    pub fn new(cpu: f64, memory: f64, disk_io: f64, disk_size: f64) -> Self {
        ResourceVector {
            cpu,
            memory,
            disk_io,
            disk_size,
        }
    }

    /// Component-wise `<=` — does this demand fit within `capacity`?
    pub fn fits_in(&self, capacity: &ResourceVector) -> bool {
        self.cpu <= capacity.cpu + 1e-9
            && self.memory <= capacity.memory + 1e-9
            && self.disk_io <= capacity.disk_io + 1e-9
            && self.disk_size <= capacity.disk_size + 1e-9
    }

    /// Largest single dimension as a fraction of `capacity` — a scalar
    /// "fullness" measure used by Best-Fit and for reporting utilization.
    pub fn max_utilization(&self, capacity: &ResourceVector) -> f64 {
        let frac = |d: f64, c: f64| if c <= 0.0 { f64::INFINITY } else { d / c };
        frac(self.cpu, capacity.cpu)
            .max(frac(self.memory, capacity.memory))
            .max(frac(self.disk_io, capacity.disk_io))
            .max(frac(self.disk_size, capacity.disk_size))
    }
}

impl Add for ResourceVector {
    type Output = ResourceVector;
    fn add(self, o: ResourceVector) -> ResourceVector {
        ResourceVector {
            cpu: self.cpu + o.cpu,
            memory: self.memory + o.memory,
            disk_io: self.disk_io + o.disk_io,
            disk_size: self.disk_size + o.disk_size,
        }
    }
}

impl AddAssign for ResourceVector {
    fn add_assign(&mut self, o: ResourceVector) {
        *self = *self + o;
    }
}

impl Sub for ResourceVector {
    type Output = ResourceVector;
    fn sub(self, o: ResourceVector) -> ResourceVector {
        ResourceVector {
            cpu: self.cpu - o.cpu,
            memory: self.memory - o.memory,
            disk_io: self.disk_io - o.disk_io,
            disk_size: self.disk_size - o.disk_size,
        }
    }
}

/// A database SLA (§4.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sla {
    /// Minimum sustained throughput over the period, in txn/s.
    pub min_tps: f64,
    /// Maximum fraction of proactively rejected transactions.
    pub max_rejected_frac: f64,
    /// The evaluation period T.
    pub period: Duration,
}

/// As [`ResourceVector`]'s: the FLOAT terms by their bits, `-0.0` as `0.0`.
impl std::hash::Hash for Sla {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        (self.min_tps + 0.0).to_bits().hash(state);
        (self.max_rejected_frac + 0.0).to_bits().hash(state);
        self.period.hash(state);
    }
}

impl Sla {
    /// Build an SLA from its three terms.
    pub fn new(min_tps: f64, max_rejected_frac: f64, period: Duration) -> Self {
        Sla {
            min_tps,
            max_rejected_frac,
            period,
        }
    }
}

impl Default for Sla {
    fn default() -> Self {
        Sla {
            min_tps: 1.0,
            max_rejected_frac: 0.01,
            period: Duration::from_secs(3600),
        }
    }
}

/// The §4.1 availability constraint:
///
/// ```text
/// (machine_failure_rate + reallocation_rate) * (recovery_time / T) * write_mix
///     < max_rejected_frac
/// ```
///
/// `machine_failure_rate` and `reallocation_rate` count events per period
/// `T`; `recovery_time` is the time to copy the database during recovery;
/// `write_mix` is the fraction of update transactions (only writes are
/// rejected while a table is copied — Algorithm 1 keeps serving reads).
pub fn availability_ok(
    machine_failure_rate: f64,
    reallocation_rate: f64,
    recovery_time: Duration,
    period: Duration,
    write_mix: f64,
    max_rejected_frac: f64,
) -> bool {
    expected_rejected_frac(
        machine_failure_rate,
        reallocation_rate,
        recovery_time,
        period,
        write_mix,
    ) < max_rejected_frac
}

/// Left-hand side of the availability inequality — the expected fraction of
/// proactively rejected transactions.
pub fn expected_rejected_frac(
    machine_failure_rate: f64,
    reallocation_rate: f64,
    recovery_time: Duration,
    period: Duration,
    write_mix: f64,
) -> f64 {
    let t = period.as_secs_f64();
    if t <= 0.0 {
        return f64::INFINITY;
    }
    (machine_failure_rate + reallocation_rate) * (recovery_time.as_secs_f64() / t) * write_mix
}

/// A database to be placed: demand vector + replica count + SLA.
#[derive(Debug, Clone)]
pub struct DatabaseSpec {
    /// The database's name (placement reports refer to it).
    pub name: String,
    /// Per-replica resource demand (from the observation period).
    pub demand: ResourceVector,
    /// Number of synchronous replicas to place on distinct machines.
    pub replicas: usize,
    /// The database's service level agreement.
    pub sla: Sla,
}

impl DatabaseSpec {
    /// A spec with the default SLA.
    pub fn new(name: impl Into<String>, demand: ResourceVector, replicas: usize) -> Self {
        DatabaseSpec {
            name: name.into(),
            demand,
            replicas,
            sla: Sla::default(),
        }
    }
}

/// Derive a demand vector from an observed usage profile (the paper's
/// observation period on a dedicated machine, §4.2).
///
/// `reads`/`writes`/`misses` are totals over `window`; `pages` is the
/// database's current size.
pub fn demand_from_observation(
    reads: u64,
    writes: u64,
    misses: u64,
    pages: u64,
    window: Duration,
) -> ResourceVector {
    let secs = window.as_secs_f64().max(1e-9);
    ResourceVector {
        // Writes cost more CPU than reads (replication + index maintenance).
        cpu: (reads as f64 + 2.0 * writes as f64) / secs,
        memory: pages as f64,
        disk_io: misses as f64 / secs,
        disk_size: pages as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vector_arithmetic() {
        let a = ResourceVector::new(1.0, 2.0, 3.0, 4.0);
        let b = ResourceVector::new(0.5, 0.5, 0.5, 0.5);
        assert_eq!((a + b).cpu, 1.5);
        assert_eq!((a - b).disk_size, 3.5);
        let mut c = a;
        c += b;
        assert_eq!(c.memory, 2.5);
    }

    #[test]
    fn fits_is_componentwise() {
        let cap = ResourceVector::new(10.0, 10.0, 10.0, 10.0);
        assert!(ResourceVector::new(10.0, 5.0, 0.0, 0.0).fits_in(&cap));
        assert!(!ResourceVector::new(10.1, 0.0, 0.0, 0.0).fits_in(&cap));
        assert!(!ResourceVector::new(0.0, 0.0, 0.0, 11.0).fits_in(&cap));
    }

    #[test]
    fn utilization_takes_max_dimension() {
        let cap = ResourceVector::new(10.0, 100.0, 10.0, 100.0);
        let d = ResourceVector::new(5.0, 90.0, 1.0, 10.0);
        assert!((d.max_utilization(&cap) - 0.9).abs() < 1e-9);
    }

    #[test]
    fn availability_inequality_matches_paper_form() {
        // 2 failures + 1 reallocation per month, 2-minute recovery, 30% writes.
        let period = Duration::from_secs(30 * 24 * 3600);
        let recovery = Duration::from_secs(120);
        let frac = expected_rejected_frac(2.0, 1.0, recovery, period, 0.3);
        let expected = 3.0 * (120.0 / (30.0 * 24.0 * 3600.0)) * 0.3;
        assert!((frac - expected).abs() < 1e-12);
        assert!(availability_ok(2.0, 1.0, recovery, period, 0.3, 0.001));
        assert!(!availability_ok(2.0, 1.0, recovery, period, 0.3, 0.00001));
    }

    #[test]
    fn read_only_workload_never_rejects() {
        // write_mix = 0: Algorithm 1 only rejects writes, so the expected
        // rejected fraction is zero no matter how often machines fail.
        let frac = expected_rejected_frac(
            1000.0,
            1000.0,
            Duration::from_secs(600),
            Duration::from_secs(3600),
            0.0,
        );
        assert_eq!(frac, 0.0);
    }

    #[test]
    fn observation_to_demand() {
        let d = demand_from_observation(1000, 500, 100, 64, Duration::from_secs(10));
        assert!((d.cpu - 200.0).abs() < 1e-9); // (1000 + 2*500)/10
        assert_eq!(d.memory, 64.0);
        assert!((d.disk_io - 10.0).abs() < 1e-9);
        assert_eq!(d.disk_size, 64.0);
    }
}
