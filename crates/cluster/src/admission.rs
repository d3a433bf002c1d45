//! Per-database SLA admission gates (§4 proactive rejection).
//!
//! The controller keeps one [`AdmissionGate`] per database that has an SLA
//! installed. The table is deliberately invisible until armed: with no SLAs
//! the entry-path check is a single relaxed atomic load, which is what keeps
//! the gate affordable on every transaction (the ≤2% overhead budget;
//! `e2e`'s `sla.gate_us_per_txn` measures it).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use tenantdb_sla::{AdmissionGate, AdmissionParams, Sla};

use crate::sync::{RwLock, CTRL_ADMISSION};

/// The per-cluster admission-gate table.
pub(crate) struct AdmissionTable {
    /// Set once the first SLA is installed; never cleared. Gates the map
    /// read so SLA-free clusters pay one atomic load per transaction.
    armed: AtomicBool,
    /// Operator kill-switch: `false` admits everything while keeping the
    /// gates (and their token state) in place. The stress harness uses it
    /// to demonstrate the starvation the gate prevents.
    enabled: AtomicBool,
    gates: RwLock<HashMap<String, Arc<AdmissionGate>>>,
}

impl AdmissionTable {
    pub(crate) fn new() -> Self {
        AdmissionTable {
            armed: AtomicBool::new(false),
            enabled: AtomicBool::new(true),
            gates: RwLock::new(&CTRL_ADMISSION, HashMap::new()),
        }
    }

    /// Install (or replace) the gate for `db`, derived from its SLA.
    pub(crate) fn install(&self, db: &str, sla: &Sla) {
        let gate = Arc::new(AdmissionGate::new(AdmissionParams::from_sla(sla)));
        self.gates.write().insert(db.to_string(), gate);
        // ordering: SeqCst store pairs with the entry-path load; arming must
        // not be reordered before the gate insert above (the map write's
        // lock release already orders it, SeqCst keeps the intent explicit).
        self.armed.store(true, Ordering::SeqCst);
    }

    /// Drop the gate for `db` (database dropped).
    pub(crate) fn remove(&self, db: &str) {
        if self.armed.load(Ordering::SeqCst) {
            self.gates.write().remove(db);
        }
    }

    /// The gate for `db`, if admission control is armed, enabled, and an
    /// SLA is installed. The fast path (no SLA anywhere) is one relaxed
    /// load and no lock.
    pub(crate) fn gate(&self, db: &str) -> Option<Arc<AdmissionGate>> {
        // ordering: Relaxed — arming is monotonic and the gate map has its
        // own lock; the only cost of a stale `false` is admitting a handful
        // of transactions while the first SLA install propagates.
        if !self.armed.load(Ordering::Relaxed) {
            return None;
        }
        // ordering: Relaxed — the kill-switch is a test/operator knob; a
        // stale read admits or sheds a few transactions around the flip.
        if !self.enabled.load(Ordering::Relaxed) {
            return None;
        }
        self.gates.read().get(db).cloned()
    }

    pub(crate) fn set_enabled(&self, on: bool) {
        // ordering: Relaxed — see `gate`.
        self.enabled.store(on, Ordering::Relaxed);
    }

    pub(crate) fn enabled(&self) -> bool {
        // ordering: Relaxed — see `gate`.
        self.enabled.load(Ordering::Relaxed)
    }
}
