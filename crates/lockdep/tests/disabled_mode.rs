//! Disabled-mode semantics, in a dedicated process: the enable flag is
//! global, so these cases can't share a test binary with the enabled-mode
//! unit suite.

use std::time::{Duration, Instant};

use tenantdb_lockdep::{
    assert_may_block, disable, enable, held_ranks, mark_reactor, LockClass, OrderedCondvar,
    OrderedMutex,
};

static OUTER: LockClass = LockClass::new("disabled.outer", 10);
static INNER: LockClass = LockClass::new("disabled.inner", 20);

#[test]
fn disabled_mode_checks_and_records_nothing() {
    disable();
    let a = OrderedMutex::new(&OUTER, 1);
    let b = OrderedMutex::new(&INNER, 2);
    {
        // Would be a rank inversion if checking were on.
        let gb = b.lock();
        let ga = a.lock();
        assert_eq!(*ga + *gb, 3);
        assert!(held_ranks().is_empty(), "no stack recorded when disabled");
    }

    // The reactor mark is just as quiet: a marked thread waits unchallenged.
    std::thread::spawn(|| {
        mark_reactor();
        let m = OrderedMutex::new(&OUTER, ());
        let cv = OrderedCondvar::new();
        let _ = cv.wait_until(&mut m.lock(), Instant::now() + Duration::from_millis(1));
        assert_may_block("a sleep");
    })
    .join()
    .expect("no assertion fires while disabled");

    // Re-enabling mid-run must not unbalance anything: guards acquired
    // while disabled popped nothing, and fresh acquisitions are tracked.
    let gb = b.lock(); // acquired disabled
    enable();
    drop(gb); // releases without a matching registration: no-op
    let ga = a.lock();
    assert_eq!(held_ranks(), vec![10]);
    drop(ga);
    assert!(held_ranks().is_empty());
}
