//! Concurrency stress tests for the storage engine: the invariants that the
//! whole platform's correctness rests on.

use std::collections::HashMap;
use std::ops::ControlFlow;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use tenantdb_storage::{
    ColumnDef, DataType, Direction, Engine, EngineConfig, LockManager, LockMode, ResourceId,
    StorageError, TableSchema, TxnId, Value,
};

fn engine() -> Arc<Engine> {
    let e = Engine::new(EngineConfig::for_tests());
    e.create_database("db").unwrap();
    e.create_table(
        "db",
        TableSchema::new(
            "t",
            vec![
                ColumnDef::new("k", DataType::Int).not_null(),
                ColumnDef::new("v", DataType::Int),
            ],
        )
        .with_primary_key(&["k"]),
    )
    .unwrap();
    Arc::new(e)
}

/// The classic lost-update test: N threads each increment a counter row M
/// times under read-modify-write transactions. Strict 2PL must serialize
/// them perfectly: the final value equals the number of successful commits.
#[test]
fn no_lost_updates_under_contention() {
    let e = engine();
    e.with_txn(|t| {
        e.insert(t, "db", "t", vec![Value::Int(1), Value::Int(0)])
            .map(|_| ())
    })
    .unwrap();

    let threads = 4;
    let per_thread = 50;
    let mut handles = Vec::new();
    for _ in 0..threads {
        let e = Arc::clone(&e);
        handles.push(thread::spawn(move || {
            let mut committed = 0u64;
            for _ in 0..per_thread {
                // Retry loop: deadlock victims try again.
                loop {
                    let r = (|| -> tenantdb_storage::Result<()> {
                        let txn = e.begin()?;
                        let result = (|| {
                            let rows =
                                e.index_lookup(txn, "db", "t", "pk", &[Value::Int(1)], true)?;
                            let (rid, row) = rows.first().cloned().expect("row exists");
                            let v = row[1].as_i64().unwrap();
                            e.update(txn, "db", "t", rid, vec![Value::Int(1), Value::Int(v + 1)])
                        })();
                        match result {
                            Ok(()) => e.commit(txn),
                            Err(err) => {
                                let _ = e.abort(txn);
                                Err(err)
                            }
                        }
                    })();
                    match r {
                        Ok(()) => {
                            committed += 1;
                            break;
                        }
                        Err(StorageError::Deadlock(_)) | Err(StorageError::LockTimeout(_)) => {
                            continue;
                        }
                        Err(other) => panic!("unexpected: {other}"),
                    }
                }
            }
            committed
        }));
    }
    let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert_eq!(total, threads * per_thread);

    let txn = e.begin().unwrap();
    let rows = e
        .index_lookup(txn, "db", "t", "pk", &[Value::Int(1)], false)
        .unwrap();
    e.commit(txn).unwrap();
    assert_eq!(
        rows[0].1[1],
        Value::Int((threads * per_thread) as i64),
        "lost update detected"
    );
}

/// Unique-index enforcement under concurrent inserters: exactly one of N
/// racing transactions may claim each key.
#[test]
fn unique_keys_claimed_exactly_once() {
    let e = engine();
    let mut handles = Vec::new();
    for _ in 0..4 {
        let e = Arc::clone(&e);
        handles.push(thread::spawn(move || {
            let mut wins = 0;
            for k in 0..25i64 {
                let r = e.with_txn(|t| {
                    e.insert(t, "db", "t", vec![Value::Int(k), Value::Int(0)])
                        .map(|_| ())
                });
                if r.is_ok() {
                    wins += 1;
                }
            }
            wins
        }));
    }
    let total: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert_eq!(total, 25, "each key claimed exactly once across threads");
    let txn = e.begin().unwrap();
    assert_eq!(e.scan(txn, "db", "t").unwrap().len(), 25);
    e.commit(txn).unwrap();
}

/// Scans are serializable snapshots: a pair-inserting workload never tears.
#[test]
fn scans_never_observe_torn_transactions() {
    let e = engine();
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let writer = {
        let e = Arc::clone(&e);
        let stop = Arc::clone(&stop);
        thread::spawn(move || {
            let mut k = 0i64;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let _ = e.with_txn(|t| {
                    e.insert(t, "db", "t", vec![Value::Int(k), Value::Int(k)])?;
                    e.insert(t, "db", "t", vec![Value::Int(k + 1), Value::Int(k + 1)])?;
                    Ok(())
                });
                k += 2;
            }
        })
    };
    for _ in 0..30 {
        let txn = e.begin().unwrap();
        let n = e.scan(txn, "db", "t").unwrap().len();
        e.commit(txn).unwrap();
        assert_eq!(n % 2, 0, "scan observed half of a pair-insert transaction");
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    writer.join().unwrap();
}

/// CREATE INDEX on a populated table survives crash-restart (WAL replay
/// rebuilds the index) and indexes data written both before and after.
#[test]
fn create_index_is_durable_and_complete() {
    let e = engine();
    e.with_txn(|t| {
        for k in 0..20i64 {
            e.insert(t, "db", "t", vec![Value::Int(k), Value::Int(k % 5)])?;
        }
        Ok(())
    })
    .unwrap();
    e.create_index("db", "t", "by_v", &["v".to_string()], false)
        .unwrap();
    // Index works on pre-existing data.
    let txn = e.begin().unwrap();
    let hits = e
        .index_lookup(txn, "db", "t", "by_v", &[Value::Int(3)], false)
        .unwrap();
    e.commit(txn).unwrap();
    assert_eq!(hits.len(), 4);
    // New writes maintain it.
    e.with_txn(|t| {
        e.insert(t, "db", "t", vec![Value::Int(100), Value::Int(3)])
            .map(|_| ())
    })
    .unwrap();
    // Crash and restart: replay must rebuild table + index + contents.
    e.crash();
    e.restart();
    let txn = e.begin().unwrap();
    let hits = e
        .index_lookup(txn, "db", "t", "by_v", &[Value::Int(3)], false)
        .unwrap();
    e.commit(txn).unwrap();
    assert_eq!(hits.len(), 5, "index incomplete after restart");
}

/// Lock-manager soak: random lock/unlock traffic with deadlock-victim
/// retries always drains (no stuck waiter, no leaked grant).
#[test]
fn lock_manager_soak_drains_clean() {
    let lm = Arc::new(LockManager::new(Duration::from_millis(500)));
    let mut handles = Vec::new();
    for t in 0..6u64 {
        let lm = Arc::clone(&lm);
        handles.push(thread::spawn(move || {
            let mut x = t.wrapping_mul(0x9E3779B97F4A7C15) | 1;
            let mut rand = move || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            for i in 0..200 {
                let txn = TxnId(t * 1_000 + i);
                let mut ok = true;
                for _ in 0..(rand() % 3 + 1) {
                    let row = rand() % 6;
                    let mode = if rand() % 2 == 0 {
                        LockMode::S
                    } else {
                        LockMode::X
                    };
                    if lm
                        .acquire(txn, ResourceId::Row { table: 1, row }, mode)
                        .is_err()
                    {
                        ok = false;
                        break;
                    }
                }
                let _ = ok;
                lm.release_all(txn);
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(lm.waiter_count(), 0, "waiters leaked after drain");
    // Every resource is grantable again.
    lm.acquire(TxnId(999_999), ResourceId::Table { table: 1 }, LockMode::X)
        .unwrap();
    lm.release_all(TxnId(999_999));
}

/// What each stress transaction holds, as its thread saw the grants:
/// resource -> (txn, mode) per granted request.
type Shadow = std::sync::Mutex<HashMap<ResourceId, Vec<(TxnId, LockMode)>>>;

/// Record a grant after checking it against every other holder's modes.
fn shadow_grant(shadow: &Shadow, txn: TxnId, res: ResourceId, mode: LockMode) {
    let mut s = shadow.lock().unwrap();
    let holders = s.entry(res).or_default();
    for &(other, held) in holders.iter() {
        assert!(
            other == txn || mode.compatible(held),
            "{txn} got {mode:?} on {res:?} while {other} holds {held:?}"
        );
    }
    holders.push((txn, mode));
}

/// Forget `txn`'s grants that `keep` rejects. Runs before the lock manager
/// releases them, so the shadow never lists a lock that is gone.
fn shadow_release(shadow: &Shadow, txn: TxnId, keep: impl Fn(LockMode) -> bool) {
    for holders in shadow.lock().unwrap().values_mut() {
        holders.retain(|&(t, m)| t != txn || keep(m));
    }
}

/// Lock-table stress that checks every grant, not only the drain: point
/// reads (table IS, row S), point writes (table IX, row X), S→X upgrades on
/// one row, table scans (table S) and a read-lock release mid-transaction,
/// with deadlock victims and timeouts aborting.
#[test]
fn lock_manager_grants_are_never_incompatible() {
    let lm = Arc::new(LockManager::new(Duration::from_millis(300)));
    let shadow = Arc::new(Shadow::default());
    let tbl = |table| ResourceId::Table { table };
    let row = |table, row| ResourceId::Row { table, row };
    let mut handles = Vec::new();
    for t in 0..6u64 {
        let (lm, shadow) = (Arc::clone(&lm), Arc::clone(&shadow));
        handles.push(thread::spawn(move || {
            let mut x = t.wrapping_mul(0x9E3779B97F4A7C15) | 1;
            let mut rand = move || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            for i in 0..150 {
                let txn = TxnId(t * 1_000 + i);
                'txn: for _ in 0..(rand() % 4 + 1) {
                    let (table, r) = (rand() % 2, rand() % 5);
                    let steps: &[(ResourceId, LockMode)] = &match rand() % 5 {
                        0 => [(tbl(table), LockMode::IS), (row(table, r), LockMode::S)],
                        1 => [(tbl(table), LockMode::IX), (row(table, r), LockMode::X)],
                        2 => [(row(table, r), LockMode::S), (row(table, r), LockMode::X)],
                        3 => [(tbl(table), LockMode::S), (tbl(table), LockMode::S)],
                        _ => {
                            shadow_release(&shadow, txn, |m| {
                                !matches!(m, LockMode::S | LockMode::IS)
                            });
                            lm.release_read_locks(txn);
                            continue;
                        }
                    };
                    for &(res, mode) in steps {
                        if lm.acquire(txn, res, mode).is_err() {
                            break 'txn;
                        }
                        shadow_grant(&shadow, txn, res, mode);
                    }
                }
                shadow_release(&shadow, txn, |_| false);
                lm.release_all(txn);
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(lm.waiter_count(), 0, "waiters leaked after drain");
    for table in 0..2 {
        lm.acquire(TxnId(999_999), tbl(table), LockMode::X).unwrap();
    }
    lm.release_all(TxnId(999_999));
}

/// `Engine::crash` releases a transaction that is blocked on another
/// thread: its wait entry goes at once, and the blocked acquire still
/// returns within its timeout.
#[test]
fn release_all_of_a_blocked_txn_drops_its_wait() {
    let timeout = Duration::from_millis(200);
    let lm = Arc::new(LockManager::new(timeout));
    let res = ResourceId::Row { table: 1, row: 1 };
    lm.acquire(TxnId(1), res, LockMode::X).unwrap();
    let blocked = {
        let lm = Arc::clone(&lm);
        thread::spawn(move || {
            let start = Instant::now();
            let got = lm.acquire(TxnId(2), res, LockMode::S);
            (got, start.elapsed())
        })
    };
    let deadline = Instant::now() + Duration::from_secs(2);
    while lm.waiter_count() != 1 {
        assert!(Instant::now() < deadline, "txn 2 never blocked");
        thread::yield_now();
    }
    lm.release_all(TxnId(2));
    assert_eq!(lm.waiter_count(), 0, "the released txn still waits");
    let (got, waited) = blocked.join().unwrap();
    assert_eq!(got, Err(StorageError::LockTimeout(TxnId(2))));
    assert!(waited < timeout * 5, "blocked for {waited:?}");
    assert_eq!(lm.held_modes(TxnId(1), res), vec![LockMode::X]);
    assert!(lm.held_modes(TxnId(2), res).is_empty());
}

/// Crash during an in-flight copy leaves the source untouched (the dump txn
/// simply aborts).
#[test]
fn crash_during_copy_is_clean() {
    let e = engine();
    e.with_txn(|t| {
        for k in 0..200i64 {
            e.insert(t, "db", "t", vec![Value::Int(k), Value::Int(k)])?;
        }
        Ok(())
    })
    .unwrap();
    let e2 = Arc::clone(&e);
    let copier = thread::spawn(move || {
        tenantdb_storage::dump_table(&e2, "db", "t", tenantdb_storage::Throttle::new(500))
    });
    thread::sleep(Duration::from_millis(50));
    e.crash();
    // The copier errors out (engine unavailable at commit) or finished early.
    let _ = copier.join().unwrap();
    e.restart();
    let txn = e.begin().unwrap();
    assert_eq!(e.scan(txn, "db", "t").unwrap().len(), 200);
    e.commit(txn).unwrap();
}

/// `orders (o_id pk, o_c_id, note)` with a non-unique index on `o_c_id`,
/// orders 1..=5 under customer 7 and one under customer 8.
fn orders() -> Arc<Engine> {
    let e = Engine::new(EngineConfig::for_tests());
    e.create_database("db").unwrap();
    e.create_table(
        "db",
        TableSchema::new(
            "orders",
            vec![
                ColumnDef::new("o_id", DataType::Int).not_null(),
                ColumnDef::new("o_c_id", DataType::Int).not_null(),
                ColumnDef::new("note", DataType::Text),
            ],
        )
        .with_primary_key(&["o_id"])
        .with_index("by_customer", &["o_c_id"], false),
    )
    .unwrap();
    e.with_txn(|t| {
        for (o_id, customer) in [(3, 7), (1, 7), (5, 7), (9, 8), (2, 7), (4, 7)] {
            e.insert(t, "db", "orders", order(o_id, customer, "new"))?;
        }
        Ok(())
    })
    .unwrap();
    Arc::new(e)
}

fn order(o_id: i64, customer: i64, note: &str) -> Vec<Value> {
    vec![Value::Int(o_id), Value::Int(customer), Value::from(note)]
}

/// The first `limit` order ids under customer 7, newest first: an ordered
/// walk that stops at `limit`.
fn newest(e: &Engine, txn: TxnId, limit: usize) -> Vec<i64> {
    let h = e.open_table("db", "orders").unwrap();
    let by_customer = h.table().index_ordinal("by_customer").unwrap();
    let mut ids = Vec::new();
    e.lookup_with(
        txn,
        &h,
        by_customer,
        &[Value::Int(7)],
        false,
        Direction::Backward,
        |_, row| {
            ids.push(row[0].as_i64().unwrap());
            Ok::<_, StorageError>(if ids.len() == limit {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            })
        },
    )
    .unwrap();
    ids
}

fn row_id_of(e: &Engine, o_id: i64) -> u64 {
    let txn = e.begin().unwrap();
    let hit = e
        .index_lookup(txn, "db", "orders", "pk", &[Value::Int(o_id)], false)
        .unwrap();
    e.commit(txn).unwrap();
    hit[0].0
}

fn wait_for_waiters(e: &Engine, n: usize) {
    let deadline = Instant::now() + Duration::from_secs(2);
    while e.locks().waiter_count() != n {
        assert!(Instant::now() < deadline, "expected {n} blocked writers");
        thread::yield_now();
    }
}

/// A walk that stopped at LIMIT row-locks only what it visited, and is
/// still repeatable: whatever could change which row comes first under the
/// key waits for the key lock, everything else goes ahead.
#[test]
fn a_stopped_walk_is_repeatable_and_locks_only_what_it_visited() {
    let e = orders();
    let (oldest, second) = (row_id_of(&e, 1), row_id_of(&e, 2));
    let t1 = e.begin().unwrap();
    let before = e.locks().stats().acquisitions;
    assert_eq!(newest(&e, t1, 1), [5]);
    assert_eq!(
        e.locks().stats().acquisitions - before,
        3,
        "table IS, key S, one row S — not one per order"
    );

    // A non-key column of an unvisited row: no lock of T1's is in the way.
    e.with_txn(|t| e.update(t, "db", "orders", second, order(2, 7, "shipped")))
        .unwrap();
    // An insert under the key waits (phantom protection, as ever) ...
    let inserter = {
        let e = Arc::clone(&e);
        thread::spawn(move || e.with_txn(|t| e.insert(t, "db", "orders", order(6, 7, "new"))))
    };
    wait_for_waiters(&e, 1);
    // ... and so does a primary-key update of an unvisited row: its entry
    // would move under the key, here to the front.
    let mover = {
        let e = Arc::clone(&e);
        thread::spawn(move || {
            e.with_txn(|t| e.update(t, "db", "orders", oldest, order(10, 7, "new")))
        })
    };
    wait_for_waiters(&e, 2);

    assert_eq!(newest(&e, t1, 1), [5], "the stopped walk repeats");
    assert_eq!(newest(&e, t1, 2), [5, 4], "and goes on as it would have");
    e.commit(t1).unwrap();
    inserter.join().unwrap().unwrap();
    mover.join().unwrap().unwrap();
    let t2 = e.begin().unwrap();
    assert_eq!(newest(&e, t2, 3), [10, 6, 5]);
    e.commit(t2).unwrap();
}

/// A FLOAT column stores INTs as they come, and `5` equals `5.0`: a lookup
/// of `5.0` must key-lock what an insert of `5` key-locks, or the insert
/// slips in under a held lookup — a phantom on repeating it.
#[test]
fn a_float_key_lock_covers_the_equal_int() {
    let e = Engine::new(EngineConfig::for_tests());
    e.create_database("db").unwrap();
    e.create_table(
        "db",
        TableSchema::new(
            "m",
            vec![
                ColumnDef::new("k", DataType::Int).not_null(),
                ColumnDef::new("f", DataType::Float),
            ],
        )
        .with_primary_key(&["k"])
        .with_index("by_f", &["f"], false),
    )
    .unwrap();
    let e = Arc::new(e);
    let lookup = |txn| {
        e.index_lookup(txn, "db", "m", "by_f", &[Value::Float(5.0)], false)
            .unwrap()
            .len()
    };
    let t1 = e.begin().unwrap();
    assert_eq!(lookup(t1), 0);
    let inserter = {
        let e = Arc::clone(&e);
        thread::spawn(move || {
            e.with_txn(|t| e.insert(t, "db", "m", vec![Value::Int(1), Value::Int(5)]))
        })
    };
    wait_for_waiters(&e, 1);
    assert_eq!(lookup(t1), 0, "the lookup repeats");
    e.commit(t1).unwrap();
    inserter.join().unwrap().unwrap();
    let t2 = e.begin().unwrap();
    assert_eq!(lookup(t2), 1);
    e.commit(t2).unwrap();
}

/// Index order is a function of the data: crash replay rebuilds it.
#[test]
fn crash_replay_rebuilds_the_same_index_order() {
    let e = orders();
    let oldest = row_id_of(&e, 1);
    e.with_txn(|t| e.update(t, "db", "orders", oldest, order(10, 7, "new")))
        .unwrap();
    e.with_txn(|t| e.delete(t, "db", "orders", row_id_of(&e, 3)))
        .unwrap();
    let read = |e: &Engine| {
        let txn = e.begin().unwrap();
        let ids = newest(e, txn, 9);
        e.commit(txn).unwrap();
        ids
    };
    assert_eq!(read(&e), [10, 5, 4, 2]);
    e.crash();
    e.restart();
    assert_eq!(read(&e), [10, 5, 4, 2]);
}
