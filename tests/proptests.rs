//! Property tests over the stack's core invariants. Seeded (`compat-rand`),
//! so they run offline and in tier-1; a failure names its case number.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use tenantdb::sql::execute;
use tenantdb::storage::{Engine, EngineConfig, StorageError, TxnId, Value};

const CASES: u64 = 64;

#[derive(Debug, Clone)]
enum Op {
    Insert { k: i64, v: i64 },
    Update { k: i64, v: i64 },
    Delete { k: i64 },
    Get { k: i64 },
    CountAll,
    SumAll,
}

fn gen_op(rng: &mut StdRng) -> Op {
    let k = rng.gen_range(0i64..12);
    let v = rng.gen_range(-100i64..100);
    match rng.gen_range(0..6) {
        0 => Op::Insert { k, v },
        1 => Op::Update { k, v },
        2 => Op::Delete { k },
        3 => Op::Get { k },
        4 => Op::CountAll,
        _ => Op::SumAll,
    }
}

fn gen_ops(rng: &mut StdRng, max: usize) -> Vec<Op> {
    (0..rng.gen_range(1..max)).map(|_| gen_op(rng)).collect()
}

fn gen_pairs(
    rng: &mut StdRng,
    len: std::ops::Range<usize>,
    keys: std::ops::Range<i64>,
) -> Vec<(i64, i64)> {
    (0..rng.gen_range(len))
        .map(|_| (rng.gen_range(keys.clone()), rng.gen_range(-50i64..50)))
        .collect()
}

/// An engine with database `db` holding an empty `kv(k, v)` table.
fn kv_engine() -> Engine {
    let engine = Engine::new(EngineConfig::for_tests());
    engine.create_database("db").unwrap();
    let txn = engine.begin().unwrap();
    execute(
        &engine,
        txn,
        "db",
        "CREATE TABLE kv (k INT NOT NULL, v INT, PRIMARY KEY (k))",
        &[],
    )
    .unwrap();
    engine.commit(txn).unwrap();
    engine
}

fn insert_kv(engine: &Engine, txn: TxnId, k: i64, v: i64) -> Result<u64, StorageError> {
    engine.insert(txn, "db", "kv", vec![Value::Int(k), Value::Int(v)])
}

fn scan_kv(engine: &Engine) -> Vec<(u64, Vec<Value>)> {
    engine.with_txn(|t| engine.scan(t, "db", "kv")).unwrap()
}

/// The SQL engine agrees with a trivial in-memory model for arbitrary
/// sequences of single-row operations on a keyed table.
#[test]
fn sql_matches_model() {
    for case in 0..CASES {
        let rng = &mut StdRng::seed_from_u64(case);
        let engine = kv_engine();
        let txn = engine.begin().unwrap();
        let run = |sql: &str, params: &[Value]| execute(&engine, txn, "db", sql, params);
        let mut model: BTreeMap<i64, i64> = BTreeMap::new();

        for op in gen_ops(rng, 60) {
            match op {
                Op::Insert { k, v } => {
                    let r = run(
                        "INSERT INTO kv VALUES (?, ?)",
                        &[Value::Int(k), Value::Int(v)],
                    );
                    let fresh = !model.contains_key(&k);
                    assert_eq!(r.is_ok(), fresh, "case {case}: insert of key {k}: {r:?}");
                    model.entry(k).or_insert(v);
                }
                Op::Update { k, v } => {
                    let r = run(
                        "UPDATE kv SET v = ? WHERE k = ?",
                        &[Value::Int(v), Value::Int(k)],
                    )
                    .unwrap();
                    let expected = u64::from(model.contains_key(&k));
                    assert_eq!(r.rows_affected, expected, "case {case}");
                    if let Some(slot) = model.get_mut(&k) {
                        *slot = v;
                    }
                }
                Op::Delete { k } => {
                    let r = run("DELETE FROM kv WHERE k = ?", &[Value::Int(k)]).unwrap();
                    let expected = u64::from(model.remove(&k).is_some());
                    assert_eq!(r.rows_affected, expected, "case {case}");
                }
                Op::Get { k } => {
                    let r = run("SELECT v FROM kv WHERE k = ?", &[Value::Int(k)]).unwrap();
                    let expected: Vec<Vec<Value>> = model
                        .get(&k)
                        .map(|v| vec![Value::Int(*v)])
                        .into_iter()
                        .collect();
                    assert_eq!(r.rows, expected, "case {case}");
                }
                Op::CountAll => {
                    let r = run("SELECT COUNT(*) FROM kv", &[]).unwrap();
                    assert_eq!(r.rows[0][0], Value::Int(model.len() as i64), "case {case}");
                }
                Op::SumAll => {
                    let r = run("SELECT SUM(v) FROM kv", &[]).unwrap();
                    let expected = if model.is_empty() {
                        Value::Null
                    } else {
                        Value::Int(model.values().sum())
                    };
                    assert_eq!(r.rows[0][0], expected, "case {case}");
                }
            }
        }
        engine.commit(txn).unwrap();
    }
}

/// Abort really undoes arbitrary write sequences.
#[test]
fn abort_restores_pre_transaction_state() {
    for case in 0..CASES {
        let rng = &mut StdRng::seed_from_u64(case);
        let engine = kv_engine();
        let seed_rows: BTreeMap<i64, i64> = gen_pairs(rng, 0..8, 0..10).into_iter().collect();
        engine
            .with_txn(|t| {
                seed_rows
                    .iter()
                    .try_for_each(|(k, v)| insert_kv(&engine, t, *k, *v).map(drop))
            })
            .unwrap();

        // Snapshot, then run a txn with arbitrary writes and abort it.
        let before = scan_kv(&engine);
        let txn = engine.begin().unwrap();
        let run = |sql: &str, params: &[Value]| execute(&engine, txn, "db", sql, params);
        for op in gen_ops(rng, 30) {
            // A statement that fails (duplicate key) is part of the sequence.
            let _ = match op {
                Op::Insert { k, v } => run(
                    "INSERT INTO kv VALUES (?, ?)",
                    &[Value::Int(k), Value::Int(v)],
                ),
                Op::Update { k, v } => run(
                    "UPDATE kv SET v = ? WHERE k = ?",
                    &[Value::Int(v), Value::Int(k)],
                ),
                Op::Delete { k } => run("DELETE FROM kv WHERE k = ?", &[Value::Int(k)]),
                _ => continue,
            };
        }
        engine.abort(txn).unwrap();
        assert_eq!(before, scan_kv(&engine), "case {case}");
    }
}

/// Crash-restart preserves exactly the committed prefix.
#[test]
fn restart_preserves_committed_prefix() {
    for case in 0..CASES {
        let rng = &mut StdRng::seed_from_u64(case);
        let engine = kv_engine();
        let mut model = BTreeMap::new();
        for (k, v) in gen_pairs(rng, 1..15, 0..20) {
            // A duplicate key fails its own transaction and leaves no trace.
            if engine.with_txn(|t| insert_kv(&engine, t, k, v)).is_ok() {
                model.insert(k, v);
            }
        }
        // In-flight txn lost at the crash.
        let t = engine.begin().unwrap();
        for (k, v) in gen_pairs(rng, 0..8, 100..120) {
            let _ = insert_kv(&engine, t, k, v);
        }
        engine.crash();
        engine.restart();

        let got: BTreeMap<i64, i64> = scan_kv(&engine)
            .iter()
            .map(|(_, r)| (r[0].as_i64().unwrap(), r[1].as_i64().unwrap()))
            .collect();
        assert_eq!(got, model, "case {case}");
    }
}

/// ORDER BY really sorts, for arbitrary data.
#[test]
fn order_by_sorts() {
    for case in 0..CASES {
        let rng = &mut StdRng::seed_from_u64(case);
        let mut vals: Vec<i64> = (0..rng.gen_range(1..40))
            .map(|_| rng.gen_range(-1000i64..1000))
            .collect();
        let engine = Engine::new(EngineConfig::for_tests());
        engine.create_database("db").unwrap();
        let txn = engine.begin().unwrap();
        let run = |sql: &str, params: &[Value]| execute(&engine, txn, "db", sql, params).unwrap();
        run(
            "CREATE TABLE t (id INT NOT NULL, x INT, PRIMARY KEY (id))",
            &[],
        );
        for (i, v) in vals.iter().enumerate() {
            run(
                "INSERT INTO t VALUES (?, ?)",
                &[Value::Int(i as i64), Value::Int(*v)],
            );
        }
        let r = run("SELECT x FROM t ORDER BY x", &[]);
        let got: Vec<i64> = r.rows.iter().map(|row| row[0].as_i64().unwrap()).collect();
        vals.sort();
        assert_eq!(got, vals, "case {case}");
        engine.commit(txn).unwrap();
    }
}

/// Equal values hash alike, INT and FLOAT mixed: key locks and hashed group
/// tables rest on it. Drawn from small integers and halves, signed zeros,
/// NaN, and the edge of the range where every integer is a float.
#[test]
fn equal_values_hash_alike() {
    let hash = |v: &Value| {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    };
    let edge = (1i64 << 53) - 1;
    for case in 0..CASES {
        let rng = &mut StdRng::seed_from_u64(case);
        let values: Vec<Value> = (0..48)
            .map(|_| {
                let n = match rng.gen_range(0..3) {
                    0 => edge - rng.gen_range(0i64..2),
                    1 => rng.gen_range(-edge..=-edge + 1),
                    _ => rng.gen_range(-3i64..4),
                };
                match rng.gen_range(0..6) {
                    0 | 1 => Value::Int(n),
                    2 | 3 => Value::Float(n as f64),
                    4 if n.abs() < 4 => Value::Float(n as f64 + 0.5),
                    4 => Value::Float(-0.0),
                    _ => Value::Float(f64::NAN),
                }
            })
            .collect();
        for a in &values {
            for b in &values {
                if a == b {
                    assert_eq!(hash(a), hash(b), "case {case}: {a:?} = {b:?}");
                }
            }
        }
    }
}
