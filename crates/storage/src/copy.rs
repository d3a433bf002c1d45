//! The database copy tool — our `mysqldump`.
//!
//! §3.2 of the paper: replicas are recreated with "an off-the-shelf database
//! copy tool ... During the copy, the tool obtains a read lock on the
//! database/table, copies over the contents, and releases the lock at the
//! end of the copy."
//!
//! Two granularities, matching the Figure 8/9 experiments:
//! * **table-level**: each table is dumped in its own transaction, so the
//!   read lock covers one table at a time (more concurrency with the live
//!   workload, but a longer window in which Algorithm 1 must reject writes
//!   to the in-flight table);
//! * **database-level**: one transaction read-locks *all* tables for the
//!   whole copy.
//!
//! A [`Throttle`] limits copy bandwidth so that recovery realistically
//! overlaps live traffic instead of finishing instantly at our scaled-down
//! database sizes.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::engine::Engine;
use crate::error::Result;
use crate::schema::TableSchema;
use crate::txn::TxnId;
use crate::value::Value;
use crate::wal::RedoOp;

/// Copy-bandwidth limiter: at most `rows_per_sec` rows leave the source.
#[derive(Debug, Clone, Copy)]
pub struct Throttle {
    pub rows_per_sec: u64,
}

impl Throttle {
    pub const UNLIMITED: Throttle = Throttle {
        rows_per_sec: u64::MAX,
    };

    pub fn new(rows_per_sec: u64) -> Self {
        Throttle {
            rows_per_sec: rows_per_sec.max(1),
        }
    }

    /// Sleep long enough that `rows_done` rows have taken at least their
    /// budgeted time since `start`.
    fn pace(&self, start: Instant, rows_done: u64) {
        if self.rows_per_sec == u64::MAX {
            return;
        }
        let budget = Duration::from_secs_f64(rows_done as f64 / self.rows_per_sec as f64);
        let elapsed = start.elapsed();
        if budget > elapsed {
            std::thread::sleep(budget - elapsed);
        }
    }
}

/// A consistent snapshot of one table.
#[derive(Debug, Clone)]
pub struct TableDump {
    pub schema: TableSchema,
    pub rows: Vec<(u64, Vec<Value>)>,
}

/// A consistent snapshot of a whole database.
#[derive(Debug, Clone)]
pub struct DatabaseDump {
    pub db: String,
    pub tables: Vec<TableDump>,
}

impl DatabaseDump {
    pub fn total_rows(&self) -> usize {
        self.tables.iter().map(|t| t.rows.len()).sum()
    }
}

/// Dump one table under its own read lock (one short transaction).
///
/// The scan's table `S` lock is exactly the copy tool's read lock from the
/// paper: concurrent writers to this table block behind it — which is why
/// Algorithm 1 must reject writes to the table being copied rather than let
/// them land on the source only.
pub fn dump_table(engine: &Engine, db: &str, table: &str, throttle: Throttle) -> Result<TableDump> {
    let schema = engine.table(db, table)?.schema.clone();
    engine.with_txn(|txn| {
        let start = Instant::now();
        let rows = engine.scan(txn, db, table)?;
        // Pay the copy bandwidth while the lock is held (as the real tool
        // does: it streams rows out under the lock).
        throttle.pace(start, rows.len() as u64);
        Ok(TableDump { schema, rows })
    })
}

/// Dump every table of a database under one transaction (database-level
/// granularity: all read locks are held until the whole dump finishes).
pub fn dump_database(engine: &Engine, db: &str, throttle: Throttle) -> Result<DatabaseDump> {
    let names = engine.db(db)?.table_names();
    engine.with_txn(|txn| {
        let start = Instant::now();
        let mut rows_done = 0u64;
        let mut tables = Vec::with_capacity(names.len());
        for name in &names {
            let schema = engine.table(db, name)?.schema.clone();
            let rows = engine.scan(txn, db, name)?;
            rows_done += rows.len() as u64;
            throttle.pace(start, rows_done);
            tables.push(TableDump { schema, rows });
        }
        Ok(DatabaseDump {
            db: db.to_string(),
            tables,
        })
    })
}

/// The order a table-level copy takes `db`'s tables in: the largest first,
/// then each time the largest remaining table that no transaction in the
/// source's retained log wrote together with the table just copied (the
/// largest remaining one if every one was); ties go by name.
///
/// Algorithm 1 rejects writes to the table being copied, so tables one
/// transaction writes together, copied back to back, refuse it for the sum
/// of their copies; kept apart, for the longest one.
pub fn table_order(engine: &Engine, db: &str) -> Result<Vec<String>> {
    let database = engine.db(db)?;
    let mut left = Vec::new();
    for name in database.table_names() {
        left.push((engine.table(db, &name)?.row_count(), name));
    }
    left.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));

    let mut written: HashMap<TxnId, Vec<Arc<str>>> = HashMap::new();
    for (txn, table) in database.log.row_writes() {
        let tables = written.entry(txn).or_default();
        if !tables.contains(&table) {
            tables.push(table);
        }
    }
    let mut together: HashMap<Arc<str>, HashSet<Arc<str>>> = HashMap::new();
    for tables in written.values() {
        for table in tables {
            let with = together.entry(Arc::clone(table)).or_default();
            with.extend(tables.iter().cloned());
        }
    }

    let mut order: Vec<String> = Vec::with_capacity(left.len());
    while !left.is_empty() {
        let apart = |last: &String| {
            let with = together.get(last.as_str());
            left.iter()
                .position(|(_, t)| !with.is_some_and(|w| w.contains(t.as_str())))
        };
        let next = order.last().and_then(apart).unwrap_or(0);
        order.push(left.remove(next).1);
    }
    Ok(order)
}

/// Restore one table dump into a target engine, creating the database and
/// table if needed. Row ids are preserved so that later write-all traffic
/// addresses the same rows on every replica.
///
/// The database, the table and every row go through
/// [`Engine::apply_replicated_redo`], so the copy is in the target's log: a
/// crash-restart replays it and a georep shipper re-seeded from this
/// replica ships it. A database or table the target already has is left as
/// it is and logs nothing. A row takes only the database's own table lock,
/// never the catalog's write lock, so the target's other tenants do not
/// wait for the copy.
pub fn restore_table(engine: &Engine, db: &str, dump: &TableDump) -> Result<()> {
    engine.apply_replicated_redo(db, &RedoOp::CreateDatabase)?;
    let schema = Box::new(dump.schema.clone());
    engine.apply_replicated_redo(db, &RedoOp::CreateTable { schema })?;
    let table: Arc<str> = dump.schema.name.as_str().into();
    for (row_id, row) in &dump.rows {
        let insert = RedoOp::Insert {
            table: Arc::clone(&table),
            row_id: *row_id,
            row: row.clone(),
        };
        engine.apply_replicated_redo(db, &insert)?;
    }
    Ok(())
}

/// Restore a whole database dump.
pub fn restore_database(engine: &Engine, dump: &DatabaseDump) -> Result<()> {
    for t in &dump.tables {
        restore_table(engine, &dump.db, t)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::schema::ColumnDef;
    use crate::value::DataType;
    use std::sync::Arc;
    use std::thread;

    fn engine_with_data(rows: i64) -> Engine {
        let e = Engine::new(EngineConfig::for_tests());
        e.create_database("app").unwrap();
        for t in ["a", "b"] {
            let schema = TableSchema::new(
                t,
                vec![
                    ColumnDef::new("k", DataType::Int).not_null(),
                    ColumnDef::new("v", DataType::Text),
                ],
            )
            .with_primary_key(&["k"]);
            e.create_table("app", schema).unwrap();
            e.with_txn(|txn| {
                for i in 0..rows {
                    e.insert(
                        txn,
                        "app",
                        t,
                        vec![Value::Int(i), Value::Text(format!("r{i}"))],
                    )?;
                }
                Ok(())
            })
            .unwrap();
        }
        e
    }

    fn scan_all(e: &Engine, table: &str) -> Vec<(u64, Vec<Value>)> {
        e.with_txn(|txn| e.scan(txn, "app", table)).unwrap()
    }

    /// A restored copy equals its source, row ids included — and still
    /// does after the target crashes and replays its own log (the copy is
    /// in the log, not beneath it).
    #[test]
    fn table_dump_restore_roundtrip() {
        let src = engine_with_data(20);
        let dump = dump_table(&src, "app", "a", Throttle::UNLIMITED).unwrap();
        assert_eq!(dump.rows.len(), 20);
        let dst = Engine::new(EngineConfig::for_tests());
        restore_table(&dst, "app", &dump).unwrap();
        assert_eq!(scan_all(&dst, "a"), scan_all(&src, "a"));
        dst.crash();
        dst.restart();
        assert_eq!(scan_all(&dst, "a"), scan_all(&src, "a"));
    }

    #[test]
    fn database_dump_covers_all_tables() {
        let src = engine_with_data(10);
        let dump = dump_database(&src, "app", Throttle::UNLIMITED).unwrap();
        assert_eq!(dump.tables.len(), 2);
        assert_eq!(dump.total_rows(), 20);
        let dst = Engine::new(EngineConfig::for_tests());
        restore_database(&dst, &dump).unwrap();
        assert_eq!(dst.db("app").unwrap().table_names(), vec!["a", "b"]);
        dst.crash();
        dst.restart();
        for t in ["a", "b"] {
            assert_eq!(scan_all(&dst, t), scan_all(&src, t), "table {t}");
        }
    }

    /// Largest first, but never right after a table some transaction wrote
    /// together with it: `a`, then `c` (one transaction wrote `a` and `b`),
    /// then `b`. Name order would copy `b` right after `a`.
    #[test]
    fn table_order_keeps_tables_written_together_apart() {
        let e = Engine::new(EngineConfig::for_tests());
        e.create_database("app").unwrap();
        let row = |k: i64| vec![Value::Int(k), Value::Null];
        for (t, rows) in [("a", 3), ("b", 2), ("c", 1)] {
            let schema = TableSchema::new(
                t,
                vec![
                    ColumnDef::new("k", DataType::Int).not_null(),
                    ColumnDef::new("v", DataType::Text),
                ],
            )
            .with_primary_key(&["k"]);
            e.create_table("app", schema).unwrap();
            for k in 0..rows {
                e.with_txn(|txn| e.insert(txn, "app", t, row(k))).unwrap();
            }
        }
        e.with_txn(|txn| {
            e.insert(txn, "app", "a", row(100))?;
            e.insert(txn, "app", "b", row(100))
        })
        .unwrap();
        assert_eq!(table_order(&e, "app").unwrap(), ["a", "c", "b"]);
    }

    #[test]
    fn throttle_slows_copy() {
        let src = engine_with_data(50);
        let t0 = Instant::now();
        dump_table(&src, "app", "a", Throttle::new(500)).unwrap();
        // 50 rows at 500 rows/sec >= 100ms.
        assert!(t0.elapsed() >= Duration::from_millis(90));
    }

    #[test]
    fn copy_blocks_writer_on_same_table() {
        let src = Arc::new(engine_with_data(100));
        let src2 = Arc::clone(&src);
        let copier = thread::spawn(move || {
            dump_table(&src2, "app", "a", Throttle::new(400)).unwrap();
        });
        thread::sleep(Duration::from_millis(50));
        // Writer to table "a" blocks until copy completes; writer to "b"
        // proceeds immediately (table-level granularity).
        let t0 = Instant::now();
        src.with_txn(|txn| src.insert(txn, "app", "b", vec![Value::Int(999), Value::Null]))
            .unwrap();
        assert!(
            t0.elapsed() < Duration::from_millis(100),
            "other table not blocked"
        );
        src.with_txn(|txn| src.insert(txn, "app", "a", vec![Value::Int(999), Value::Null]))
            .unwrap();
        copier.join().unwrap();
    }

    #[test]
    fn db_level_copy_blocks_all_tables() {
        let src = Arc::new(engine_with_data(100));
        let src2 = Arc::clone(&src);
        let copier = thread::spawn(move || {
            dump_database(&src2, "app", Throttle::new(300)).unwrap();
        });
        thread::sleep(Duration::from_millis(150));
        // By now table "a" is dumped but its lock is still held (db-level
        // granularity holds every lock until the end).
        let t0 = Instant::now();
        src.with_txn(|txn| src.insert(txn, "app", "a", vec![Value::Int(999), Value::Null]))
            .unwrap();
        assert!(
            t0.elapsed() >= Duration::from_millis(50),
            "write to already-dumped table must still block under db-level copy"
        );
        copier.join().unwrap();
    }

    #[test]
    fn dump_is_transactionally_consistent() {
        // A dump never observes a torn transaction: writers are serialized
        // against the copy lock.
        let src = Arc::new(engine_with_data(10));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let w = {
            let src = Arc::clone(&src);
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let mut i = 1000i64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    // Each txn inserts a *pair*; a consistent snapshot sees
                    // an even number of these rows.
                    let _ = src.with_txn(|txn| {
                        src.insert(txn, "app", "a", vec![Value::Int(i), Value::Null])?;
                        src.insert(txn, "app", "a", vec![Value::Int(i + 1), Value::Null])?;
                        Ok(())
                    });
                    i += 2;
                }
            })
        };
        for _ in 0..5 {
            let dump = dump_table(&src, "app", "a", Throttle::UNLIMITED).unwrap();
            let extra = dump
                .rows
                .iter()
                .filter(|(_, r)| r[0].as_i64().unwrap() >= 1000)
                .count();
            assert_eq!(extra % 2, 0, "snapshot tore a transaction in half");
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        w.join().unwrap();
    }
}
