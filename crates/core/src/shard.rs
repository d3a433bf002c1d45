//! Sharding: applications larger than one machine (§7 future work).
//!
//! The platform's core assumption is that every database fits on a single
//! machine. The paper's conclusion sketches the escape hatch: "extensions to
//! the system architecture that can accommodate 'some' applications that are
//! larger than the capacity of a single machine, while the majority ... can
//! still fit".
//!
//! [`ShardedDatabase`] implements that extension as a routing layer *on top
//! of* the cluster controller — each shard is an ordinary replicated cluster
//! database, so it inherits synchronous replication, 2PC, failure recovery
//! and SLA placement unchanged. The router:
//!
//! * executes DDL on every shard;
//! * routes single-key statements (equality on the table's shard key) to
//!   `hash(key) % shards`;
//! * scatter-gathers key-less reads — plain selects are concatenated
//!   (re-sorted/limited when the ORDER BY keys are output columns), and
//!   `COUNT` / `SUM` / `MIN` / `MAX` aggregates are combined;
//! * distributes key-less writes to every shard (each shard's statement
//!   auto-commits independently — see the transaction rules).
//!
//! **Transaction rules** (the honest limits of the extension, same as early
//! production shard routers): an explicit transaction is pinned to the first
//! shard it touches; statements that would route elsewhere fail with
//! [`ClusterError::TxnAborted`]. Joins execute on the routed shard, which is
//! correct when the schema co-shards related tables (the `shard_keys` map
//! exists precisely so `orders` can be sharded by `o_c_id` next to
//! `customer` by `c_id`).

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use parking_lot::Mutex;

use tenantdb_cluster::{ClusterController, ClusterError, Connection, Result};
use tenantdb_sql::ast::{AggFunc, BinOp, Expr, SelectItem, Statement};
use tenantdb_sql::{parse, QueryResult, StatementClass};
use tenantdb_storage::Value;

/// A database spread over `shards` underlying cluster databases.
pub struct ShardedDatabase {
    cluster: Arc<ClusterController>,
    name: String,
    shard_dbs: Vec<String>,
    /// table -> shard-key column. Tables not listed use their first
    /// PRIMARY KEY column (captured at CREATE TABLE time).
    shard_keys: Mutex<HashMap<String, String>>,
}

impl ShardedDatabase {
    /// Create a sharded database: `shards` cluster databases, each with
    /// `replicas` synchronous replicas.
    pub fn create(
        cluster: &Arc<ClusterController>,
        name: &str,
        shards: usize,
        replicas: usize,
    ) -> Result<Self> {
        let shards = shards.max(1);
        let mut shard_dbs = Vec::with_capacity(shards);
        for i in 0..shards {
            let db = format!("{name}__shard{i}");
            cluster.create_database(&db, replicas)?;
            shard_dbs.push(db);
        }
        Ok(ShardedDatabase {
            cluster: Arc::clone(cluster),
            name: name.to_string(),
            shard_dbs,
            shard_keys: Mutex::new(HashMap::new()),
        })
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn shard_count(&self) -> usize {
        self.shard_dbs.len()
    }

    pub fn shard_databases(&self) -> &[String] {
        &self.shard_dbs
    }

    /// Override the shard key of a table (co-sharding related tables, e.g.
    /// `orders` by `o_c_id`). Must be set before data is inserted.
    pub fn set_shard_key(&self, table: &str, column: &str) {
        self.shard_keys
            .lock()
            .insert(table.to_string(), column.to_string());
    }

    pub fn shard_key(&self, table: &str) -> Option<String> {
        self.shard_keys.lock().get(table).cloned()
    }

    /// Run DDL on every shard. CREATE TABLE also registers the default shard
    /// key (the first PRIMARY KEY column) unless one was set explicitly.
    pub fn ddl(&self, sql: &str) -> Result<()> {
        let stmt = parse(sql)?;
        if let Statement::CreateTable {
            name, primary_key, ..
        } = &stmt
        {
            let mut keys = self.shard_keys.lock();
            if !keys.contains_key(name) {
                if let Some(first) = primary_key.first() {
                    keys.insert(name.clone(), first.clone());
                }
            }
        }
        for db in &self.shard_dbs {
            self.cluster.ddl(db, sql)?;
        }
        Ok(())
    }

    /// Open a routing connection.
    pub fn connect(self: &Arc<Self>) -> Result<ShardedConnection> {
        let conns = self
            .shard_dbs
            .iter()
            .map(|db| self.cluster.connect(db))
            .collect::<Result<Vec<_>>>()?;
        Ok(ShardedConnection {
            sharded: Arc::clone(self),
            conns,
            txn_shard: Mutex::new(None),
        })
    }

    fn shard_of(&self, key: &Value) -> usize {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        (h.finish() % self.shard_dbs.len() as u64) as usize
    }
}

/// A connection that routes statements to shards.
pub struct ShardedConnection {
    sharded: Arc<ShardedDatabase>,
    conns: Vec<Connection>,
    /// Explicit transactions pin to one shard.
    txn_shard: Mutex<Option<usize>>,
}

/// Where a statement must run.
#[derive(Debug, PartialEq, Eq)]
enum Route {
    /// Exactly one shard (key equality or pinned transaction).
    One(usize),
    /// Every shard (key-less statement).
    All,
}

impl ShardedConnection {
    pub fn in_txn(&self) -> bool {
        self.txn_shard.lock().is_some() || self.conns.iter().any(|c| c.in_txn())
    }

    /// Begin an explicit transaction; the shard is chosen lazily by the
    /// first routed statement.
    pub fn begin(&self) -> Result<()> {
        let mut pin = self.txn_shard.lock();
        if pin.is_some() {
            return Err(ClusterError::TxnAborted(
                "BEGIN inside an open transaction".into(),
            ));
        }
        *pin = Some(usize::MAX); // sentinel: pinned-but-unbound
        Ok(())
    }

    pub fn commit(&self) -> Result<()> {
        let mut pin = self.txn_shard.lock();
        match pin.take() {
            None => Err(ClusterError::NoActiveTxn),
            Some(usize::MAX) => Ok(()), // empty transaction
            Some(s) => self.conns[s].commit(),
        }
    }

    pub fn rollback(&self) -> Result<()> {
        let mut pin = self.txn_shard.lock();
        match pin.take() {
            None => Err(ClusterError::NoActiveTxn),
            Some(usize::MAX) => Ok(()),
            Some(s) => self.conns[s].rollback(),
        }
    }

    /// Execute one statement with routing.
    pub fn execute(&self, sql: &str, params: &[Value]) -> Result<QueryResult> {
        let stmt = parse(sql)?;
        if stmt.class() == StatementClass::Ddl {
            return Err(ClusterError::Sql(tenantdb_sql::SqlError::Plan(
                "run DDL through ShardedDatabase::ddl".into(),
            )));
        }
        let route = self.route(&stmt, params)?;
        match route {
            Route::One(shard) => self.execute_on(shard, sql, params),
            Route::All => self.execute_fanout(&stmt, sql, params),
        }
    }

    fn execute_on(&self, shard: usize, sql: &str, params: &[Value]) -> Result<QueryResult> {
        // Bind a pinned-but-unbound transaction to this shard.
        {
            let mut pin = self.txn_shard.lock();
            match *pin {
                Some(usize::MAX) => {
                    self.conns[shard].begin()?;
                    *pin = Some(shard);
                }
                Some(s) if s != shard => {
                    return Err(ClusterError::TxnAborted(format!(
                        "cross-shard transaction: statement routes to shard {shard}, \
                         transaction is pinned to shard {s}"
                    )));
                }
                _ => {}
            }
        }
        self.conns[shard].execute(sql, params)
    }

    fn execute_fanout(&self, stmt: &Statement, sql: &str, params: &[Value]) -> Result<QueryResult> {
        if self.txn_shard.lock().is_some() {
            return Err(ClusterError::TxnAborted(
                "cross-shard transaction: key-less statement inside an explicit transaction".into(),
            ));
        }
        match stmt {
            Statement::Select(sel) => {
                let mergeable_aggregate = !sel.items.is_empty()
                    && sel.group_by.is_empty()
                    && sel.items.iter().all(|i| {
                        matches!(
                            i,
                            SelectItem::Expr {
                                expr: Expr::Agg {
                                    func: AggFunc::Count
                                        | AggFunc::Sum
                                        | AggFunc::Min
                                        | AggFunc::Max,
                                    ..
                                },
                                ..
                            }
                        )
                    });
                let has_aggregate =
                    sel.items.iter().any(
                        |i| matches!(i, SelectItem::Expr { expr, .. } if expr.has_aggregate()),
                    ) || !sel.group_by.is_empty();
                if has_aggregate && !mergeable_aggregate {
                    return Err(ClusterError::Sql(tenantdb_sql::SqlError::Plan(
                        "cross-shard GROUP BY/AVG not supported; route by shard key".into(),
                    )));
                }
                let mut partials = Vec::with_capacity(self.conns.len());
                for conn in &self.conns {
                    partials.push(conn.execute(sql, params)?);
                }
                if mergeable_aggregate {
                    merge_aggregates(sel, partials)
                } else {
                    merge_rows(sel, partials)
                }
            }
            Statement::Insert { .. } => Err(ClusterError::Sql(tenantdb_sql::SqlError::Plan(
                "INSERT must carry the table's shard key".into(),
            ))),
            Statement::Update { .. } | Statement::Delete { .. } => {
                // Distributed write: each shard auto-commits independently.
                let mut total = QueryResult::default();
                for conn in &self.conns {
                    let r = conn.execute(sql, params)?;
                    total.rows_affected += r.rows_affected;
                }
                Ok(total)
            }
            _ => Err(ClusterError::Sql(tenantdb_sql::SqlError::Plan(
                "unsupported fan-out statement".into(),
            ))),
        }
    }

    /// Decide where a statement runs: extract the shard-key equality if any.
    fn route(&self, stmt: &Statement, params: &[Value]) -> Result<Route> {
        let sharded = &self.sharded;
        let key_of = |table: &str| sharded.shard_key(table);
        let shard_for = |key: &Value| sharded.shard_of(key);

        let key_from_filter = |table: &str, filter: Option<&Expr>| -> Result<Option<usize>> {
            let Some(col) = key_of(table) else {
                return Ok(None);
            };
            let Some(filter) = filter else {
                return Ok(None);
            };
            for c in filter.conjuncts() {
                if let Expr::Binary {
                    op: BinOp::Eq,
                    left,
                    right,
                } = c
                {
                    for (a, b) in [(left, right), (right, left)] {
                        if let Expr::Column { name, .. } = a.as_ref() {
                            if name.eq_ignore_ascii_case(&col) {
                                if let Some(v) = const_value(b, params)? {
                                    return Ok(Some(shard_for(&v)));
                                }
                            }
                        }
                    }
                }
            }
            Ok(None)
        };

        match stmt {
            Statement::Insert {
                table,
                columns,
                values,
            } => {
                let col = key_of(table).ok_or_else(|| {
                    ClusterError::Sql(tenantdb_sql::SqlError::Plan(format!(
                        "table {table} has no shard key; create it through ddl() first"
                    )))
                })?;
                // Determine the key's position in the VALUES tuples.
                let pos = match columns {
                    Some(cols) => cols.iter().position(|c| c.eq_ignore_ascii_case(&col)),
                    None => {
                        // Schema order: resolve via any shard's engine schema.
                        let db = &self.sharded.shard_dbs[0];
                        let replica = self.sharded.cluster.alive_replicas(db)?;
                        let m = self.sharded.cluster.machine(replica[0])?;
                        m.engine.table(db, table)?.schema.column_index(&col)
                    }
                };
                let pos = pos.ok_or_else(|| {
                    ClusterError::Sql(tenantdb_sql::SqlError::Plan(format!(
                        "INSERT into {table} must include shard key {col}"
                    )))
                })?;
                let mut shard = None;
                for row in values {
                    let v = const_value(&row[pos], params)?.ok_or_else(|| {
                        ClusterError::Sql(tenantdb_sql::SqlError::Plan(
                            "shard key must be a literal or parameter".into(),
                        ))
                    })?;
                    let s = shard_for(&v);
                    if shard.is_some_and(|prev| prev != s) {
                        return Err(ClusterError::Sql(tenantdb_sql::SqlError::Plan(
                            "multi-row INSERT spans shards; split it".into(),
                        )));
                    }
                    shard = Some(s);
                }
                Ok(Route::One(shard.expect("non-empty VALUES")))
            }
            Statement::Update { table, filter, .. } | Statement::Delete { table, filter } => {
                match key_from_filter(table, filter.as_ref())? {
                    Some(s) => Ok(Route::One(s)),
                    None => Ok(Route::All),
                }
            }
            Statement::Select(sel) => match key_from_filter(&sel.from.name, sel.filter.as_ref())? {
                Some(s) => Ok(Route::One(s)),
                None if sel.joins.is_empty() => Ok(Route::All),
                None => Err(ClusterError::Sql(tenantdb_sql::SqlError::Plan(
                    "cross-shard join: joins require a shard-key equality on the base table".into(),
                ))),
            },
            _ => Ok(Route::All),
        }
    }
}

/// Evaluate an expression that must be row-independent (literal/param
/// math) — through the SQL layer's own bound-expression evaluator.
fn const_value(e: &Expr, params: &[Value]) -> Result<Option<Value>> {
    tenantdb_sql::eval::const_value(e, params).map_err(ClusterError::Sql)
}

/// Combine per-shard single-row aggregate results.
fn merge_aggregates(
    sel: &tenantdb_sql::ast::SelectStmt,
    partials: Vec<QueryResult>,
) -> Result<QueryResult> {
    let first = partials.first().cloned().unwrap_or_default();
    let mut merged: Vec<Value> = first.rows.first().cloned().unwrap_or_default();
    for p in partials.iter().skip(1) {
        let row = p.rows.first().cloned().unwrap_or_default();
        for (i, item) in sel.items.iter().enumerate() {
            let SelectItem::Expr {
                expr: Expr::Agg { func, .. },
                ..
            } = item
            else {
                continue;
            };
            let (a, b) = (merged[i].clone(), row[i].clone());
            merged[i] = match func {
                AggFunc::Count | AggFunc::Sum => match (a, b) {
                    (Value::Null, x) | (x, Value::Null) => x,
                    (Value::Int(x), Value::Int(y)) => Value::Int(x + y),
                    (x, y) => Value::Float(x.as_f64().unwrap_or(0.0) + y.as_f64().unwrap_or(0.0)),
                },
                AggFunc::Min => match (a, b) {
                    (Value::Null, x) | (x, Value::Null) => x,
                    (x, y) => {
                        if x.total_cmp(&y).is_le() {
                            x
                        } else {
                            y
                        }
                    }
                },
                AggFunc::Max => match (a, b) {
                    (Value::Null, x) | (x, Value::Null) => x,
                    (x, y) => {
                        if x.total_cmp(&y).is_ge() {
                            x
                        } else {
                            y
                        }
                    }
                },
                AggFunc::Avg => unreachable!("rejected before fan-out"),
            };
        }
    }
    Ok(QueryResult {
        columns: first.columns,
        rows: vec![merged],
        ..Default::default()
    })
}

/// Concatenate per-shard plain-select results; re-apply ORDER BY (when its
/// keys are output columns) and LIMIT.
fn merge_rows(
    sel: &tenantdb_sql::ast::SelectStmt,
    partials: Vec<QueryResult>,
) -> Result<QueryResult> {
    let columns = partials
        .first()
        .map(|p| p.columns.clone())
        .unwrap_or_default();
    let mut rows: Vec<Vec<Value>> = partials.into_iter().flat_map(|p| p.rows).collect();
    if !sel.order_by.is_empty() {
        let mut key_idx = Vec::new();
        for k in &sel.order_by {
            let Expr::Column { table: None, name } = &k.expr else {
                return Err(ClusterError::Sql(tenantdb_sql::SqlError::Plan(
                    "cross-shard ORDER BY must use output column names".into(),
                )));
            };
            let idx = columns
                .iter()
                .position(|c| c.eq_ignore_ascii_case(name))
                .ok_or_else(|| {
                    ClusterError::Sql(tenantdb_sql::SqlError::Plan(format!(
                        "ORDER BY {name} is not an output column"
                    )))
                })?;
            key_idx.push((idx, k.desc));
        }
        rows.sort_by(|a, b| {
            for &(i, desc) in &key_idx {
                let ord = a[i].total_cmp(&b[i]);
                if !ord.is_eq() {
                    return if desc { ord.reverse() } else { ord };
                }
            }
            std::cmp::Ordering::Equal
        });
    }
    if sel.distinct {
        let mut seen = std::collections::BTreeSet::new();
        rows.retain(|r| seen.insert(r.clone()));
    }
    if let Some(limit) = sel.limit {
        rows.truncate(limit as usize);
    }
    Ok(QueryResult {
        columns,
        rows,
        ..Default::default()
    })
}
