//! The executor: [`run`] walks a [`Plan`] against a
//! [`tenantdb_storage::Engine`] inside a caller supplied transaction, so
//! every SQL statement acquires real strict-2PL locks.
//!
//! Nothing is decided here — the plan names the tables, the access paths,
//! the offsets — and nothing is looked up twice: each table is resolved to
//! a storage handle once per statement, rows are evaluated where the engine
//! holds them, and a row is cloned only if it survives its predicate (a
//! joined row) or, for a single-table query, not at all: only the projected
//! values are. Where the plan says its access path already yields the ORDER
//! BY order, rows are neither sorted nor fetched beyond LIMIT; where it has
//! to sort under a LIMIT, only the rows that can still make the answer are
//! kept. Grouped rows fold into dense group slots, and only the groups the
//! answer returns are projected.

use std::cmp::Ordering;
use std::collections::hash_map::RandomState;
use std::collections::{BTreeSet, BinaryHeap};
use std::hash::{BuildHasher, Hash, Hasher};
use std::ops::ControlFlow;
use std::sync::Arc;

use tenantdb_storage::{Database, Direction, Engine, TableHandle, TxnId, Value};

use crate::ast::{JoinKind, Statement};
use crate::error::{Result, SqlError};
use crate::eval::{accepts, eval, AggState, BoundExpr, Env, Row};
use crate::parser::parse;
use crate::plan::{
    plan, Access, Grouping, InsertPlan, Item, JoinPlan, JoinStrategy, Node, Plan, SelectPlan,
    SortKey, TableRef, Target, UpdatePlan,
};

/// `(table, row_id)` of the rows a statement touched; the table name is the
/// plan's, shared.
pub type Touched = Vec<(Arc<str>, u64)>;

/// Result of executing one statement.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QueryResult {
    /// Output column names (empty for DML/DDL), shared with the plan.
    pub columns: Arc<[String]>,
    /// Result rows (empty for DML/DDL).
    pub rows: Vec<Vec<Value>>,
    /// Rows inserted/updated/deleted.
    pub rows_affected: u64,
    /// Every row this statement read (S/X locked). Collected only by
    /// [`run_recording`], for the cluster controller's history recorder;
    /// empty otherwise.
    pub touched_reads: Touched,
    /// Every row this statement wrote (as `touched_reads`).
    pub touched_writes: Touched,
}

impl QueryResult {
    /// First value of the first row, if any (convenience for lookups).
    pub fn scalar(&self) -> Option<&Value> {
        self.rows.first().and_then(|r| r.first())
    }
}

/// Parse, plan and execute one SQL statement inside `txn` against
/// database `db`.
pub fn execute(
    engine: &Engine,
    txn: TxnId,
    db: &str,
    sql: &str,
    params: &[Value],
) -> Result<QueryResult> {
    execute_stmt(engine, txn, db, &parse(sql)?, params)
}

/// Plan and execute a parsed statement: [`plan`] + [`run`], nothing cached.
pub fn execute_stmt(
    engine: &Engine,
    txn: TxnId,
    db: &str,
    stmt: &Statement,
    params: &[Value],
) -> Result<QueryResult> {
    run(engine, txn, &plan(engine, db, stmt)?, params)
}

/// Execute `plan` inside `txn`. The one executor: every statement of every
/// session and replica comes through here (or through [`run_recording`],
/// which is the same walk).
pub fn run(engine: &Engine, txn: TxnId, plan: &Plan, params: &[Value]) -> Result<QueryResult> {
    Exec::new(engine, txn, params, false).run(plan)
}

/// [`run`], also collecting [`QueryResult::touched_reads`] /
/// [`QueryResult::touched_writes`].
pub fn run_recording(
    engine: &Engine,
    txn: TxnId,
    plan: &Plan,
    params: &[Value],
) -> Result<QueryResult> {
    Exec::new(engine, txn, params, true).run(plan)
}

/// What a statement executes against.
#[derive(Clone, Copy)]
struct Ctx<'a> {
    engine: &'a Engine,
    txn: TxnId,
    params: &'a [Value],
}

/// One statement execution: its context, and the touched sets it collects
/// when it is recording.
struct Exec<'a> {
    ctx: Ctx<'a>,
    recording: bool,
    reads: Touched,
    writes: Touched,
}

impl<'a> Ctx<'a> {
    fn env(self) -> Env<'a> {
        Env::constant(self.params)
    }

    /// Fetch the rows of one table through `access`, walked in `dir` order,
    /// handing each to `visit` where the engine holds it until `visit`
    /// breaks.
    fn fetch(
        self,
        handle: &TableHandle,
        access: &Access,
        for_update: bool,
        dir: Direction,
        visit: impl FnMut(u64, &[Value]) -> Result<ControlFlow<()>>,
    ) -> Result<()> {
        let Ctx { engine, txn, .. } = self;
        let constants = |exprs: &[BoundExpr]| -> Result<Vec<Value>> {
            exprs
                .iter()
                .map(|e| Ok(eval(e, self.env())?.into_owned()))
                .collect()
        };
        match access {
            Access::IndexEq { index, key } => {
                let key = constants(key)?;
                engine.lookup_with(txn, handle, *index, &key, for_update, dir, visit)
            }
            Access::IndexRange { index, lo, hi } => {
                // The tightest bound of each side; a NULL bound admits no
                // row by itself, so it does not narrow the range.
                let tightest = |bounds: &[BoundExpr], tighter: Ordering| -> Result<Option<Value>> {
                    let mut best: Option<Value> = None;
                    for v in constants(bounds)? {
                        if !v.is_null() && best.as_ref().is_none_or(|b| v.total_cmp(b) == tighter) {
                            best = Some(v);
                        }
                    }
                    Ok(best)
                };
                let lo = tightest(lo, Ordering::Greater)?;
                let hi = tightest(hi, Ordering::Less)?;
                let span = (
                    lo.as_ref().map(std::slice::from_ref),
                    hi.as_ref().map(std::slice::from_ref),
                );
                engine.range_with(txn, handle, *index, span, dir, visit)
            }
            Access::Scan => engine.scan_with(txn, handle, visit),
        }
    }
}

impl<'a> Exec<'a> {
    fn new(engine: &'a Engine, txn: TxnId, params: &'a [Value], recording: bool) -> Self {
        Exec {
            ctx: Ctx {
                engine,
                txn,
                params,
            },
            recording,
            reads: Vec::new(),
            writes: Vec::new(),
        }
    }

    fn run(mut self, plan: &Plan) -> Result<QueryResult> {
        let engine = self.ctx.engine;
        let db = || engine.db(&plan.db);
        let mut result = QueryResult {
            columns: Arc::clone(&plan.columns),
            ..QueryResult::default()
        };
        match &plan.node {
            Node::CreateTable(schema) => engine.create_table(&plan.db, schema.clone())?,
            Node::CreateIndex {
                name,
                table,
                columns,
                unique,
            } => engine.create_index(&plan.db, table, name, columns, *unique)?,
            Node::Insert(p) => result.rows_affected = self.insert(&db()?, p)?,
            Node::Select(p) => result.rows = self.select(&db()?, p)?,
            Node::Update(p) => result.rows_affected = self.update(&db()?, p)?,
            Node::Delete(p) => result.rows_affected = self.delete(&db()?, p)?,
        }
        result.touched_reads = self.reads;
        result.touched_writes = self.writes;
        Ok(result)
    }

    fn note_read(&mut self, table: &TableRef, row_id: u64) {
        if self.recording {
            self.reads.push((Arc::clone(&table.name), row_id));
        }
    }

    fn note_write(&mut self, table: &TableRef, row_id: u64) {
        if self.recording {
            self.writes.push((Arc::clone(&table.name), row_id));
        }
    }

    // -------------------------------------------------------------- INSERT

    fn insert(&mut self, db: &Arc<Database>, p: &InsertPlan) -> Result<u64> {
        let Ctx { engine, txn, .. } = self.ctx;
        let handle = p.table.open(db)?;
        for tuple in &p.rows {
            let mut row = vec![Value::Null; p.width];
            for (ord, e) in tuple {
                row[*ord] = eval(e, self.ctx.env())?.into_owned();
            }
            let rid = engine.insert_in(txn, &handle, row)?;
            self.note_write(&p.table, rid);
        }
        Ok(p.rows.len() as u64)
    }

    // -------------------------------------------------------------- SELECT

    /// Fetch a table's rows for a SELECT — every one a read — cloning them
    /// out.
    fn fetch_all(
        &mut self,
        table: &TableRef,
        handle: &TableHandle,
        access: &Access,
        for_update: bool,
    ) -> Result<Vec<Vec<Value>>> {
        let mut rows = Vec::new();
        let any_order = Direction::Forward;
        self.ctx
            .fetch(handle, access, for_update, any_order, |rid, row| {
                self.note_read(table, rid);
                rows.push(row.to_vec());
                Ok(ControlFlow::Continue(()))
            })?;
        Ok(rows)
    }

    fn select(&mut self, db: &Arc<Database>, p: &SelectPlan) -> Result<Vec<Vec<Value>>> {
        let env = self.ctx.env();
        let mut sink = Sink::new(p, env);
        let keep = |row: Row<'_>| -> Result<bool> {
            match &p.filter {
                Some(f) => accepts(&*eval(f, env.with_row(row))?),
                None => Ok(true),
            }
        };
        let base = p.from.open(db)?;
        let Some((last, inner)) = p.joins.split_last() else {
            // One table: filter and project each row where it lies. On an
            // ordered plan the walk ends with the row that fills LIMIT: no
            // later row is visited, so none is locked.
            let dir = p.ordered.unwrap_or(Direction::Forward);
            self.ctx
                .fetch(&base, &p.access, p.for_update, dir, |rid, row| {
                    if sink.full() {
                        // LIMIT 0.
                        return Ok(ControlFlow::Break(()));
                    }
                    self.note_read(&p.from, rid);
                    let row = Row::of(row);
                    if keep(row)? {
                        sink.push(row)?;
                    }
                    Ok(if sink.full() {
                        ControlFlow::Break(())
                    } else {
                        ControlFlow::Continue(())
                    })
                })?;
            return sink.finish();
        };
        // Joins, left-deep in query order; all but the last materialize.
        let mut rows = self.fetch_all(&p.from, &base, &p.access, p.for_update)?;
        for join in inner {
            let mut joined = Vec::new();
            self.join(db, join, p.for_update, &rows, |row| {
                joined.push(row.to_vec());
                Ok(())
            })?;
            rows = joined;
        }
        // The WHERE clause is re-applied to every joined row — access
        // paths are hints.
        self.join(db, last, p.for_update, &rows, |row| {
            if keep(row)? {
                sink.push(row)?;
            }
            Ok(())
        })?;
        sink.finish()
    }

    /// Join `left` rows with one more table, emitting every joined row.
    fn join(
        &mut self,
        db: &Arc<Database>,
        join: &JoinPlan,
        for_update: bool,
        left: &[Vec<Value>],
        mut emit: impl FnMut(Row<'_>) -> Result<()>,
    ) -> Result<()> {
        let Ctx { engine, txn, .. } = self.ctx;
        let env = self.ctx.env();
        // Resolved only now: a table is not touched before its turn.
        let handle = join.table.open(db)?;
        let nulls = vec![Value::Null; join.width];
        let unmatched_survive = join.kind == JoinKind::Left;
        // Emit `left_row` joined with a row of the new table if ON accepts
        // the pair (was it?), or — `None` — padded with NULLs.
        let mut pair = |left_row: &[Value], right_row: Option<&[Value]>| -> Result<bool> {
            let row = Row::joined(left_row, right_row.unwrap_or(&nulls));
            let emitted = right_row.is_none() || accepts(&*eval(&join.on, env.with_row(row))?)?;
            if emitted {
                emit(row)?;
            }
            Ok(emitted)
        };
        match &join.strategy {
            JoinStrategy::IndexLookup { index, key } => {
                for left_row in left {
                    let key = key
                        .iter()
                        .map(|e| Ok(eval(e, env.with_row(Row::of(left_row)))?.into_owned()))
                        .collect::<Result<Vec<_>>>()?;
                    let mut matched = false;
                    let any_order = Direction::Forward;
                    engine.lookup_with(
                        txn,
                        &handle,
                        *index,
                        &key,
                        for_update,
                        any_order,
                        |rid, row| {
                            self.note_read(&join.table, rid);
                            matched |= pair(left_row, Some(row))?;
                            Ok::<_, SqlError>(ControlFlow::Continue(()))
                        },
                    )?;
                    if unmatched_survive && !matched {
                        pair(left_row, None)?;
                    }
                }
            }
            JoinStrategy::Nested(access) => {
                // Fetch the right side once.
                let right = self.fetch_all(&join.table, &handle, access, for_update)?;
                for left_row in left {
                    let mut matched = false;
                    for right_row in &right {
                        matched |= pair(left_row, Some(right_row))?;
                    }
                    if unmatched_survive && !matched {
                        pair(left_row, None)?;
                    }
                }
            }
        }
        Ok(())
    }

    // ------------------------------------------------------- UPDATE/DELETE

    /// The `(row_id, row)` pairs the statement applies to, locked for
    /// update. (What an UPDATE or DELETE looks at is not in its touched
    /// reads; what it changes is in its touched writes.)
    fn targets(&self, handle: &TableHandle, target: &Target) -> Result<Vec<(u64, Vec<Value>)>> {
        let env = self.ctx.env();
        let mut matched = Vec::new();
        let any_order = Direction::Forward;
        self.ctx
            .fetch(handle, &target.access, true, any_order, |rid, row| {
                let keep = match &target.filter {
                    Some(f) => accepts(&*eval(f, env.with_row(Row::of(row)))?)?,
                    None => true,
                };
                if keep {
                    matched.push((rid, row.to_vec()));
                }
                Ok(ControlFlow::Continue(()))
            })?;
        Ok(matched)
    }

    fn update(&mut self, db: &Arc<Database>, p: &UpdatePlan) -> Result<u64> {
        let Ctx { engine, txn, .. } = self.ctx;
        let handle = p.target.table.open(db)?;
        let targets = self.targets(&handle, &p.target)?;
        let n = targets.len() as u64;
        for (rid, old) in targets {
            let mut new_row = old.clone();
            // All SET expressions see the *old* row (SQL semantics).
            for (ord, e) in &p.sets {
                new_row[*ord] = eval(e, self.ctx.env().with_row(Row::of(&old)))?.into_owned();
            }
            engine.update_in(txn, &handle, rid, new_row)?;
            self.note_write(&p.target.table, rid);
        }
        Ok(n)
    }

    fn delete(&mut self, db: &Arc<Database>, target: &Target) -> Result<u64> {
        let Ctx { engine, txn, .. } = self.ctx;
        let handle = target.table.open(db)?;
        let targets = self.targets(&handle, target)?;
        let n = targets.len() as u64;
        for (rid, _) in targets {
            engine.delete_in(txn, &handle, rid)?;
            self.note_write(&target.table, rid);
        }
        Ok(n)
    }
}

// ---------------------------------------------------- project / group / rank

/// Where the joined, filtered rows of a SELECT end up.
struct Sink<'p> {
    plan: &'p SelectPlan,
    env: Env<'p>,
    rows: Rows<'p>,
}

enum Rows<'p> {
    /// Projected in fetch order, which is the answer's order: an ordered
    /// walk's, or that of a query without ORDER BY.
    Fetched(Vec<Vec<Value>>),
    /// The `k` best rows so far by ORDER BY, then by fetch order — the rows
    /// a stable sort truncated to `k` keeps — worst on top; `keys` and
    /// `fetched` are the sort keys and the position of the row in hand.
    Ranked {
        k: usize,
        heap: BinaryHeap<Ranked<'p>>,
        keys: Vec<Value>,
        fetched: u64,
    },
    Grouped(Groups),
}

impl<'p> Sink<'p> {
    fn new(plan: &'p SelectPlan, env: Env<'p>) -> Self {
        let rows = if plan.grouping.is_some() {
            Rows::Grouped(Groups::default())
        } else if plan.ordered.is_none() && !plan.order_by.is_empty() {
            Rows::Ranked {
                k: plan
                    .top()
                    .map_or(usize::MAX, |n| usize::try_from(n).unwrap_or(usize::MAX)),
                heap: BinaryHeap::new(),
                keys: Vec::new(),
                fetched: 0,
            }
        } else {
            Rows::Fetched(Vec::new())
        };
        Sink { plan, env, rows }
    }

    /// Does the sink hold every row the statement will return? Only an
    /// ordered plan can tell before it has seen them all.
    fn full(&self) -> bool {
        let p = self.plan;
        match &self.rows {
            Rows::Fetched(rows) if p.ordered.is_some() => {
                p.limit.is_some_and(|n| rows.len() as u64 >= n)
            }
            _ => false,
        }
    }

    fn push(&mut self, row: Row<'_>) -> Result<()> {
        let p = self.plan;
        let env = self.env.with_row(row);
        let star = || Ok(row);
        match &mut self.rows {
            Rows::Fetched(rows) => {
                let mut out = Vec::with_capacity(p.items.len());
                project(p, env, star, &mut out)?;
                rows.push(out);
            }
            Rows::Ranked {
                k,
                heap,
                keys,
                fetched,
            } => {
                keys.clear();
                for key in &p.order_by {
                    keys.push(eval(&key.expr, env)?.into_owned());
                }
                *fetched += 1;
                if heap.len() < *k {
                    let mut out = Vec::with_capacity(p.items.len());
                    project(p, env, star, &mut out)?;
                    heap.push(Ranked {
                        order: &p.order_by,
                        keys: std::mem::take(keys),
                        fetched: *fetched,
                        row: out,
                    });
                } else if let Some(mut worst) = heap.peek_mut() {
                    // Among equal keys the earlier row stays: only a
                    // strictly better one displaces the worst, into whose
                    // buffers it is projected.
                    if rank(&p.order_by, keys, &worst.keys).is_lt() {
                        worst.row.clear();
                        project(p, env, star, &mut worst.row)?;
                        std::mem::swap(&mut worst.keys, keys);
                        worst.fetched = *fetched;
                    }
                }
            }
            Rows::Grouped(groups) => {
                let grouping = p.grouping.as_ref().expect("a grouped plan");
                groups.push(grouping, env, row)?;
            }
        }
        Ok(())
    }

    fn finish(self) -> Result<Vec<Vec<Value>>> {
        let p = self.plan;
        let mut rows = match self.rows {
            Rows::Fetched(rows) => rows,
            Rows::Ranked { heap, .. } => {
                heap.into_sorted_vec().into_iter().map(|r| r.row).collect()
            }
            Rows::Grouped(groups) => groups.finish(p, self.env)?,
        };
        if p.distinct {
            // Preserve first occurrence order (stable distinct).
            let mut seen = BTreeSet::new();
            rows.retain(|r| seen.insert(r.clone()));
        }
        if let Some(limit) = p.limit {
            rows.truncate(limit as usize);
        }
        Ok(rows)
    }
}

/// A projected row of a sorted query, with its sort keys and its place in
/// fetch order; it orders after the rows that come before it in the answer.
struct Ranked<'p> {
    order: &'p [SortKey],
    keys: Vec<Value>,
    fetched: u64,
    row: Vec<Value>,
}

impl Ord for Ranked<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        rank(self.order, &self.keys, &other.keys).then(self.fetched.cmp(&other.fetched))
    }
}

impl PartialOrd for Ranked<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Ranked<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for Ranked<'_> {}

/// Sort keys `a` against `b` in ORDER BY order (each key its own way);
/// `Equal` on a tie.
fn rank(order: &[SortKey], a: &[Value], b: &[Value]) -> Ordering {
    for ((x, y), key) in a.iter().zip(b).zip(order) {
        let ord = x.total_cmp(y);
        if ord != Ordering::Equal {
            return if key.desc { ord.reverse() } else { ord };
        }
    }
    Ordering::Equal
}

/// The groups of a grouped query, in slots numbered by first appearance.
/// A slot's key values, aggregate states and — only if the plan reads it —
/// first row sit in flat vectors; a hash chain over the key values finds a
/// row's slot, so only the first row of a group copies its key.
#[derive(Default)]
struct Groups {
    /// `keys.len()` values per slot.
    keys: Vec<Value>,
    /// `aggs.len()` states per slot.
    states: Vec<AggState>,
    /// Each slot's first row, where `Grouping::first_row` says so.
    first: Vec<Vec<Value>>,
    /// Each slot's key hash, and the next slot + 1 in its bucket's chain
    /// (0 ends it).
    hashes: Vec<u64>,
    next: Vec<usize>,
    /// Per bucket, its first slot + 1; a power of two long.
    heads: Vec<usize>,
    /// Keyed per query: the key values are tenant data.
    hasher: RandomState,
}

impl Groups {
    fn push(&mut self, g: &Grouping, env: Env<'_>, row: Row<'_>) -> Result<()> {
        let mut h = self.hasher.build_hasher();
        for k in &g.keys {
            eval(k, env)?.hash(&mut h);
        }
        let hash = h.finish();
        let slot = match self.find(g, env, hash)? {
            Some(slot) => slot,
            None => self.insert(g, env, hash, row)?,
        };
        let n = g.aggs.len();
        for (state, call) in self.states[slot * n..][..n].iter_mut().zip(&g.aggs) {
            state.feed(call, env);
        }
        Ok(())
    }

    /// The slot of the group whose key the row in `env` has, if it has one.
    fn find(&self, g: &Grouping, env: Env<'_>, hash: u64) -> Result<Option<usize>> {
        let mut at = match self.heads.len() {
            0 => 0,
            n => self.heads[hash as usize & (n - 1)],
        };
        let w = g.keys.len();
        'chain: while let Some(slot) = at.checked_sub(1) {
            at = self.next[slot];
            if self.hashes[slot] != hash {
                continue;
            }
            for (k, stored) in g.keys.iter().zip(&self.keys[slot * w..]) {
                if *eval(k, env)? != *stored {
                    continue 'chain;
                }
            }
            return Ok(Some(slot));
        }
        Ok(None)
    }

    /// Open a slot for the group of the row in `env`.
    fn insert(&mut self, g: &Grouping, env: Env<'_>, hash: u64, row: Row<'_>) -> Result<usize> {
        for k in &g.keys {
            self.keys.push(eval(k, env)?.into_owned());
        }
        self.open(g, hash);
        if g.first_row {
            self.first.push(row.to_vec());
        }
        Ok(self.hashes.len() - 1)
    }

    /// A new slot's states and chain link (its key is in place).
    fn open(&mut self, g: &Grouping, hash: u64) {
        let slot = self.hashes.len();
        self.states
            .resize_with(self.states.len() + g.aggs.len(), AggState::default);
        self.hashes.push(hash);
        self.next.push(0);
        if slot < self.heads.len() {
            self.link(slot);
        } else {
            // At one slot per bucket, double the buckets and re-chain.
            self.heads = vec![0; (2 * self.heads.len()).max(16)];
            for s in 0..=slot {
                self.link(s);
            }
        }
    }

    fn link(&mut self, slot: usize) {
        let bucket = self.hashes[slot] as usize & (self.heads.len() - 1);
        self.next[slot] = self.heads[bucket];
        self.heads[bucket] = slot + 1;
    }

    /// What a group's expressions read: its first row, or — where the plan
    /// reads nothing else — its key columns in place in `key_row`.
    fn row<'a>(&'a self, g: &Grouping, slot: usize, key_row: &'a mut [Value]) -> Row<'a> {
        if g.first_row {
            return Row::of(self.first.get(slot).map_or(&[], Vec::as_slice));
        }
        let w = g.keys.len();
        for &(off, k) in &g.key_columns {
            key_row[off] = self.keys[slot * w + k].clone();
        }
        Row::of(key_row)
    }

    /// The answer: each group that passes HAVING, ordered by ORDER BY and
    /// then by group key (the order of a stable sort of the groups in key
    /// order), only the top LIMIT of them projected.
    fn finish(mut self, p: &SelectPlan, env: Env<'_>) -> Result<Vec<Vec<Value>>> {
        let g = p.grouping.as_ref().expect("a grouped plan");
        if g.keys.is_empty() && self.hashes.is_empty() {
            // The single implicit group is there even over zero rows.
            self.open(g, 0);
        }
        let slots = self.hashes.len();
        let n = g.aggs.len();
        let states = std::mem::take(&mut self.states);
        let aggs: Vec<Result<Value>> = states
            .into_iter()
            .zip(g.aggs.iter().cycle())
            .map(|(state, call)| state.finish(call.func))
            .collect();
        let width = g.key_columns.iter().map(|&(off, _)| off + 1).max();
        let mut key_row = vec![Value::Null; width.unwrap_or(0)];

        // `(slot, survivor number)`; survivor i's sort keys are at i × nk.
        let nk = p.order_by.len();
        let mut ranked: Vec<(usize, usize)> = Vec::with_capacity(slots);
        let mut sort_keys = Vec::with_capacity(slots * nk);
        for slot in 0..slots {
            let env = Env {
                row: self.row(g, slot, &mut key_row),
                aggs: &aggs[slot * n..][..n],
                ..env
            };
            if let Some(h) = &g.having {
                if !accepts(&*eval(h, env)?)? {
                    continue;
                }
            }
            for k in &p.order_by {
                sort_keys.push(eval(&k.expr, env)?.into_owned());
            }
            ranked.push((slot, ranked.len()));
        }
        let w = g.keys.len();
        let key = |slot: usize| &self.keys[slot * w..][..w];
        let by_rank = |a: &(usize, usize), b: &(usize, usize)| {
            let keys_of = |i: usize| &sort_keys[i * nk..][..nk];
            rank(&p.order_by, keys_of(a.1), keys_of(b.1)).then_with(|| key(a.0).cmp(key(b.0)))
        };
        if let Some(top) = p.top().and_then(|k| usize::try_from(k).ok()) {
            if top < ranked.len() {
                if let Some(last) = top.checked_sub(1) {
                    ranked.select_nth_unstable_by(last, by_rank);
                }
                ranked.truncate(top);
            }
        }
        // Group keys differ, so no two survivors tie.
        ranked.sort_unstable_by(by_rank);

        let mut rows = Vec::with_capacity(ranked.len());
        for (slot, _) in ranked {
            let env = Env {
                row: self.row(g, slot, &mut key_row),
                aggs: &aggs[slot * n..][..n],
                ..env
            };
            let star = || {
                self.first
                    .get(slot)
                    .map(|r| Row::of(r))
                    .ok_or_else(|| SqlError::Plan("SELECT * over empty group".into()))
            };
            let mut out = Vec::with_capacity(p.items.len());
            project(p, env, star, &mut out)?;
            rows.push(out);
        }
        Ok(rows)
    }
}

/// Project `plan`'s items into `out`; `star` yields the row `*` expands to.
fn project<'r>(
    plan: &SelectPlan,
    env: Env<'_>,
    star: impl Fn() -> Result<Row<'r>>,
    out: &mut Vec<Value>,
) -> Result<()> {
    for item in &plan.items {
        match item {
            Item::Star => out.extend(star()?.iter().cloned()),
            Item::Expr(e) => out.push(eval(e, env)?.into_owned()),
        }
    }
    Ok(())
}

// Every statement of the unit corpus below that goes through
// `execute_checked` also runs its plan's forced-scan version and the naive
// reference and must agree with both; the tests that observe locks call the
// bare `execute`.
#[cfg(test)]
#[path = "../tests/common/mod.rs"]
mod common;

#[cfg(test)]
mod tests {
    use super::common::execute_checked;
    use super::*;
    use tenantdb_storage::EngineConfig;

    fn setup() -> Engine {
        let e = Engine::new(EngineConfig::for_tests());
        e.create_database("shop").unwrap();
        let run = |sql: &str| {
            e.with_txn(|t| execute_checked(&e, t, "shop", sql, &[]).map_err(storage_err))
                .unwrap();
        };
        run("CREATE TABLE items (id INT NOT NULL, title TEXT, price FLOAT, stock INT, PRIMARY KEY (id))");
        run("CREATE TABLE orders (id INT NOT NULL, item_id INT, qty INT, PRIMARY KEY (id))");
        run("CREATE INDEX by_item ON orders (item_id)");
        for i in 0..10 {
            e.with_txn(|t| {
                execute_checked(
                    &e,
                    t,
                    "shop",
                    "INSERT INTO items VALUES (?, ?, ?, ?)",
                    &[
                        Value::Int(i),
                        Value::Text(format!("item-{i}")),
                        Value::Float(i as f64 + 0.5),
                        Value::Int(100 - i),
                    ],
                )
                .map_err(storage_err)
            })
            .unwrap();
        }
        for (oid, item, qty) in [(1, 2, 3), (2, 2, 1), (3, 5, 7)] {
            e.with_txn(|t| {
                execute_checked(
                    &e,
                    t,
                    "shop",
                    "INSERT INTO orders VALUES (?, ?, ?)",
                    &[Value::Int(oid), Value::Int(item), Value::Int(qty)],
                )
                .map_err(storage_err)
            })
            .unwrap();
        }
        e
    }

    /// Adapt SqlError to StorageError for with_txn (tests only).
    fn storage_err(e: SqlError) -> tenantdb_storage::StorageError {
        match e {
            SqlError::Storage(s) => s,
            other => tenantdb_storage::StorageError::SchemaMismatch(other.to_string()),
        }
    }

    fn query(e: &Engine, sql: &str, params: &[Value]) -> QueryResult {
        let txn = e.begin().unwrap();
        let r = execute_checked(e, txn, "shop", sql, params).unwrap();
        e.commit(txn).unwrap();
        r
    }

    #[test]
    fn point_select_by_pk() {
        let e = setup();
        let r = query(&e, "SELECT title, price FROM items WHERE id = 3", &[]);
        assert_eq!(*r.columns, ["title", "price"]);
        assert_eq!(
            r.rows,
            vec![vec![Value::Text("item-3".into()), Value::Float(3.5)]]
        );
    }

    #[test]
    fn pk_lookup_uses_index_not_scan() {
        let e = setup();
        // An index lookup takes IS + key S + row S, never a table S lock; we
        // can observe the plan through lock state: run inside a txn and check
        // a concurrent insert is NOT blocked (a scan would block it).
        let txn = e.begin().unwrap();
        execute(&e, txn, "shop", "SELECT * FROM items WHERE id = 1", &[]).unwrap();
        let t0 = std::time::Instant::now();
        e.with_txn(|t| {
            e.insert(
                t,
                "shop",
                "items",
                vec![Value::Int(77), Value::Null, Value::Null, Value::Null],
            )
        })
        .unwrap();
        assert!(t0.elapsed() < std::time::Duration::from_millis(100));
        e.commit(txn).unwrap();
    }

    #[test]
    fn select_star_and_order_limit() {
        let e = setup();
        let r = query(&e, "SELECT * FROM items ORDER BY price DESC LIMIT 3", &[]);
        assert_eq!(r.rows.len(), 3);
        assert_eq!(r.rows[0][0], Value::Int(9));
        assert_eq!(r.columns.len(), 4);
    }

    #[test]
    fn range_scan_with_residual() {
        let e = setup();
        let r = query(&e, "SELECT id FROM items WHERE id > 5 AND id <= 8", &[]);
        // > is approximated by an inclusive range + residual filter.
        let ids: Vec<i64> = r.rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
        assert_eq!(ids, vec![6, 7, 8]);
    }

    #[test]
    fn join_with_index_nested_loop() {
        let e = setup();
        let r = query(
            &e,
            "SELECT o.id, i.title, o.qty FROM orders o JOIN items i ON i.id = o.item_id \
             WHERE o.qty > 0 ORDER BY o.id",
            &[],
        );
        assert_eq!(r.rows.len(), 3);
        assert_eq!(r.rows[0][1], Value::Text("item-2".into()));
        assert_eq!(r.rows[2][1], Value::Text("item-5".into()));
    }

    #[test]
    fn join_reverse_direction() {
        let e = setup();
        // items joined to orders via the secondary index on orders.item_id.
        let r = query(
            &e,
            "SELECT i.id, o.qty FROM items i JOIN orders o ON o.item_id = i.id ORDER BY o.qty",
            &[],
        );
        assert_eq!(r.rows.len(), 3);
        assert_eq!(r.rows[0][1], Value::Int(1));
    }

    #[test]
    fn group_by_with_aggregates() {
        let e = setup();
        let r = query(
            &e,
            "SELECT item_id, COUNT(*) AS n, SUM(qty) AS total FROM orders \
             GROUP BY item_id ORDER BY item_id",
            &[],
        );
        assert_eq!(*r.columns, ["item_id", "n", "total"]);
        assert_eq!(
            r.rows,
            vec![
                vec![Value::Int(2), Value::Int(2), Value::Int(4)],
                vec![Value::Int(5), Value::Int(1), Value::Int(7)],
            ]
        );
    }

    #[test]
    fn implicit_single_group() {
        let e = setup();
        let r = query(
            &e,
            "SELECT COUNT(*), MIN(price), MAX(price) FROM items",
            &[],
        );
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0][0], Value::Int(10));
        assert_eq!(r.rows[0][1], Value::Float(0.5));
        assert_eq!(r.rows[0][2], Value::Float(9.5));
    }

    #[test]
    fn count_on_empty_table_is_zero() {
        let e = setup();
        e.with_txn(|t| {
            execute_checked(&e, t, "shop", "CREATE TABLE empty_t (x INT)", &[]).map_err(storage_err)
        })
        .unwrap();
        let r = query(&e, "SELECT COUNT(*) FROM empty_t", &[]);
        assert_eq!(r.rows, vec![vec![Value::Int(0)]]);
    }

    #[test]
    fn update_with_expression() {
        let e = setup();
        let txn = e.begin().unwrap();
        let r = execute_checked(
            &e,
            txn,
            "shop",
            "UPDATE items SET stock = stock - 1 WHERE id = 2",
            &[],
        )
        .unwrap();
        assert_eq!(r.rows_affected, 1);
        e.commit(txn).unwrap();
        let r = query(&e, "SELECT stock FROM items WHERE id = 2", &[]);
        assert_eq!(r.rows[0][0], Value::Int(97));
    }

    #[test]
    fn update_all_rows_without_where() {
        let e = setup();
        let txn = e.begin().unwrap();
        let r = execute_checked(&e, txn, "shop", "UPDATE orders SET qty = 0", &[]).unwrap();
        assert_eq!(r.rows_affected, 3);
        e.commit(txn).unwrap();
        let r = query(&e, "SELECT SUM(qty) FROM orders", &[]);
        assert_eq!(r.rows[0][0], Value::Int(0));
    }

    #[test]
    fn delete_with_filter() {
        let e = setup();
        let txn = e.begin().unwrap();
        let r =
            execute_checked(&e, txn, "shop", "DELETE FROM orders WHERE item_id = 2", &[]).unwrap();
        assert_eq!(r.rows_affected, 2);
        e.commit(txn).unwrap();
        let r = query(&e, "SELECT COUNT(*) FROM orders", &[]);
        assert_eq!(r.rows[0][0], Value::Int(1));
    }

    #[test]
    fn limit_param_not_supported() {
        // LIMIT takes a literal; a `?` there is a parse error, not a panic.
        assert!(parse("SELECT id FROM items LIMIT ?").is_err());
    }

    #[test]
    fn parameterized_where() {
        let e = setup();
        let r = query(
            &e,
            "SELECT id FROM items WHERE price > ? AND title LIKE ?",
            &[Value::Float(7.0), Value::Text("item-%".into())],
        );
        let ids: Vec<i64> = r.rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
        assert_eq!(ids.len(), 3);
        assert!(ids.contains(&9));
    }

    #[test]
    fn insert_with_column_list_fills_nulls() {
        let e = setup();
        e.with_txn(|t| {
            execute_checked(
                &e,
                t,
                "shop",
                "INSERT INTO items (id, title) VALUES (50, 'fifty')",
                &[],
            )
            .map_err(storage_err)
        })
        .unwrap();
        let r = query(&e, "SELECT price, stock FROM items WHERE id = 50", &[]);
        assert_eq!(r.rows[0], vec![Value::Null, Value::Null]);
    }

    #[test]
    fn unique_violation_via_sql() {
        let e = setup();
        let txn = e.begin().unwrap();
        let err = execute_checked(
            &e,
            txn,
            "shop",
            "INSERT INTO items VALUES (3, 'dup', 0.0, 0)",
            &[],
        )
        .unwrap_err();
        assert!(matches!(
            err,
            SqlError::Storage(tenantdb_storage::StorageError::UniqueViolation { .. })
        ));
        e.abort(txn).unwrap();
    }

    #[test]
    fn unknown_column_is_plan_error() {
        let e = setup();
        let txn = e.begin().unwrap();
        let err = execute_checked(&e, txn, "shop", "SELECT nope FROM items", &[]).unwrap_err();
        assert!(matches!(err, SqlError::Plan(_)));
        e.abort(txn).unwrap();
    }

    #[test]
    fn order_by_alias() {
        let e = setup();
        let r = query(
            &e,
            "SELECT item_id, SUM(qty) AS total FROM orders GROUP BY item_id ORDER BY total DESC",
            &[],
        );
        assert_eq!(r.rows[0][0], Value::Int(5));
    }

    #[test]
    fn select_for_update_locks_rows() {
        let e = std::sync::Arc::new(setup());
        let txn = e.begin().unwrap();
        execute(
            &e,
            txn,
            "shop",
            "SELECT * FROM items WHERE id = 1 FOR UPDATE",
            &[],
        )
        .unwrap();
        // A concurrent writer on the same row must block.
        let e2 = std::sync::Arc::clone(&e);
        let h = std::thread::spawn(move || {
            let t = e2.begin().unwrap();
            let r = execute(
                &e2,
                t,
                "shop",
                "UPDATE items SET stock = 0 WHERE id = 1",
                &[],
            );
            match r {
                Ok(_) => e2.commit(t).unwrap(),
                Err(_) => e2.abort(t).unwrap(),
            }
        });
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert!(e.locks().waiter_count() >= 1);
        e.commit(txn).unwrap();
        h.join().unwrap();
    }

    #[test]
    fn three_way_join() {
        let e = setup();
        e.with_txn(|t| {
            execute_checked(
                &e,
                t,
                "shop",
                "CREATE TABLE users (id INT NOT NULL, name TEXT, PRIMARY KEY (id))",
                &[],
            )
            .map_err(storage_err)?;
            execute_checked(&e, t, "shop", "INSERT INTO users VALUES (1, 'ada')", &[])
                .map_err(storage_err)?;
            execute_checked(
                &e,
                t,
                "shop",
                "CREATE TABLE order_users (order_id INT, user_id INT)",
                &[],
            )
            .map_err(storage_err)?;
            execute_checked(&e, t, "shop", "INSERT INTO order_users VALUES (1, 1)", &[])
                .map_err(storage_err)?;
            Ok(())
        })
        .unwrap();
        let r = query(
            &e,
            "SELECT u.name, i.title FROM orders o \
             JOIN order_users ou ON ou.order_id = o.id \
             JOIN users u ON u.id = ou.user_id \
             JOIN items i ON i.id = o.item_id",
            &[],
        );
        assert_eq!(
            r.rows,
            vec![vec![
                Value::Text("ada".into()),
                Value::Text("item-2".into())
            ]]
        );
    }
}
