//! The planner: one [`Statement`] bound, once, to a flat [`Plan`].
//!
//! Everything about a statement that is fixed by (schema, SQL text) is
//! decided here and never again: table names, column references as row
//! offsets ([`crate::eval::BoundExpr`]), the access path of every table,
//! the join strategy, the projection, the sort and group keys, the output
//! column names, and the statement's [`StatementClass`] and locked tables.
//! What depends on the parameter values is left as a *template*: an access
//! path names its index and carries the constant expressions that produce
//! its key when [`crate::exec::run`] evaluates them.
//!
//! Access paths are chosen from the statement's shape:
//!
//! * full-key equality index lookup, single-column index range scan, or
//!   table scan — from the WHERE conjuncts that compare a column with a
//!   row-independent expression;
//! * every index path has an order — that of its entries, key columns then
//!   primary key — and a single-table SELECT whose ORDER BY that order
//!   answers is planned as an ordered walk (`ordered_walk` has the rule):
//!   nothing is sorted, and LIMIT ends the walk;
//! * joins: index nested-loop when the ON clause equates an indexed column of
//!   the new table with an expression over already-joined tables, otherwise
//!   a nested loop over a (predicate-pushed) fetch of the new table;
//! * residual predicates are always re-applied, so an access path can never
//!   change results — only which rows are fetched and locked.
//!
//! A plan outlives the schema it was bound against only in ways that cannot
//! make it wrong: tables are never altered or dropped and only gain
//! indexes, so offsets and index ordinals stay valid (a plan that predates
//! a `CREATE INDEX` is merely slower). The one exception — a database
//! dropped and re-created under the same name — is caught at run time by
//! the table's shape fingerprint (`TableRef::open`).

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;

use tenantdb_storage::{ColumnDef, Database, Direction, Engine, Table, TableHandle, TableSchema};

use crate::ast::*;
use crate::error::{Result, SqlError};
use crate::eval::{bind, bind_grouped, AggCall, BoundExpr, Layout};

/// A statement bound to one database's schema (see the module docs).
/// Immutable and `Send + Sync`: one `Arc<Plan>` serves every session and
/// every replica of the database.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    pub(crate) db: String,
    pub(crate) class: StatementClass,
    pub(crate) locked_tables: Vec<String>,
    /// Output column names, shared by every result of this plan (empty for
    /// DML and DDL).
    pub(crate) columns: Arc<[String]>,
    pub(crate) node: Node,
}

impl Plan {
    /// The database this plan was bound in.
    pub fn database(&self) -> &str {
        &self.db
    }

    /// What the statement does to the database (see [`StatementClass`]).
    pub fn class(&self) -> StatementClass {
        self.class
    }

    /// The tables a write modifies or a locking read X-locks (the `FROM`
    /// table first, then each joined table); empty for the other classes.
    pub fn locked_tables(&self) -> &[String] {
        &self.locked_tables
    }

    /// This plan with every access path forced to a table scan, every join
    /// to a nested loop over a scan, and every ORDER BY to a sort. Residual
    /// predicates decide the result, so this is the reference the chosen
    /// plan is tested against; nothing but tests has a use for it.
    #[doc(hidden)]
    pub fn forcing_scans(&self) -> Plan {
        let mut plan = self.clone();
        match &mut plan.node {
            Node::Select(sel) => {
                sel.access = Access::Scan;
                sel.ordered = None;
                for join in &mut sel.joins {
                    join.strategy = JoinStrategy::Nested(Access::Scan);
                }
            }
            Node::Update(u) => u.target.access = Access::Scan,
            Node::Delete(target) => target.access = Access::Scan,
            Node::CreateTable(_) | Node::CreateIndex { .. } | Node::Insert(_) => {}
        }
        plan
    }
}

impl Plan {
    /// The chosen plan as text, one line per table in query order: how its
    /// rows are fetched (`index by_customer = (?1)`, `index pk in [?1,
    /// +inf]`, `scan`, for a joined table the join strategy) and, closing
    /// the line of a single-table SELECT (a line of its own after a join),
    /// what happens to them: `ordered desc by o_id, stops at LIMIT 1` where
    /// the walk answers ORDER BY, `top 10 by i_pub_date desc` where a sort
    /// keeps only what LIMIT returns, `sort i_pub_date desc` where it keeps
    /// everything. Index names are looked up on `engine`.
    pub fn explain(&self, engine: &Engine) -> Result<String> {
        let db = engine.db(&self.db)?;
        let target = |t: &Target| -> Result<Vec<String>> {
            let handle = t.table.open(&db)?;
            let names = column_names(handle.table(), false);
            let path = describe(&t.access, handle.table(), &names);
            Ok(vec![format!("{}: {path}", t.table.name)])
        };
        let lines = match &self.node {
            Node::CreateTable(schema) => vec![format!("{}: create table", schema.name)],
            Node::CreateIndex { name, table, .. } => vec![format!("{table}: create index {name}")],
            Node::Insert(p) => vec![format!("{}: insert {} row(s)", p.table.name, p.rows.len())],
            Node::Update(u) => target(&u.target)?,
            Node::Delete(t) => target(t)?,
            Node::Select(sel) => self.explain_select(sel, &db)?,
        };
        Ok(lines.join("\n") + "\n")
    }

    fn explain_select(&self, sel: &SelectPlan, db: &Arc<Database>) -> Result<Vec<String>> {
        let qualified = !sel.joins.is_empty();
        let base = sel.from.open(db)?;
        let mut names = column_names(base.table(), qualified);
        let path = describe(&sel.access, base.table(), &names);
        let mut lines = vec![format!("{}: {path}", sel.from.name)];
        for join in &sel.joins {
            let handle = join.table.open(db)?;
            let table = handle.table();
            let kind = match join.kind {
                JoinKind::Inner => "join",
                JoinKind::Left => "left join",
            };
            let strategy = match &join.strategy {
                JoinStrategy::IndexLookup { index, key } => format!(
                    "index {} = ({})",
                    table.schema.indexes[*index].name,
                    listed(key, &names)
                ),
                JoinStrategy::Nested(access) => {
                    let own = column_names(table, true);
                    format!("nested loop over {}", describe(access, table, &own))
                }
            };
            lines.push(format!("{}: {kind}, {strategy}", join.table.name));
            names.extend(column_names(table, true));
        }
        let fate = self.fate(sel, &names).join(", ");
        if qualified && !fate.is_empty() {
            lines.push(format!("result: {fate}"));
        } else if !fate.is_empty() {
            lines[0] = format!("{}, {fate}", lines[0]);
        }
        Ok(lines)
    }

    /// What a SELECT does with the rows it fetched, for [`Plan::explain`].
    fn fate(&self, sel: &SelectPlan, names: &[String]) -> Vec<String> {
        let mut fate = Vec::new();
        if sel.for_update {
            fate.push("for update".to_string());
        }
        if sel.grouping.is_some() {
            fate.push("grouped".to_string());
        }
        let key_name = |k: &SortKey| match k.output {
            Some(i) => self.columns[i].clone(),
            None => k.expr.unbind(names).to_string(),
        };
        let sorted = || {
            let keys: Vec<String> = sel
                .order_by
                .iter()
                .map(|k| key_name(k) + if k.desc { " desc" } else { "" })
                .collect();
            keys.join(", ")
        };
        // A grouped query without ORDER BY is ranked by group key alone; it
        // says `limit n`.
        let top = sel.top().filter(|_| !sel.order_by.is_empty());
        if let Some(dir) = sel.ordered {
            let way = match dir {
                Direction::Forward => "asc",
                Direction::Backward => "desc",
            };
            let keys: Vec<String> = sel.order_by.iter().map(key_name).collect();
            fate.push(format!("ordered {way} by {}", keys.join(", ")));
        } else if let Some(n) = top {
            fate.push(format!("top {n} by {}", sorted()));
        } else if !sel.order_by.is_empty() {
            fate.push(format!("sort {}", sorted()));
        }
        if sel.distinct {
            fate.push("distinct".to_string());
        }
        if let Some(n) = sel.limit.filter(|_| top.is_none()) {
            fate.push(match sel.ordered {
                Some(_) => format!("stops at LIMIT {n}"),
                None => format!("limit {n}"),
            });
        }
        fate
    }
}

/// A table's column names as row-stream names, for [`Plan::explain`].
fn column_names(table: &Table, qualified: bool) -> Vec<String> {
    let qualifier = if qualified {
        format!("{}.", table.schema.name)
    } else {
        String::new()
    };
    table
        .schema
        .columns
        .iter()
        .map(|c| format!("{qualifier}{}", c.name))
        .collect()
}

fn listed(exprs: &[BoundExpr], names: &[String]) -> String {
    let printed: Vec<String> = exprs.iter().map(|e| e.unbind(names).to_string()).collect();
    printed.join(", ")
}

/// An access path, for [`Plan::explain`].
fn describe(access: &Access, table: &Table, names: &[String]) -> String {
    let index_name = |index: &usize| &table.schema.indexes[*index].name;
    match access {
        Access::IndexEq { index, key } => {
            format!("index {} = ({})", index_name(index), listed(key, names))
        }
        Access::IndexRange { index, lo, hi } if lo.is_empty() && hi.is_empty() => {
            format!("index {}, whole", index_name(index))
        }
        Access::IndexRange { index, lo, hi } => {
            let side = |bounds: &[BoundExpr], open: &str| match bounds {
                [] => open.to_string(),
                _ => listed(bounds, names),
            };
            format!(
                "index {} in [{}, {}]",
                index_name(index),
                side(lo, "-inf"),
                side(hi, "+inf")
            )
        }
        Access::Scan => "scan".to_string(),
    }
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Node {
    CreateTable(TableSchema),
    CreateIndex {
        name: String,
        table: String,
        columns: Vec<String>,
        unique: bool,
    },
    Insert(InsertPlan),
    Select(SelectPlan),
    Update(UpdatePlan),
    Delete(Target),
}

/// A table as the plan knows it: its name, and the shape it had when the
/// plan was bound (its columns and its first `indexes` index definitions,
/// fingerprinted — see `Table::shape_at`).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct TableRef {
    pub name: Arc<str>,
    indexes: usize,
    shape: u64,
}

impl TableRef {
    fn bind(engine: &Engine, db: &str, name: &str) -> Result<(TableRef, TableHandle)> {
        let handle = engine.open_table(db, name)?;
        let indexes = handle.table().schema.indexes.len();
        let shape = handle
            .table()
            .shape_at(indexes)
            .expect("a table has a shape for each of its indexes");
        let table = TableRef {
            name: name.into(),
            indexes,
            shape,
        };
        Ok((table, handle))
    }

    /// Resolve the table for one statement execution, refusing a table
    /// that is not the one this plan was bound against.
    pub fn open(&self, db: &Arc<Database>) -> Result<TableHandle> {
        let handle = db.open_table(&self.name)?;
        if handle.table().shape_at(self.indexes) != Some(self.shape) {
            return Err(SqlError::Plan(format!(
                "stale plan: table {} was re-created with another schema",
                self.name
            )));
        }
        Ok(handle)
    }
}

/// How the rows of one table are fetched. The key expressions are constant
/// with respect to the row (literals and `?` slots); [`crate::exec::run`]
/// evaluates them per execution.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Access {
    /// Full-key equality lookup on the index at this ordinal.
    IndexEq {
        index: usize,
        key: Vec<BoundExpr>,
    },
    /// Inclusive range on a single-column index: the tightest non-NULL
    /// bound of each side applies (`>` / `<` are widened to inclusive; the
    /// residual predicate trims the ends). Without bounds, a walk of the
    /// whole index (any index), taken for its order.
    IndexRange {
        index: usize,
        lo: Vec<BoundExpr>,
        hi: Vec<BoundExpr>,
    },
    Scan,
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) struct InsertPlan {
    pub table: TableRef,
    pub width: usize,
    /// Per row: `(column ordinal, value)`; unlisted columns are NULL.
    pub rows: Vec<Vec<(usize, BoundExpr)>>,
}

/// The rows an `UPDATE` / `DELETE` applies to.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Target {
    pub table: TableRef,
    pub access: Access,
    pub filter: Option<BoundExpr>,
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) struct UpdatePlan {
    pub target: Target,
    /// `(column ordinal, new value over the old row)`.
    pub sets: Vec<(usize, BoundExpr)>,
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SelectPlan {
    pub from: TableRef,
    pub access: Access,
    /// `Some` if `access`, walked this way, yields the rows in ORDER BY
    /// order (see [`ordered_walk`]); `None` if ORDER BY has to sort.
    pub ordered: Option<Direction>,
    /// Left-deep, in query order.
    pub joins: Vec<JoinPlan>,
    /// The whole WHERE clause, re-applied to every joined row.
    pub filter: Option<BoundExpr>,
    pub for_update: bool,
    pub items: Vec<Item>,
    /// `Some` for a grouped query (GROUP BY or any aggregate).
    pub grouping: Option<Grouping>,
    pub order_by: Vec<SortKey>,
    pub distinct: bool,
    pub limit: Option<u64>,
}

impl SelectPlan {
    /// How many sorted rows are worth keeping: the LIMIT of a query whose
    /// rows are ranked (sorted, or grouped — groups come out in key order)
    /// rather than walked in order, unless DISTINCT still has to see them
    /// all.
    pub fn top(&self) -> Option<u64> {
        let ranked =
            self.ordered.is_none() && (self.grouping.is_some() || !self.order_by.is_empty());
        self.limit.filter(|_| ranked && !self.distinct)
    }
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) struct JoinPlan {
    pub table: TableRef,
    pub kind: JoinKind,
    pub width: usize,
    pub strategy: JoinStrategy,
    /// The whole ON clause over (joined-so-far ++ this table).
    pub on: BoundExpr,
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) enum JoinStrategy {
    /// Per left row, look the key (expressions over the left row) up in
    /// the index at this ordinal.
    IndexLookup { index: usize, key: Vec<BoundExpr> },
    /// Fetch the table once, pair every left row with every fetched row.
    Nested(Access),
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Item {
    /// `*` — every column of the row stream.
    Star,
    Expr(BoundExpr),
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Grouping {
    pub keys: Vec<BoundExpr>,
    /// `(row offset, key slot)` of each group key that is a bare column:
    /// where a group's key values go in the row its expressions read.
    pub key_columns: Vec<(usize, usize)>,
    /// Does an output, HAVING or ORDER BY expression read a column that is
    /// not a key column (or `*`)? Only then does a group keep its first row;
    /// otherwise its key columns are all there is to read.
    pub first_row: bool,
    /// The aggregate calls of the items, HAVING and ORDER BY, by slot.
    pub aggs: Vec<AggCall>,
    pub having: Option<BoundExpr>,
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SortKey {
    /// What is sorted by: an output column's expression (`*` columns as
    /// the row's columns), or an expression of its own.
    pub expr: BoundExpr,
    /// The output column it names, if it names one.
    pub output: Option<usize>,
    pub desc: bool,
}

/// Bind `stmt` against the schema of database `db` on `engine`.
pub fn plan(engine: &Engine, db: &str, stmt: &Statement) -> Result<Plan> {
    let mut columns: Arc<[String]> = Arc::default();
    let node = match stmt {
        Statement::CreateTable {
            name,
            columns,
            primary_key,
        } => {
            let cols = columns
                .iter()
                .map(|c| ColumnDef {
                    name: c.name.clone(),
                    ty: c.ty,
                    nullable: c.nullable,
                })
                .collect();
            let mut schema = TableSchema::new(name.clone(), cols);
            if !primary_key.is_empty() {
                schema.try_add_index("pk", primary_key, true)?;
            }
            Node::CreateTable(schema)
        }
        Statement::CreateIndex {
            name,
            table,
            columns,
            unique,
        } => Node::CreateIndex {
            name: name.clone(),
            table: table.clone(),
            columns: columns.clone(),
            unique: *unique,
        },
        Statement::Insert {
            table,
            columns,
            values,
        } => Node::Insert(plan_insert(engine, db, table, columns.as_deref(), values)?),
        Statement::Select(sel) => {
            let (plan, names) = plan_select(engine, db, sel)?;
            columns = names.into();
            Node::Select(plan)
        }
        Statement::Update {
            table,
            sets,
            filter,
        } => {
            let (target, handle, layout) = plan_target(engine, db, table, filter.as_ref())?;
            let schema = &handle.table().schema;
            let sets = sets
                .iter()
                .map(|(col, e)| {
                    let ord = schema
                        .column_index(col)
                        .ok_or_else(|| SqlError::Plan(format!("unknown column in SET: {col}")))?;
                    Ok((ord, bind(e, &layout)?))
                })
                .collect::<Result<_>>()?;
            Node::Update(UpdatePlan { target, sets })
        }
        Statement::Delete { table, filter } => {
            Node::Delete(plan_target(engine, db, table, filter.as_ref())?.0)
        }
    };
    Ok(Plan {
        db: db.to_string(),
        class: stmt.class(),
        locked_tables: stmt
            .locked_tables()
            .into_iter()
            .map(str::to_string)
            .collect(),
        columns,
        node,
    })
}

fn plan_insert(
    engine: &Engine,
    db: &str,
    table: &str,
    columns: Option<&[String]>,
    values: &[Vec<Expr>],
) -> Result<InsertPlan> {
    let (table_ref, handle) = TableRef::bind(engine, db, table)?;
    let schema = &handle.table().schema;
    let ordinals: Vec<usize> = match columns {
        None => (0..schema.columns.len()).collect(),
        Some(cols) => cols
            .iter()
            .map(|col| {
                schema
                    .column_index(col)
                    .ok_or_else(|| SqlError::Plan(format!("unknown column in INSERT: {col}")))
            })
            .collect::<Result<_>>()?,
    };
    // VALUES sees no row: a column reference in it is unknown.
    let no_row = Layout::new();
    let rows = values
        .iter()
        .map(|tuple| {
            if tuple.len() != ordinals.len() {
                return Err(SqlError::Plan(match columns {
                    None => format!(
                        "INSERT arity: table {table} has {} columns, got {}",
                        ordinals.len(),
                        tuple.len()
                    ),
                    Some(_) => "INSERT arity mismatch".into(),
                }));
            }
            ordinals
                .iter()
                .zip(tuple)
                .map(|(&ord, e)| Ok((ord, bind(e, &no_row)?)))
                .collect()
        })
        .collect::<Result<_>>()?;
    Ok(InsertPlan {
        table: table_ref,
        width: schema.columns.len(),
        rows,
    })
}

/// Plan an ORDER BY as an ordered walk, if the statement is eligible: the
/// access path to walk (`access`, or — for a scan that a LIMIT will cut
/// short — the whole primary-key index) and the direction.
///
/// | access path | its order (= its index's entry order) |
/// |---|---|
/// | `IndexEq` | the primary key, under the one key |
/// | `IndexRange` | the index's column(s), then the primary key |
/// | `Scan` | none (row ids mean nothing to SQL) |
///
/// Eligible is a single-table, ungrouped, non-DISTINCT SELECT whose ORDER
/// BY keys `(column, desc)` — once the columns WHERE binds by equality are
/// dropped from both sides, being constant over the result, and so is a
/// column's second mention — all run one way, are a prefix of that order,
/// and together with the equality-bound columns cover a unique index, so
/// that no two rows tie and the answer does not depend on the path. Rows
/// the residual WHERE rejects drop out of an ordered stream without
/// disturbing it.
fn ordered_walk(
    table: &Table,
    access: &Access,
    eq: &BTreeMap<usize, &BoundExpr>,
    keys: &[(usize, bool)],
    limited: bool,
) -> Option<(Access, Direction)> {
    let free = |col: &usize| !eq.contains_key(col);
    // A column sorted by before breaks no tie when it is named again.
    let first_mention = |i: usize| !keys[..i].iter().any(|(c, _)| *c == keys[i].0);
    let keys: Vec<(usize, bool)> = (0..keys.len())
        .filter(|&i| free(&keys[i].0) && first_mention(i))
        .map(|i| keys[i])
        .collect();
    let &(_, desc) = keys.first()?;
    if keys.iter().any(|&(_, d)| d != desc) {
        return None;
    }
    let settled = |col: &usize| !free(col) || keys.iter().any(|(c, _)| c == col);
    let schema = &table.schema;
    if !schema
        .indexes
        .iter()
        .any(|i| i.unique && i.columns.iter().all(settled))
    {
        return None;
    }
    let (index, access) = match access {
        Access::IndexEq { index, .. } | Access::IndexRange { index, .. } => {
            (*index, access.clone())
        }
        // Reading every row in row-id order touches each page once; an
        // index walk pays off only if LIMIT ends it.
        Access::Scan if limited => {
            let (index, _) = schema.primary_key()?;
            let (lo, hi) = (Vec::new(), Vec::new());
            (index, Access::IndexRange { index, lo, hi })
        }
        Access::Scan => return None,
    };
    let mut order = table.entry_columns(index).iter().filter(|c| free(c));
    let answered = keys.iter().all(|(col, _)| order.next() == Some(col));
    let dir = if desc {
        Direction::Backward
    } else {
        Direction::Forward
    };
    answered.then_some((access, dir))
}

/// One table's columns as a block of the row stream.
fn push_table(layout: &mut Layout, binding: &str, schema: &TableSchema) -> Range<usize> {
    let start = layout.width();
    layout.push_table(
        binding,
        schema.columns.iter().map(|c| c.name.clone()).collect(),
    );
    start..layout.width()
}

fn plan_target(
    engine: &Engine,
    db: &str,
    table: &str,
    filter: Option<&Expr>,
) -> Result<(Target, TableHandle, Layout)> {
    let (table_ref, handle) = TableRef::bind(engine, db, table)?;
    let schema = &handle.table().schema;
    let mut layout = Layout::new();
    let block = push_table(&mut layout, table, schema);
    let filter = filter.map(|f| bind(f, &layout)).transpose()?;
    let conjuncts = filter.as_ref().map(|f| f.conjuncts()).unwrap_or_default();
    let target = Target {
        table: table_ref,
        access: access_path(schema, block, &conjuncts),
        filter,
    };
    Ok((target, handle, layout))
}

/// `column <op> constant` (either way round) over a column of `block`:
/// the column's ordinal in its table, the operator as if the column were
/// on the left, and the constant side.
fn column_vs_constant<'a>(
    conjunct: &'a BoundExpr,
    block: &Range<usize>,
) -> Option<(usize, BinOp, &'a BoundExpr)> {
    let BoundExpr::Binary { op, left, right } = conjunct else {
        return None;
    };
    let ordinal = |e: &BoundExpr| match e {
        BoundExpr::Column(off) if block.contains(off) => Some(off - block.start),
        _ => None,
    };
    match (ordinal(left), ordinal(right)) {
        (Some(ord), None) if right.is_constant() => Some((ord, *op, right)),
        (None, Some(ord)) if left.is_constant() => Some((ord, flip(*op), left)),
        _ => None,
    }
}

/// Mirror a comparison when the column appears on the right-hand side.
fn flip(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::LtEq => BinOp::GtEq,
        BinOp::Gt => BinOp::Lt,
        BinOp::GtEq => BinOp::LtEq,
        other => other,
    }
}

/// The equality bindings among the WHERE conjuncts of the table whose
/// columns are `block` of the row stream: column ordinal → constant.
fn equalities<'a>(
    block: &Range<usize>,
    conjuncts: &[&'a BoundExpr],
) -> BTreeMap<usize, &'a BoundExpr> {
    conjuncts
        .iter()
        .filter_map(|c| column_vs_constant(c, block))
        .filter(|(_, op, _)| *op == BinOp::Eq)
        .map(|(ord, _, e)| (ord, e))
        .collect()
}

/// Pick an access path for the table whose columns are `block` of the row
/// stream, given the WHERE conjuncts.
fn access_path(schema: &TableSchema, block: Range<usize>, conjuncts: &[&BoundExpr]) -> Access {
    let compared: Vec<(usize, BinOp, &BoundExpr)> = conjuncts
        .iter()
        .filter_map(|c| column_vs_constant(c, &block))
        .collect();
    if let Some((index, key)) = fully_bound_index(schema, &equalities(&block, conjuncts)) {
        return Access::IndexEq { index, key };
    }
    // Range on a single-column index.
    for (index, idx) in schema.indexes.iter().enumerate() {
        let [ord] = idx.columns[..] else { continue };
        let bounds = |ops: [BinOp; 2]| -> Vec<BoundExpr> {
            compared
                .iter()
                .filter(|(o, op, _)| *o == ord && ops.contains(op))
                .map(|&(_, _, e)| e.clone())
                .collect()
        };
        let lo = bounds([BinOp::Gt, BinOp::GtEq]);
        let hi = bounds([BinOp::Lt, BinOp::LtEq]);
        if !lo.is_empty() || !hi.is_empty() {
            return Access::IndexRange { index, lo, hi };
        }
    }
    Access::Scan
}

fn plan_select(engine: &Engine, db: &str, sel: &SelectStmt) -> Result<(SelectPlan, Vec<String>)> {
    // Bind the ON clause of each join against the tables up to and
    // including its own; everything else against all of them.
    let (from, base) = TableRef::bind(engine, db, &sel.from.name)?;
    let mut layout = Layout::new();
    let base_block = push_table(&mut layout, sel.from.binding(), &base.table().schema);
    let mut joined = Vec::with_capacity(sel.joins.len());
    for join in &sel.joins {
        let (table, handle) = TableRef::bind(engine, db, &join.table.name)?;
        let block = push_table(&mut layout, join.table.binding(), &handle.table().schema);
        let on = bind(&join.on, &layout)?;
        joined.push((join.kind, table, handle, block, on));
    }
    let filter = sel.filter.as_ref().map(|f| bind(f, &layout)).transpose()?;
    let where_conjuncts = filter.as_ref().map(|f| f.conjuncts()).unwrap_or_default();

    let access = access_path(&base.table().schema, base_block.clone(), &where_conjuncts);
    let joins: Vec<JoinPlan> = joined
        .into_iter()
        .map(|(kind, table, handle, block, on)| {
            let schema = &handle.table().schema;
            let strategy = match join_index(schema, &block, &on) {
                Some((index, key)) => JoinStrategy::IndexLookup { index, key },
                // WHERE pushdown is only safe for inner joins (a
                // pre-filtered right side would turn filtered matches into
                // spurious NULL rows under LEFT JOIN).
                None if kind == JoinKind::Left => JoinStrategy::Nested(Access::Scan),
                None => JoinStrategy::Nested(access_path(schema, block.clone(), &where_conjuncts)),
            };
            JoinPlan {
                table,
                kind,
                width: block.len(),
                strategy,
                on,
            }
        })
        .collect();

    let grouped = !sel.group_by.is_empty()
        || sel
            .items
            .iter()
            .any(|i| matches!(i, SelectItem::Expr { expr, .. } if expr.has_aggregate()));
    if !grouped && sel.having.is_some() {
        return Err(SqlError::Plan(
            "HAVING requires GROUP BY or aggregates".into(),
        ));
    }
    let mut aggs = Vec::new();
    let mut bind_output = |e: &Expr| {
        if grouped {
            bind_grouped(e, &layout, &mut aggs)
        } else {
            bind(e, &layout)
        }
    };

    let mut columns = Vec::new();
    let mut items = Vec::with_capacity(sel.items.len());
    // Each output column's expression.
    let mut outputs = Vec::new();
    for (i, item) in sel.items.iter().enumerate() {
        match item {
            SelectItem::Star => {
                columns.extend(layout.all_columns());
                outputs.extend((0..layout.width()).map(BoundExpr::Column));
                items.push(Item::Star);
            }
            SelectItem::Expr { expr, .. } => {
                columns.push(item_name(item, i));
                let bound = bind_output(expr)?;
                outputs.push(bound.clone());
                items.push(Item::Expr(bound));
            }
        }
    }
    let order_by: Vec<SortKey> = sel
        .order_by
        .iter()
        .map(|k| {
            // An unqualified column naming an output column sorts by it.
            let output = match &k.expr {
                Expr::Column { table: None, name } => {
                    columns.iter().position(|c| c.eq_ignore_ascii_case(name))
                }
                _ => None,
            };
            Ok(SortKey {
                expr: match output {
                    Some(i) => outputs[i].clone(),
                    None => bind_output(&k.expr)?,
                },
                output,
                desc: k.desc,
            })
        })
        .collect::<Result<_>>()?;
    let having = sel.having.as_ref().map(&mut bind_output).transpose()?;
    let grouping = if grouped {
        let keys: Vec<BoundExpr> = sel
            .group_by
            .iter()
            .map(|g| bind(g, &layout))
            .collect::<Result<_>>()?;
        let key_columns: Vec<(usize, usize)> = keys
            .iter()
            .enumerate()
            .filter_map(|(slot, k)| match k {
                BoundExpr::Column(off) => Some((*off, slot)),
                _ => None,
            })
            .collect();
        // A column a group expression reads (aggregate arguments are not
        // group expressions: they read every row, as it is folded in).
        let mut first_row = items.contains(&Item::Star);
        let read = items
            .iter()
            .filter_map(|item| match item {
                Item::Expr(e) => Some(e),
                Item::Star => None,
            })
            .chain(having.iter())
            .chain(order_by.iter().map(|k| &k.expr));
        for e in read {
            e.visit(&mut |n| {
                if let BoundExpr::Column(off) = n {
                    first_row |= !key_columns.iter().any(|(c, _)| c == off);
                }
            });
        }
        Some(Grouping {
            keys,
            key_columns,
            first_row,
            aggs,
            having,
        })
    } else {
        None
    };

    // ORDER BY as `(column of the one table, desc)`, if it is nothing else.
    let sort_columns = || -> Option<Vec<(usize, bool)>> {
        order_by
            .iter()
            .map(|k| match k.expr {
                BoundExpr::Column(off) => Some((off, k.desc)),
                _ => None,
            })
            .collect()
    };
    let eligible = joins.is_empty() && !grouped && !sel.distinct;
    let walk = eligible.then(sort_columns).flatten().and_then(|keys| {
        let eq = equalities(&base_block, &where_conjuncts);
        ordered_walk(base.table(), &access, &eq, &keys, sel.limit.is_some())
    });
    let (access, ordered) = match walk {
        Some((access, dir)) => (access, Some(dir)),
        None => (access, None),
    };

    let plan = SelectPlan {
        from,
        access,
        ordered,
        joins,
        filter,
        for_update: sel.for_update,
        items,
        grouping,
        order_by,
        distinct: sel.distinct,
        limit: sel.limit,
    };
    Ok((plan, columns))
}

/// Index nested-loop: find ON conjuncts `new.col = expr(joined so far)` that
/// together bind the whole key of one of the new table's indexes.
fn join_index(
    schema: &TableSchema,
    block: &Range<usize>,
    on: &BoundExpr,
) -> Option<(usize, Vec<BoundExpr>)> {
    let left_only = |e: &BoundExpr| {
        let mut ok = true;
        e.visit(&mut |n| {
            if matches!(n, BoundExpr::Column(off) if *off >= block.start) {
                ok = false;
            }
        });
        ok
    };
    let mut key_cols: BTreeMap<usize, &BoundExpr> = BTreeMap::new();
    for c in on.conjuncts() {
        let BoundExpr::Binary {
            op: BinOp::Eq,
            left,
            right,
        } = c
        else {
            continue;
        };
        for (col_side, expr_side) in [(left, right), (right, left)] {
            if let BoundExpr::Column(off) = **col_side {
                if block.contains(&off) && left_only(expr_side) {
                    key_cols.entry(off - block.start).or_insert(expr_side);
                }
            }
        }
    }
    fully_bound_index(schema, &key_cols)
}

/// The first index (schema order puts "pk" first) whose every key column
/// has an expression in `bound` (column ordinal → expression): its ordinal
/// and its key.
fn fully_bound_index(
    schema: &TableSchema,
    bound: &BTreeMap<usize, &BoundExpr>,
) -> Option<(usize, Vec<BoundExpr>)> {
    let (index, idx) =
        schema.indexes.iter().enumerate().find(|(_, i)| {
            !i.columns.is_empty() && i.columns.iter().all(|c| bound.contains_key(c))
        })?;
    Some((
        index,
        idx.columns.iter().map(|c| bound[c].clone()).collect(),
    ))
}

/// Output column name for a projected expression.
fn item_name(item: &SelectItem, i: usize) -> String {
    match item {
        SelectItem::Star => "*".into(),
        SelectItem::Expr { alias: Some(a), .. } => a.clone(),
        SelectItem::Expr { expr, .. } => match expr {
            Expr::Column { name, .. } => name.clone(),
            Expr::Agg { func, .. } => format!("{func:?}").to_lowercase(),
            _ => format!("col{i}"),
        },
    }
}
