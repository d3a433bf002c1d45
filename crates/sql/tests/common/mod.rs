//! Shared by the SQL test suites (this crate's unit and integration tests,
//! and `crates/tpcw/tests/plans.rs`, which `#[path]`-include it): the
//! differential check "a plan can never change results", and the seeded
//! statement generator behind the round-trip and plan fuzz tests.
//!
//! The reference shares no code with the executor's grouping, ranking or
//! projection: [`naive`] fetches the rows of FROM, the joins and WHERE
//! through the chosen plan with every access path forced to a table scan
//! and every join to a nested loop over scans (`Plan::forcing_scans`), then
//! groups them in a `BTreeMap`, sorts stably, de-duplicates and truncates,
//! the obvious way. Residual predicates decide which rows there are, so the
//! chosen plan must agree with it wherever SQL defines the result; and the
//! forced-scan plan of the statement itself, which fetches the same rows in
//! the same order, must agree with it row for row.

#![allow(dead_code)] // each including suite uses its own part

use std::collections::{BTreeMap, BTreeSet};

use tenantdb_sql::ast::{Expr, SelectItem, SelectStmt, Statement, StatementClass};
use tenantdb_sql::eval::{
    accepts, bind, bind_grouped, eval, AggState, BoundExpr, Env, Layout, Row,
};
use tenantdb_sql::{parse, plan, run, QueryResult, Result, SqlError};
use tenantdb_storage::{Engine, TxnId, Value};

/// `tenantdb_sql::execute`, plus the differential check: panics if the
/// chosen plan, its forced-scan version and the [`naive`] reference
/// disagree. Reads run all three in `txn`; a write runs its forced-scan
/// version first in a transaction of its own, which is aborted, so only the
/// chosen plan's effects stay. (Both take table-level locks in passing —
/// tests that observe locks call `execute`.)
pub fn execute_checked(
    engine: &Engine,
    txn: TxnId,
    db: &str,
    sql: &str,
    params: &[Value],
) -> Result<QueryResult> {
    let stmt = parse(sql)?;
    let chosen = plan(engine, db, &stmt)?;
    let reference = chosen.forcing_scans();
    match &stmt {
        Statement::Select(sel) => {
            let got = run(engine, txn, &chosen, params);
            let expected = naive(engine, txn, db, sel, params);
            let scanned = run(engine, txn, &reference, params);
            if let (Ok(got), Ok(expected), Ok(scanned)) = (&got, &expected, &scanned) {
                if let Err(why) = same_result(sel, got, expected) {
                    panic!("plan changed the result of {sql} {params:?}: {why}");
                }
                assert_eq!(
                    scanned.rows, expected.rows,
                    "the executor and the naive reference disagree on {sql} {params:?}"
                );
            }
            got
        }
        // Nothing was chosen (DDL, INSERT, a plan that scans anyway).
        _ if reference == chosen => run(engine, txn, &chosen, params),
        _ => {
            assert_eq!(stmt.class(), StatementClass::Write);
            let table = chosen.locked_tables()[0].as_str();
            let after = |t: TxnId, r: QueryResult| -> Result<_> {
                Ok((r.rows_affected, engine.scan(t, db, table)?))
            };
            let ref_txn = engine.begin()?;
            let expected = run(engine, ref_txn, &reference, params).and_then(|r| after(ref_txn, r));
            engine.abort(ref_txn)?;
            let got = run(engine, txn, &chosen, params)?;
            if let Ok(expected) = expected {
                let got = after(txn, got.clone())?;
                assert_eq!(got, expected, "plan changed the effect of {sql} {params:?}");
            }
            Ok(got)
        }
    }
}

/// The answer to `sel` computed the obvious way over the rows its FROM and
/// joins fetch by forced scans, in fetch order: WHERE; per group (a
/// `BTreeMap` by key, so groups come out in key order) its first row and
/// its aggregates; HAVING; the projection; a stable sort; first occurrences
/// only under DISTINCT; LIMIT. Expressions are bound and evaluated by the
/// library's `eval`; WHERE and HAVING accept a row whose value is TRUE
/// (`accepts`). `eval` gives a predicate's value by the executor's own
/// three-valued logic (`eval::truth`, checked against a truth table in its
/// unit tests), so what this checks is the executor's fetch, grouping and
/// ordering around it — and that its forced-scan fetch under WHERE keeps
/// exactly the rows `eval` keeps, failing where it fails.
pub fn naive(
    engine: &Engine,
    txn: TxnId,
    db: &str,
    sel: &SelectStmt,
    params: &[Value],
) -> Result<QueryResult> {
    let fetch = |filter: Option<Expr>| -> Result<Vec<Vec<Value>>> {
        let fetch = SelectStmt {
            distinct: false,
            items: vec![SelectItem::Star],
            filter,
            group_by: Vec::new(),
            having: None,
            order_by: Vec::new(),
            limit: None,
            ..sel.clone()
        };
        let scans = plan(engine, db, &Statement::Select(fetch))?.forcing_scans();
        Ok(run(engine, txn, &scans, params)?.rows)
    };
    let mut layout = Layout::new();
    for table in std::iter::once(&sel.from).chain(sel.joins.iter().map(|j| &j.table)) {
        let handle = engine.open_table(db, &table.name)?;
        let names = handle.table().schema.columns.iter().map(|c| c.name.clone());
        layout.push_table(table.binding(), names.collect());
    }
    let filtered = fetch(sel.filter.clone());
    let mut fetched = fetch(None)?;
    if let Some(filter) = &sel.filter {
        let filter = bind(filter, &layout)?;
        let mut kept = Vec::new();
        let mut verdict = Ok(());
        for row in fetched {
            match accepts(&*eval(
                &filter,
                Env::constant(params).with_row(Row::of(&row)),
            )?) {
                Ok(true) => kept.push(row),
                Ok(false) => {}
                Err(e) => {
                    verdict = Err(e);
                    break;
                }
            }
        }
        match (&verdict, &filtered) {
            (Ok(()), Ok(rows)) => assert_eq!(rows, &kept, "WHERE kept other rows"),
            (Err(_), Err(_)) => {}
            _ => panic!("WHERE: the executor {filtered:?}, eval {verdict:?}"),
        }
        verdict?;
        fetched = kept;
    }
    let grouped = !sel.group_by.is_empty()
        || sel
            .items
            .iter()
            .any(|i| matches!(i, SelectItem::Expr { expr, .. } if expr.has_aggregate()));
    let mut calls = Vec::new();
    let mut bind_output = |e: &Expr| {
        if grouped {
            bind_grouped(e, &layout, &mut calls)
        } else {
            bind(e, &layout)
        }
    };
    // The output columns as the planner names them; `None` for `*`.
    let mut columns = Vec::new();
    let mut items = Vec::new();
    for (i, item) in sel.items.iter().enumerate() {
        match item {
            SelectItem::Star => {
                columns.extend(layout.all_columns());
                items.push(None);
            }
            SelectItem::Expr { expr, alias } => {
                columns.push(match (alias, expr) {
                    (Some(a), _) => a.clone(),
                    (None, Expr::Column { name, .. }) => name.clone(),
                    (None, Expr::Agg { func, .. }) => format!("{func:?}").to_lowercase(),
                    (None, _) => format!("col{i}"),
                });
                items.push(Some(bind_output(expr)?));
            }
        }
    }
    // An unqualified column naming an output column sorts by that column.
    let order = sel
        .order_by
        .iter()
        .map(|k| {
            let output = match &k.expr {
                Expr::Column { table: None, name } => {
                    columns.iter().position(|c| c.eq_ignore_ascii_case(name))
                }
                _ => None,
            };
            Ok(match output {
                Some(i) => (SortBy::Output(i), k.desc),
                None => (SortBy::Expr(bind_output(&k.expr)?), k.desc),
            })
        })
        .collect::<Result<Vec<_>>>()?;
    let having = sel.having.as_ref().map(&mut bind_output).transpose()?;

    // `(output row, sort keys)` of one row, or of one group given its
    // first row and finished aggregates.
    let project = |row: Option<&[Value]>, aggs: &[AggState]| -> Result<(Vec<Value>, Vec<Value>)> {
        let env = Env {
            row: Row::of(row.unwrap_or_default()),
            params,
            aggs,
        };
        let mut out = Vec::new();
        for item in &items {
            match item {
                None => out.extend(
                    row.ok_or_else(|| SqlError::Plan("SELECT * over empty group".into()))?
                        .iter()
                        .cloned(),
                ),
                Some(e) => out.push(eval(e, env)?.into_owned()),
            }
        }
        let mut keys = Vec::new();
        for (by, _) in &order {
            keys.push(match by {
                SortBy::Output(i) => out[*i].clone(),
                SortBy::Expr(e) => eval(e, env)?.into_owned(),
            });
        }
        Ok((out, keys))
    };
    let mut rows = Vec::new();
    if grouped {
        let keys: Vec<BoundExpr> = sel
            .group_by
            .iter()
            .map(|g| bind(g, &layout))
            .collect::<Result<_>>()?;
        // Per group key: the group's first row and its aggregate states.
        let mut groups: BTreeMap<Vec<Value>, Group> = BTreeMap::new();
        let fresh = || calls.iter().map(|c| AggState::new(c.func)).collect();
        if keys.is_empty() {
            groups.insert(Vec::new(), (None, fresh()));
        }
        for row in &fetched {
            let env = Env::constant(params).with_row(Row::of(row));
            let key = keys
                .iter()
                .map(|k| Ok(eval(k, env)?.into_owned()))
                .collect::<Result<Vec<_>>>()?;
            let (first, states) = groups.entry(key).or_insert_with(|| (None, fresh()));
            first.get_or_insert_with(|| row.clone());
            for (state, call) in states.iter_mut().zip(&calls) {
                state.feed(call, env);
            }
        }
        for (first, aggs) in groups.into_values() {
            let env = Env {
                row: Row::of(first.as_deref().unwrap_or_default()),
                params,
                aggs: &aggs,
            };
            if let Some(h) = &having {
                if !accepts(&*eval(h, env)?)? {
                    continue;
                }
            }
            rows.push(project(first.as_deref(), &aggs)?);
        }
    } else {
        for row in &fetched {
            rows.push(project(Some(row), &[])?);
        }
    }
    rows.sort_by(|(_, a), (_, b)| {
        for ((x, y), (_, desc)) in a.iter().zip(b).zip(&order) {
            let ord = if *desc { y.cmp(x) } else { x.cmp(y) };
            if ord.is_ne() {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    let mut rows: Vec<Vec<Value>> = rows.into_iter().map(|(row, _)| row).collect();
    if sel.distinct {
        let mut seen = BTreeSet::new();
        rows.retain(|r| seen.insert(r.clone()));
    }
    if let Some(limit) = sel.limit {
        rows.truncate(limit as usize);
    }
    Ok(QueryResult {
        columns: columns.into(),
        rows,
        ..QueryResult::default()
    })
}

/// A group of [`naive`]'s: its first row and its aggregate states.
type Group = (Option<Vec<Value>>, Vec<AggState>);

/// What [`naive`] sorts a row by: an output column, or an expression.
enum SortBy {
    Output(usize),
    Expr(BoundExpr),
}

/// Do two results of `sel` agree wherever SQL defines the result? Row order
/// is defined only by ORDER BY (and only up to ties), and which rows a
/// LIMIT keeps only by that order.
pub fn same_result(
    sel: &SelectStmt,
    got: &QueryResult,
    expected: &QueryResult,
) -> std::result::Result<(), String> {
    if got.columns != expected.columns {
        return Err(format!(
            "columns {:?} vs {:?}",
            got.columns, expected.columns
        ));
    }
    if got.rows.len() != expected.rows.len() {
        return Err(format!(
            "{} rows vs {}",
            got.rows.len(),
            expected.rows.len()
        ));
    }
    let cut = sel.limit.is_some_and(|l| expected.rows.len() as u64 >= l);
    // ORDER BY keys that are output columns: both must list them alike.
    let keys: Vec<usize> = sel
        .order_by
        .iter()
        .filter_map(|k| match &k.expr {
            Expr::Column { table: None, name } => got
                .columns
                .iter()
                .position(|c| c.eq_ignore_ascii_case(name)),
            _ => None,
        })
        .collect();
    if keys.len() == sel.order_by.len() {
        let project = |r: &QueryResult| -> Vec<Vec<Value>> {
            r.rows
                .iter()
                .map(|row| keys.iter().map(|&i| row[i].clone()).collect())
                .collect()
        };
        if project(got) != project(expected) {
            return Err(format!(
                "order: {:?} vs {:?}",
                project(got),
                project(expected)
            ));
        }
    }
    // Rows a group takes from "its first row" depend on the fetch order.
    let first_row_dependent = !sel.group_by.is_empty()
        && sel.items.iter().any(|i| match i {
            SelectItem::Star => true,
            SelectItem::Expr { expr, .. } => !expr.has_aggregate() && !sel.group_by.contains(expr),
        });
    if !cut && !first_row_dependent {
        let sorted = |r: &QueryResult| {
            let mut rows = r.rows.clone();
            rows.sort();
            rows
        };
        if sorted(got) != sorted(expected) {
            return Err(format!("rows {:?} vs {:?}", got.rows, expected.rows));
        }
    }
    Ok(())
}

/// Seeded statement generator (on `compat-rand`, so it runs offline and in
/// CI). Statements are built over a [`gen::Vocab`] — random names for the
/// print/parse round trip, a real schema's for the plan fuzz — and typed
/// loosely enough to exercise every expression form while still evaluating
/// without a type error most of the time.
pub mod gen {
    use rand::rngs::StdRng;
    use rand::Rng;
    use tenantdb_sql::ast::*;
    use tenantdb_storage::{DataType, Value};

    /// The tables statements may name: `(table, [(column, type)])`.
    pub type Vocab = Vec<(String, Vec<(String, DataType)>)>;

    /// Lowercase identifiers that are not keywords of the dialect.
    pub fn ident(rng: &mut StdRng) -> String {
        const KEYWORDS: &[&str] = &[
            "select", "from", "where", "group", "by", "having", "order", "limit", "for", "update",
            "delete", "insert", "into", "values", "create", "table", "index", "on", "join",
            "inner", "left", "outer", "and", "or", "not", "in", "like", "between", "is", "null",
            "as", "set", "distinct", "primary", "key", "unique", "count", "sum", "avg", "min",
            "max", "true", "false", "coalesce", "abs", "length", "upper", "lower", "substr",
            "desc", "asc", "int", "text", "float", "bool",
        ];
        loop {
            let len = rng.gen_range(1..=7usize);
            let mut s = String::new();
            for i in 0..len {
                let c = match rng.gen_range(0..if i == 0 { 26 } else { 37u32 }) {
                    n @ 0..=25 => (b'a' + n as u8) as char,
                    n @ 26..=35 => (b'0' + (n - 26) as u8) as char,
                    _ => '_',
                };
                s.push(c);
            }
            if !KEYWORDS.contains(&s.as_str()) {
                return s;
            }
        }
    }

    /// A vocabulary of random names (two tables, a few typed columns each).
    pub fn random_vocab(rng: &mut StdRng) -> Vocab {
        (0..2)
            .map(|_| {
                let cols = (0..rng.gen_range(2..5usize))
                    .map(|i| {
                        let ty = if i % 2 == 0 {
                            DataType::Int
                        } else {
                            DataType::Text
                        };
                        (ident(rng), ty)
                    })
                    .collect();
                (ident(rng), cols)
            })
            .collect()
    }

    /// The types of the `?` slots of a generated statement, in text order.
    pub type Slots = Vec<DataType>;

    /// Draw parameter values for `slots`: small domains (so equalities hit,
    /// ranges are often empty or whole) and the occasional NULL.
    pub fn draw_params(rng: &mut StdRng, slots: &Slots) -> Vec<Value> {
        slots
            .iter()
            .map(|ty| {
                if rng.gen_bool(0.1) {
                    return Value::Null;
                }
                match ty {
                    DataType::Text => Value::Text(format!("s{}", rng.gen_range(0..6))),
                    _ => Value::Int(rng.gen_range(-2..14)),
                }
            })
            .collect()
    }

    struct Gen<'a> {
        rng: &'a mut StdRng,
        /// Columns in scope: `(qualifier, column, type)`.
        scope: Vec<(Option<String>, String, DataType)>,
        slots: Slots,
        /// May `?` appear? (Only where the printer keeps text order.)
        params: bool,
    }

    impl Gen<'_> {
        fn column(&mut self, ty: DataType) -> Option<Expr> {
            let candidates: Vec<_> = self.scope.iter().filter(|c| c.2 == ty).collect();
            if candidates.is_empty() {
                return None;
            }
            let (table, name, _) = candidates[self.rng.gen_range(0..candidates.len())].clone();
            Some(Expr::Column { table, name })
        }

        /// A `?`, a literal, or (rarely) NULL.
        fn constant(&mut self, ty: DataType) -> Expr {
            if self.params && self.rng.gen_bool(0.5) {
                self.slots.push(ty);
                return Expr::Param(self.slots.len() - 1);
            }
            Expr::Literal(match ty {
                _ if self.rng.gen_bool(0.08) => Value::Null,
                DataType::Text => Value::Text(format!("s{}", self.rng.gen_range(0..6))),
                _ => Value::Int(self.rng.gen_range(-2..14)),
            })
        }

        fn leaf(&mut self, ty: DataType) -> Expr {
            if self.rng.gen_bool(0.5) {
                if let Some(c) = self.column(ty) {
                    return c;
                }
            }
            self.constant(ty)
        }

        fn value(&mut self, ty: DataType, depth: u32) -> Expr {
            if depth == 0 || self.rng.gen_bool(0.5) {
                return self.leaf(ty);
            }
            let bin = |g: &mut Self, op| Expr::Binary {
                op,
                left: Box::new(g.value(ty, depth - 1)),
                right: Box::new(g.value(ty, depth - 1)),
            };
            let func = |g: &mut Self, func, of| Expr::Func {
                func,
                args: vec![g.value(of, depth - 1)],
            };
            match (ty, self.rng.gen_range(0..8)) {
                (DataType::Text, 0..=2) => func(self, ScalarFunc::Upper, DataType::Text),
                (DataType::Text, 3..=4) => func(self, ScalarFunc::Lower, DataType::Text),
                (DataType::Text, _) => Expr::Func {
                    func: ScalarFunc::Coalesce,
                    args: vec![self.value(ty, depth - 1), self.leaf(ty)],
                },
                (_, 0) => bin(self, BinOp::Add),
                (_, 1) => bin(self, BinOp::Sub),
                (_, 2) => bin(self, BinOp::Mul),
                (_, 3) => bin(self, BinOp::Div),
                (_, 4) => bin(self, BinOp::Mod),
                (_, 5) => func(self, ScalarFunc::Abs, DataType::Int),
                (_, 6) => func(self, ScalarFunc::Length, DataType::Text),
                _ => Expr::Func {
                    func: ScalarFunc::Coalesce,
                    args: vec![self.value(ty, depth - 1), self.leaf(ty)],
                },
            }
        }

        fn predicate(&mut self, depth: u32) -> Expr {
            let ty = if self.rng.gen_bool(0.7) {
                DataType::Int
            } else {
                DataType::Text
            };
            if depth > 0 && self.rng.gen_bool(0.4) {
                // Now and then a NULL on either side of AND / OR, or under
                // NOT: the unknown operand of three-valued logic.
                let side = |g: &mut Self| match g.rng.gen_bool(0.15) {
                    true => Expr::Literal(Value::Null),
                    false => g.predicate(depth - 1),
                };
                return match self.rng.gen_range(0..5) {
                    0 | 1 => Expr::Binary {
                        op: BinOp::And,
                        left: Box::new(side(self)),
                        right: Box::new(side(self)),
                    },
                    2 | 3 => Expr::Binary {
                        op: BinOp::Or,
                        left: Box::new(side(self)),
                        right: Box::new(side(self)),
                    },
                    _ => Expr::Unary {
                        op: UnaryOp::Not,
                        expr: Box::new(side(self)),
                    },
                };
            }
            let float = self.column(DataType::Float);
            match self.rng.gen_range(0..10) {
                0 => Expr::IsNull {
                    expr: Box::new(self.value(ty, 1)),
                    negated: self.rng.gen_bool(0.5),
                },
                // A NULL in the list makes a miss unknown.
                1 => Expr::InList {
                    expr: Box::new(self.value(ty, 1)),
                    list: (0..self.rng.gen_range(1..4))
                        .map(|_| match self.rng.gen_bool(0.2) {
                            true => Expr::Literal(Value::Null),
                            false => self.leaf(ty),
                        })
                        .collect(),
                    negated: self.rng.gen_bool(0.3),
                },
                2 => Expr::Like {
                    expr: Box::new(self.value(DataType::Text, 1)),
                    pattern: Box::new(match self.rng.gen_range(0..6) {
                        0..=3 => Expr::Literal(Value::Text(
                            ["s%", "%1", "s_", "%"][self.rng.gen_range(0..4usize)].into(),
                        )),
                        4 => Expr::Literal(Value::Null),
                        _ => self.leaf(DataType::Text),
                    }),
                    negated: self.rng.gen_bool(0.3),
                },
                // A FLOAT column against an INT, a FLOAT literal or itself.
                3 if float.is_some() => {
                    let other = match self.rng.gen_range(0..3) {
                        0 => self.leaf(DataType::Int),
                        1 => Expr::Literal(Value::Float([0.5, 2.5][self.rng.gen_range(0..2usize)])),
                        _ => self.column(DataType::Float).expect("a FLOAT column"),
                    };
                    const CMP: [BinOp; 4] = [BinOp::Eq, BinOp::Lt, BinOp::GtEq, BinOp::NotEq];
                    Expr::Binary {
                        op: CMP[self.rng.gen_range(0..CMP.len())],
                        left: Box::new(float.expect("a FLOAT column")),
                        right: Box::new(other),
                    }
                }
                _ => {
                    const CMP: [BinOp; 6] = [
                        BinOp::Eq,
                        BinOp::Eq,
                        BinOp::NotEq,
                        BinOp::Lt,
                        BinOp::LtEq,
                        BinOp::Gt,
                    ];
                    let op = if self.rng.gen_bool(0.15) {
                        BinOp::GtEq
                    } else {
                        CMP[self.rng.gen_range(0..CMP.len())]
                    };
                    // Mostly `column <op> leaf` (either way round) — the
                    // shape access paths are chosen from.
                    let (l, r) = if self.rng.gen_bool(0.7) {
                        let col = self.column(ty).unwrap_or_else(|| self.leaf(ty));
                        (col, self.constant(ty))
                    } else {
                        (self.value(ty, 1), self.value(ty, 1))
                    };
                    let (left, right) = if self.rng.gen_bool(0.25) {
                        (r, l)
                    } else {
                        (l, r)
                    };
                    Expr::Binary {
                        op,
                        left: Box::new(left),
                        right: Box::new(right),
                    }
                }
            }
        }
    }

    fn qualified(
        vocab: &Vocab,
        table: usize,
        alias: Option<&str>,
    ) -> Vec<(Option<String>, String, DataType)> {
        let (name, cols) = &vocab[table];
        let q = alias.unwrap_or(name).to_string();
        cols.iter()
            .map(|(c, ty)| (Some(q.clone()), c.clone(), *ty))
            .collect()
    }

    /// A SELECT over `vocab`'s first table, sometimes joined to its second
    /// on `join_on` (`(second.col, first.col)`), sometimes grouped, ordered
    /// by output columns only (so its order is checkable), with `?` slots
    /// in its WHERE clause.
    pub fn select(
        rng: &mut StdRng,
        vocab: &Vocab,
        join_on: Option<(&str, &str)>,
    ) -> (Statement, Slots) {
        let joined = join_on.filter(|_| vocab.len() > 1 && rng.gen_bool(0.35));
        let alias = |rng: &mut StdRng, a: &str| rng.gen_bool(0.5).then(|| a.to_string());
        let (a0, a1) = (alias(rng, "x"), alias(rng, "y"));
        let mut scope = qualified(vocab, 0, a0.as_deref());
        let mut joins = Vec::new();
        if let Some((right_col, left_col)) = joined {
            let col = |t: usize, a: &Option<String>, c: &str| Expr::Column {
                table: Some(a.clone().unwrap_or_else(|| vocab[t].0.clone())),
                name: c.to_string(),
            };
            joins.push(Join {
                kind: if rng.gen_bool(0.4) {
                    JoinKind::Left
                } else {
                    JoinKind::Inner
                },
                table: TableRef {
                    name: vocab[1].0.clone(),
                    alias: a1.clone(),
                },
                on: Expr::Binary {
                    op: BinOp::Eq,
                    left: Box::new(col(1, &a1, right_col)),
                    right: Box::new(col(0, &a0, left_col)),
                },
            });
            scope.extend(qualified(vocab, 1, a1.as_deref()));
        } else if rng.gen_bool(0.5) {
            // One table: unqualified references resolve too.
            for c in &mut scope {
                c.0 = None;
            }
        }
        let mut g = Gen {
            rng,
            scope,
            slots: Vec::new(),
            params: false,
        };
        let grouped = g.rng.gen_bool(0.25);
        let mut items = Vec::new();
        let mut group_by = Vec::new();
        if grouped {
            let key = g
                .column(DataType::Int)
                .expect("every table has an INT column");
            group_by.push(key.clone());
            items.push(SelectItem::Expr {
                expr: key,
                alias: Some("k".into()),
            });
            for (i, func) in [AggFunc::Count, AggFunc::Sum, AggFunc::Min, AggFunc::Max]
                .into_iter()
                .enumerate()
            {
                if g.rng.gen_bool(0.5) {
                    let arg = (func != AggFunc::Count || g.rng.gen_bool(0.5))
                        .then(|| Box::new(g.column(DataType::Int).expect("INT column")));
                    items.push(SelectItem::Expr {
                        expr: Expr::Agg { func, arg },
                        alias: Some(format!("g{i}")),
                    });
                }
            }
        } else {
            for i in 0..g.rng.gen_range(1..4) {
                let ty = if g.rng.gen_bool(0.7) {
                    DataType::Int
                } else {
                    DataType::Text
                };
                items.push(SelectItem::Expr {
                    expr: g.value(ty, 1),
                    alias: Some(format!("c{i}")),
                });
            }
        }
        g.params = true;
        let filter = g.rng.gen_bool(0.85).then(|| g.predicate(2));
        let output: Vec<String> = items
            .iter()
            .map(|i| match i {
                SelectItem::Expr { alias: Some(a), .. } => a.clone(),
                _ => unreachable!("every generated item is aliased"),
            })
            .collect();
        let order_by: Vec<OrderKey> = if g.rng.gen_bool(0.5) {
            (0..g.rng.gen_range(1..=output.len().min(2)))
                .map(|_| OrderKey {
                    expr: Expr::Column {
                        table: None,
                        name: output[g.rng.gen_range(0..output.len())].clone(),
                    },
                    desc: g.rng.gen_bool(0.5),
                })
                .collect()
        } else {
            Vec::new()
        };
        let stmt = Statement::Select(SelectStmt {
            distinct: !grouped && g.rng.gen_bool(0.15),
            items,
            from: TableRef {
                name: vocab[0].0.clone(),
                alias: a0,
            },
            joins,
            filter,
            group_by,
            having: None,
            order_by,
            limit: g.rng.gen_bool(0.3).then(|| g.rng.gen_range(0..8)),
            for_update: false,
        });
        (stmt, g.slots)
    }

    /// A SELECT over `vocab`'s first table of the shapes an ordered index
    /// walk may answer — equality on one of the `indexed` columns, a range
    /// on it or on the primary key `pk`, or no usable predicate, under an
    /// ORDER BY of the primary key or `(column, primary key)`, both ways,
    /// with LIMIT 0 / 1 / a few / more than match, a residual predicate
    /// that rejects visited rows, sometimes FOR UPDATE — and of their
    /// near-misses: mixed directions, an ORDER BY that ends on no unique
    /// suffix or is not the index's order, GROUP BY, DISTINCT, a join. The
    /// ORDER BY names output columns, so the order is checkable.
    pub fn ordered(
        rng: &mut StdRng,
        vocab: &Vocab,
        pk: &str,
        indexed: &[&str],
        join_on: (&str, &str),
    ) -> (Statement, Slots) {
        let (table, cols) = &vocab[0];
        let joined = rng.gen_bool(0.1);
        let qualifier = joined.then(|| table.clone());
        let col = |name: &str| Expr::Column {
            table: qualifier.clone(),
            name: name.to_string(),
        };
        let ty_of = |name: &str| cols.iter().find(|c| c.0 == name).expect("a column").1;
        let mut g = Gen {
            rng,
            scope: cols
                .iter()
                .map(|(c, ty)| (qualifier.clone(), c.clone(), *ty))
                .collect(),
            slots: Vec::new(),
            params: true,
        };
        let compare = |g: &mut Gen, name: &str, op: BinOp| Expr::Binary {
            op,
            left: Box::new(col(name)),
            right: Box::new(g.constant(ty_of(name))),
        };
        let key = indexed[g.rng.gen_range(0..indexed.len())];
        let mut conjuncts = Vec::new();
        match g.rng.gen_range(0..6) {
            0..=2 => conjuncts.push(compare(&mut g, key, BinOp::Eq)),
            3 => {
                conjuncts.push(compare(&mut g, pk, BinOp::GtEq));
                if g.rng.gen_bool(0.5) {
                    conjuncts.push(compare(&mut g, pk, BinOp::Lt));
                }
            }
            4 => conjuncts.push(compare(&mut g, key, BinOp::Gt)),
            _ => {}
        }
        if g.rng.gen_bool(0.4) {
            conjuncts.push(g.predicate(1));
        }
        let filter = conjuncts.into_iter().reduce(|left, right| Expr::Binary {
            op: BinOp::And,
            left: Box::new(left),
            right: Box::new(right),
        });

        let grouped = !joined && g.rng.gen_bool(0.1);
        let other = cols[g.rng.gen_range(0..cols.len())].0.as_str();
        let order: Vec<&str> = match g.rng.gen_range(0..8) {
            _ if grouped => vec![key],
            0..=2 => vec![pk],
            3..=5 => vec![key, pk],
            6 => vec![key],
            _ => vec![other, pk],
        };
        let desc = g.rng.gen_bool(0.5);
        let mixed = g.rng.gen_bool(0.15);
        let order_by = order
            .iter()
            .enumerate()
            .map(|(i, name)| OrderKey {
                expr: Expr::Column {
                    table: None,
                    name: name.to_string(),
                },
                desc: desc ^ (mixed && i == 1),
            })
            .collect();
        let limit = match g.rng.gen_range(0..6) {
            0 => None,
            1 => Some(0),
            2 | 3 => Some(1),
            4 => Some(g.rng.gen_range(2..6)),
            _ => Some(100),
        };

        let plain = |expr| SelectItem::Expr { expr, alias: None };
        let items = if grouped {
            let count = Expr::Agg {
                func: AggFunc::Count,
                arg: None,
            };
            vec![plain(col(key)), plain(count)]
        } else if !joined && g.rng.gen_bool(0.2) {
            vec![SelectItem::Star]
        } else {
            cols.iter().map(|(c, _)| plain(col(c))).collect()
        };
        let joins = if joined {
            let (right_col, left_col) = join_on;
            vec![Join {
                kind: JoinKind::Inner,
                table: TableRef {
                    name: vocab[1].0.clone(),
                    alias: None,
                },
                on: Expr::Binary {
                    op: BinOp::Eq,
                    left: Box::new(Expr::Column {
                        table: Some(vocab[1].0.clone()),
                        name: right_col.to_string(),
                    }),
                    right: Box::new(col(left_col)),
                },
            }]
        } else {
            Vec::new()
        };
        let stmt = Statement::Select(SelectStmt {
            distinct: !grouped && g.rng.gen_bool(0.1),
            items,
            from: TableRef {
                name: table.clone(),
                alias: None,
            },
            joins,
            filter,
            group_by: if grouped { vec![col(key)] } else { Vec::new() },
            having: None,
            order_by,
            limit,
            for_update: !grouped && g.rng.gen_bool(0.15),
        });
        (stmt, g.slots)
    }

    /// A grouped SELECT over `vocab`'s first table: GROUP BY one or two of
    /// its non-`id` columns (or none — the implicit group), aggregates over
    /// its INT columns, sometimes HAVING and DISTINCT, sometimes the group's
    /// first `id` — mostly ordered by an aggregate, with a small LIMIT, so
    /// that ties between groups (small sums, counts) meet a LIMIT that cuts
    /// through them. The table's values should be few, NULL now and then,
    /// and in a FLOAT column both `1` and `1.0`.
    pub fn grouped(rng: &mut StdRng, vocab: &Vocab) -> (Statement, Slots) {
        let (table, cols) = &vocab[0];
        let mut g = Gen {
            rng,
            scope: cols.iter().map(|(c, ty)| (None, c.clone(), *ty)).collect(),
            slots: Vec::new(),
            params: true,
        };
        let col = |name: &str| Expr::Column {
            table: None,
            name: name.to_string(),
        };
        let keyable: Vec<&str> = cols
            .iter()
            .map(|(c, _)| c.as_str())
            .filter(|c| *c != "id")
            .collect();
        let ints: Vec<&str> = cols
            .iter()
            .filter(|(_, ty)| *ty == DataType::Int)
            .map(|(c, _)| c.as_str())
            .collect();
        let group_by: Vec<Expr> = match g.rng.gen_range(0..10) {
            0 => Vec::new(),
            1..=2 => {
                let a = keyable[g.rng.gen_range(0..keyable.len())];
                let b = keyable[g.rng.gen_range(0..keyable.len())];
                vec![col(a), col(b)]
            }
            _ => vec![col(keyable[g.rng.gen_range(0..keyable.len())])],
        };
        let mut items: Vec<SelectItem> = group_by
            .iter()
            .enumerate()
            .map(|(i, key)| SelectItem::Expr {
                expr: key.clone(),
                alias: Some(format!("k{i}")),
            })
            .collect();
        if g.rng.gen_bool(0.15) {
            // Read from the group's first row.
            items.push(SelectItem::Expr {
                expr: col("id"),
                alias: Some("first_id".into()),
            });
        }
        let aggregate = |g: &mut Gen| {
            let func = [
                AggFunc::Count,
                AggFunc::Sum,
                AggFunc::Sum,
                AggFunc::Min,
                AggFunc::Max,
                AggFunc::Avg,
            ][g.rng.gen_range(0..6usize)];
            let arg = (func != AggFunc::Count || g.rng.gen_bool(0.5))
                .then(|| Box::new(col(ints[g.rng.gen_range(0..ints.len())])));
            Expr::Agg { func, arg }
        };
        for i in 0..g.rng.gen_range(1..3) {
            items.push(SelectItem::Expr {
                expr: aggregate(&mut g),
                alias: Some(format!("a{i}")),
            });
        }
        let filter = g.rng.gen_bool(0.4).then(|| g.predicate(1));
        let having = g.rng.gen_bool(0.3).then(|| Expr::Binary {
            op: [BinOp::Gt, BinOp::GtEq, BinOp::Lt][g.rng.gen_range(0..3usize)],
            left: Box::new(aggregate(&mut g)),
            right: Box::new(g.constant(DataType::Int)),
        });
        let output: Vec<String> = items
            .iter()
            .map(|i| match i {
                SelectItem::Expr { alias: Some(a), .. } => a.clone(),
                _ => unreachable!("every generated item is aliased"),
            })
            .collect();
        let order_by: Vec<OrderKey> = if g.rng.gen_bool(0.85) {
            let aggregates: Vec<&String> = output.iter().filter(|o| o.starts_with('a')).collect();
            let mut keys = vec![OrderKey {
                expr: col(aggregates[g.rng.gen_range(0..aggregates.len())]),
                desc: g.rng.gen_bool(0.7),
            }];
            if g.rng.gen_bool(0.3) {
                keys.push(OrderKey {
                    expr: col(&output[g.rng.gen_range(0..output.len())]),
                    desc: g.rng.gen_bool(0.5),
                });
            }
            keys
        } else {
            Vec::new()
        };
        let stmt = Statement::Select(SelectStmt {
            distinct: g.rng.gen_bool(0.15),
            items,
            from: TableRef {
                name: table.clone(),
                alias: None,
            },
            joins: Vec::new(),
            filter,
            group_by,
            having,
            order_by,
            limit: g.rng.gen_bool(0.75).then(|| g.rng.gen_range(0..6)),
            for_update: false,
        });
        (stmt, g.slots)
    }

    /// An UPDATE or DELETE over `vocab`'s first table, `?` slots in SET
    /// values and WHERE.
    pub fn write(rng: &mut StdRng, vocab: &Vocab, settable: &[&str]) -> (Statement, Slots) {
        let (table, cols) = &vocab[0];
        let mut g = Gen {
            rng,
            scope: cols.iter().map(|(c, ty)| (None, c.clone(), *ty)).collect(),
            slots: Vec::new(),
            params: true,
        };
        let sets: Vec<(String, Expr)> = if g.rng.gen_bool(0.7) {
            (0..g.rng.gen_range(1..3))
                .map(|_| {
                    let col = settable[g.rng.gen_range(0..settable.len())];
                    let ty = cols.iter().find(|c| c.0 == col).expect("settable column").1;
                    (col.to_string(), g.value(ty, 1))
                })
                .collect()
        } else {
            Vec::new()
        };
        let filter = g.rng.gen_bool(0.9).then(|| g.predicate(2));
        let stmt = if sets.is_empty() {
            Statement::Delete {
                table: table.clone(),
                filter,
            }
        } else {
            Statement::Update {
                table: table.clone(),
                sets,
                filter,
            }
        };
        (stmt, g.slots)
    }

    /// Any expression form, nested to `depth`, over random names.
    pub fn expr(rng: &mut StdRng, depth: u32) -> Expr {
        let vocab = random_vocab(rng);
        let mut scope = qualified(&vocab, 0, None);
        scope.extend(qualified(&vocab, 1, None).into_iter().map(|mut c| {
            c.0 = None;
            c
        }));
        Gen {
            rng,
            scope,
            slots: Vec::new(),
            params: true,
        }
        .predicate(depth)
    }
}
