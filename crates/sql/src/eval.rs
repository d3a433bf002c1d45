//! Bound expressions and their evaluation.
//!
//! The planner resolves every column reference of a statement to an offset
//! in the row stream once ([`bind`], against a [`Layout`]); the executor
//! evaluates the resulting [`BoundExpr`] tree against borrowed rows — no
//! name is compared at run time, and a value is cloned only where it leaves
//! the row (projection, sort and group keys).
//!
//! SQL three-valued logic: comparisons against `NULL` yield `NULL`, `AND` /
//! `OR` follow Kleene logic, and a `WHERE` predicate accepts a row only when
//! it evaluates to `TRUE` (not `NULL`).
//!
//! That logic is `truth`'s alone: it decides a predicate (`WHERE`, `ON`,
//! `HAVING`) over operands read where they lie, building no value for a
//! column, a parameter or a literal. [`eval`] computes a value
//! (projection, sort and group keys, index keys); a predicate's value is
//! its truth.

use std::borrow::Cow;
use std::cmp::Ordering;

use tenantdb_storage::Value;

use crate::ast::{AggFunc, BinOp, Expr, ScalarFunc, UnaryOp};
use crate::error::{Result, SqlError};

/// Column layout of the row stream flowing through the executor: one entry
/// per table binding, each contributing a contiguous block of columns. Used
/// at plan time only.
#[derive(Debug, Clone, Default)]
pub struct Layout {
    /// (binding name, column names) per FROM-clause table, in order.
    tables: Vec<(String, Vec<String>)>,
}

impl Layout {
    pub fn new() -> Self {
        Layout::default()
    }

    pub fn push_table(&mut self, binding: &str, columns: Vec<String>) {
        self.tables.push((binding.to_string(), columns));
    }

    /// Total number of columns.
    pub fn width(&self) -> usize {
        self.tables.iter().map(|(_, c)| c.len()).sum()
    }

    /// All column names in layout order (used by `SELECT *`).
    pub fn all_columns(&self) -> Vec<String> {
        self.tables
            .iter()
            .flat_map(|(_, c)| c.iter().cloned())
            .collect()
    }

    /// Resolve a column reference to a global offset.
    pub fn resolve(&self, table: Option<&str>, name: &str) -> Result<usize> {
        let mut offset = 0;
        let mut found: Option<usize> = None;
        for (binding, cols) in &self.tables {
            if table.is_none_or(|t| t.eq_ignore_ascii_case(binding)) {
                if let Some(i) = cols.iter().position(|c| c.eq_ignore_ascii_case(name)) {
                    if found.is_some() {
                        return Err(SqlError::Plan(format!("ambiguous column: {name}")));
                    }
                    found = Some(offset + i);
                }
            }
            offset += cols.len();
        }
        found.ok_or_else(|| {
            let qual = table.map(|t| format!("{t}.")).unwrap_or_default();
            SqlError::Plan(format!("unknown column: {qual}{name}"))
        })
    }
}

/// An expression with every column reference resolved to a row offset and
/// every aggregate call replaced by a slot in its group's accumulators.
#[derive(Debug, Clone, PartialEq)]
pub enum BoundExpr {
    Literal(Value),
    /// `?` parameter, by position.
    Param(usize),
    /// Offset into the row stream.
    Column(usize),
    Unary {
        op: UnaryOp,
        expr: Box<BoundExpr>,
    },
    Binary {
        op: BinOp,
        left: Box<BoundExpr>,
        right: Box<BoundExpr>,
    },
    IsNull {
        expr: Box<BoundExpr>,
        negated: bool,
    },
    InList {
        expr: Box<BoundExpr>,
        list: Vec<BoundExpr>,
        negated: bool,
    },
    Like {
        expr: Box<BoundExpr>,
        pattern: Box<BoundExpr>,
        negated: bool,
    },
    /// The finished value of the group's aggregate in this slot (see
    /// [`bind_grouped`]).
    Agg(usize),
    Func {
        func: ScalarFunc,
        args: Vec<BoundExpr>,
    },
}

impl BoundExpr {
    /// Visit every node.
    pub fn visit(&self, f: &mut impl FnMut(&BoundExpr)) {
        f(self);
        match self {
            BoundExpr::Unary { expr, .. } | BoundExpr::IsNull { expr, .. } => expr.visit(f),
            BoundExpr::Binary { left, right, .. } => {
                left.visit(f);
                right.visit(f);
            }
            BoundExpr::InList { expr, list, .. } => {
                expr.visit(f);
                list.iter().for_each(|e| e.visit(f));
            }
            BoundExpr::Like { expr, pattern, .. } => {
                expr.visit(f);
                pattern.visit(f);
            }
            BoundExpr::Func { args, .. } => args.iter().for_each(|e| e.visit(f)),
            BoundExpr::Literal(_)
            | BoundExpr::Param(_)
            | BoundExpr::Column(_)
            | BoundExpr::Agg(_) => {}
        }
    }

    /// Constant with respect to the row: no column reference, no aggregate.
    pub fn is_constant(&self) -> bool {
        let mut constant = true;
        self.visit(&mut |n| {
            if matches!(n, BoundExpr::Column(_) | BoundExpr::Agg(_)) {
                constant = false;
            }
        });
        constant
    }

    /// Split a conjunction into its AND-ed conjuncts.
    pub fn conjuncts(&self) -> Vec<&BoundExpr> {
        match self {
            BoundExpr::Binary {
                op: BinOp::And,
                left,
                right,
            } => {
                let mut v = left.conjuncts();
                v.extend(right.conjuncts());
                v
            }
            other => vec![other],
        }
    }

    /// The expression as printable SQL ([`crate::display`]), for
    /// `Plan::explain`: offsets back to `names` (the row stream's column
    /// names), `?` slots numbered from one, aggregate slots as `agg<slot>`.
    pub fn unbind(&self, names: &[String]) -> Expr {
        let named = |name: String| Expr::Column { table: None, name };
        let sub = |e: &BoundExpr| Box::new(e.unbind(names));
        let all = |es: &[BoundExpr]| es.iter().map(|e| e.unbind(names)).collect();
        match self {
            BoundExpr::Literal(v) => Expr::Literal(v.clone()),
            BoundExpr::Param(i) => named(format!("?{}", i + 1)),
            BoundExpr::Column(off) => named(match names.get(*off) {
                Some(name) => name.clone(),
                None => format!("#{off}"),
            }),
            BoundExpr::Agg(slot) => named(format!("agg{slot}")),
            BoundExpr::Unary { op, expr } => Expr::Unary {
                op: *op,
                expr: sub(expr),
            },
            BoundExpr::Binary { op, left, right } => Expr::Binary {
                op: *op,
                left: sub(left),
                right: sub(right),
            },
            BoundExpr::IsNull { expr, negated } => Expr::IsNull {
                expr: sub(expr),
                negated: *negated,
            },
            BoundExpr::InList {
                expr,
                list,
                negated,
            } => Expr::InList {
                expr: sub(expr),
                list: all(list),
                negated: *negated,
            },
            BoundExpr::Like {
                expr,
                pattern,
                negated,
            } => Expr::Like {
                expr: sub(expr),
                pattern: sub(pattern),
                negated: *negated,
            },
            BoundExpr::Func { func, args } => Expr::Func {
                func: *func,
                args: all(args),
            },
        }
    }
}

/// One aggregate call of a grouped query: the function and its bound
/// argument (`None` for `COUNT(*)`).
#[derive(Debug, Clone, PartialEq)]
pub struct AggCall {
    pub func: AggFunc,
    pub arg: Option<BoundExpr>,
}

/// Bind a scalar expression. Aggregates are rejected — expressions of a
/// grouped query go through [`bind_grouped`].
pub fn bind(expr: &Expr, layout: &Layout) -> Result<BoundExpr> {
    bind_with(expr, layout, &mut |_, _| {
        Err(SqlError::Plan(
            "aggregate used outside GROUP BY context".into(),
        ))
    })
}

/// Bind an expression of a grouped query: every aggregate call is appended
/// to `aggs` and replaced by its slot; everything else is evaluated against
/// the group's first row (SQL requires those to be grouping expressions).
pub fn bind_grouped(expr: &Expr, layout: &Layout, aggs: &mut Vec<AggCall>) -> Result<BoundExpr> {
    bind_with(expr, layout, &mut |func, arg| {
        let arg = arg.map(|a| bind(a, layout)).transpose()?;
        aggs.push(AggCall { func, arg });
        Ok(BoundExpr::Agg(aggs.len() - 1))
    })
}

fn bind_with(
    expr: &Expr,
    layout: &Layout,
    agg: &mut impl FnMut(AggFunc, Option<&Expr>) -> Result<BoundExpr>,
) -> Result<BoundExpr> {
    let mut sub = |e: &Expr| bind_with(e, layout, agg).map(Box::new);
    Ok(match expr {
        Expr::Literal(v) => BoundExpr::Literal(v.clone()),
        Expr::Param(i) => BoundExpr::Param(*i),
        Expr::Column { table, name } => BoundExpr::Column(layout.resolve(table.as_deref(), name)?),
        Expr::Unary { op, expr } => BoundExpr::Unary {
            op: *op,
            expr: sub(expr)?,
        },
        Expr::Binary { op, left, right } => BoundExpr::Binary {
            op: *op,
            left: sub(left)?,
            right: sub(right)?,
        },
        Expr::IsNull { expr, negated } => BoundExpr::IsNull {
            expr: sub(expr)?,
            negated: *negated,
        },
        Expr::InList {
            expr,
            list,
            negated,
        } => BoundExpr::InList {
            expr: sub(expr)?,
            list: list
                .iter()
                .map(|e| bind_with(e, layout, agg))
                .collect::<Result<_>>()?,
            negated: *negated,
        },
        Expr::Like {
            expr,
            pattern,
            negated,
        } => BoundExpr::Like {
            expr: sub(expr)?,
            pattern: sub(pattern)?,
            negated: *negated,
        },
        Expr::Agg { func, arg } => agg(*func, arg.as_deref())?,
        Expr::Func { func, args } => BoundExpr::Func {
            func: *func,
            args: args
                .iter()
                .map(|e| bind_with(e, layout, agg))
                .collect::<Result<_>>()?,
        },
    })
}

/// A row of the stream as the evaluator sees it: the already-joined columns
/// followed by the columns of the table being joined, each borrowed where
/// it lives, so a join predicate is evaluated before any row is assembled.
#[derive(Debug, Clone, Copy, Default)]
pub struct Row<'a> {
    left: &'a [Value],
    right: &'a [Value],
}

impl<'a> Row<'a> {
    /// A row held in one piece.
    pub fn of(row: &'a [Value]) -> Self {
        Row {
            left: row,
            right: &[],
        }
    }

    /// `left` followed by `right`.
    pub fn joined(left: &'a [Value], right: &'a [Value]) -> Self {
        Row { left, right }
    }

    fn get(&self, i: usize) -> Option<&'a Value> {
        match i.checked_sub(self.left.len()) {
            None => self.left.get(i),
            Some(j) => self.right.get(j),
        }
    }

    /// Every column, in order.
    pub fn iter(&self) -> impl Iterator<Item = &'a Value> {
        self.left.iter().chain(self.right)
    }

    /// Assemble the row (the one clone of a row that is kept).
    pub fn to_vec(&self) -> Vec<Value> {
        self.iter().cloned().collect()
    }
}

/// What an expression is evaluated against: a row, the statement's
/// parameters and — in a grouped query — the group's aggregate states,
/// read as they stand (an aggregate that failed reports its error when it
/// is read, so one that `HAVING` filters out fails nothing).
#[derive(Clone, Copy, Default)]
pub struct Env<'a> {
    pub row: Row<'a>,
    pub params: &'a [Value],
    pub aggs: &'a [AggState],
}

impl<'a> Env<'a> {
    /// No row, no aggregates: constants and parameters only.
    pub fn constant(params: &'a [Value]) -> Self {
        Env {
            params,
            ..Env::default()
        }
    }

    /// The same parameters and aggregates over another row.
    pub fn with_row(self, row: Row<'a>) -> Self {
        Env { row, ..self }
    }
}

/// Where a leaf's value already lies — a literal, a parameter, a column of
/// the row — or `None` for a node whose value is computed (or a leaf that
/// is missing, which [`eval`] reports).
fn place<'a>(expr: &'a BoundExpr, env: &Env<'a>) -> Option<&'a Value> {
    match expr {
        BoundExpr::Literal(v) => Some(v),
        BoundExpr::Param(i) => env.params.get(*i),
        BoundExpr::Column(i) => env.row.get(*i),
        _ => None,
    }
}

/// The value of `expr`: in place for a leaf, else computed into `computed`
/// (which a caller keeps on its stack, one per operand it holds at once).
pub(crate) fn operand<'a>(
    expr: &'a BoundExpr,
    env: Env<'a>,
    computed: &'a mut Option<Value>,
) -> Result<&'a Value> {
    match place(expr, &env) {
        Some(v) => Ok(v),
        None => Ok(computed.insert(eval(expr, env)?.into_owned())),
    }
}

/// Evaluate a bound expression. Borrowed where the value already exists
/// (column, parameter, literal, a MIN / MAX), owned where it is computed.
pub fn eval<'a>(expr: &'a BoundExpr, env: Env<'a>) -> Result<Cow<'a, Value>> {
    use Cow::{Borrowed, Owned};
    Ok(match expr {
        BoundExpr::Literal(v) => Borrowed(v),
        BoundExpr::Param(i) => Borrowed(env.params.get(*i).ok_or(SqlError::Params {
            expected: i + 1,
            got: env.params.len(),
        })?),
        // Only a grouped query over zero rows has no row to offer.
        BoundExpr::Column(i) => Borrowed(
            env.row
                .get(*i)
                .ok_or_else(|| SqlError::Eval("empty group".into()))?,
        ),
        BoundExpr::Agg(slot) => env.aggs[*slot].value()?,
        // A predicate's value is its truth.
        BoundExpr::Binary {
            op: BinOp::And | BinOp::Or,
            ..
        }
        | BoundExpr::Binary {
            op: BinOp::Eq | BinOp::NotEq | BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq,
            ..
        }
        | BoundExpr::Unary {
            op: UnaryOp::Not, ..
        }
        | BoundExpr::IsNull { .. }
        | BoundExpr::InList { .. }
        | BoundExpr::Like { .. } => Owned(truth(expr, env)?.map_or(Value::Null, Value::Bool)),
        BoundExpr::Unary {
            op: UnaryOp::Neg,
            expr,
        } => Owned(match &*eval(expr, env)? {
            Value::Null => Value::Null,
            Value::Int(i) => Value::Int(-i),
            Value::Float(f) => Value::Float(-f),
            v => return Err(SqlError::Eval(format!("cannot negate {v}"))),
        }),
        BoundExpr::Binary { op, left, right } => {
            let l = eval(left, env)?;
            let r = eval(right, env)?;
            Owned(if l.is_null() || r.is_null() {
                Value::Null
            } else {
                arith(*op, &l, &r)?
            })
        }
        BoundExpr::Func { func, args } => {
            let vals = args
                .iter()
                .map(|a| eval(a, env).map(Cow::into_owned))
                .collect::<Result<Vec<_>>>()?;
            Owned(scalar_fn(*func, vals)?)
        }
    })
}

/// Evaluate a built-in scalar function.
fn scalar_fn(func: ScalarFunc, args: Vec<Value>) -> Result<Value> {
    let arity_err = |want: &str| {
        Err(SqlError::Eval(format!(
            "{func:?} expects {want} argument(s), got {}",
            0
        )))
    };
    match func {
        ScalarFunc::Coalesce => Ok(args
            .into_iter()
            .find(|v| !v.is_null())
            .unwrap_or(Value::Null)),
        ScalarFunc::Abs => match args.as_slice() {
            [Value::Null] => Ok(Value::Null),
            [Value::Int(i)] => Ok(Value::Int(i.wrapping_abs())),
            [Value::Float(f)] => Ok(Value::Float(f.abs())),
            [v] => Err(SqlError::Eval(format!("ABS expects a number, got {v}"))),
            _ => arity_err("1"),
        },
        ScalarFunc::Length => match args.as_slice() {
            [Value::Null] => Ok(Value::Null),
            [Value::Text(s)] => Ok(Value::Int(s.chars().count() as i64)),
            [v] => Err(SqlError::Eval(format!("LENGTH expects text, got {v}"))),
            _ => arity_err("1"),
        },
        ScalarFunc::Upper | ScalarFunc::Lower => match args.as_slice() {
            [Value::Null] => Ok(Value::Null),
            [Value::Text(s)] => Ok(Value::Text(if func == ScalarFunc::Upper {
                s.to_uppercase()
            } else {
                s.to_lowercase()
            })),
            [v] => Err(SqlError::Eval(format!("{func:?} expects text, got {v}"))),
            _ => arity_err("1"),
        },
        ScalarFunc::Substr => {
            // SUBSTR(s, start [, len]), 1-based start per SQL convention.
            if args.len() < 2 || args.len() > 3 {
                return arity_err("2 or 3");
            }
            if args.iter().any(|v| v.is_null()) {
                return Ok(Value::Null);
            }
            let s = args[0]
                .as_str()
                .ok_or_else(|| SqlError::Eval("SUBSTR expects text".into()))?;
            let start = args[1]
                .as_i64()
                .ok_or_else(|| SqlError::Eval("SUBSTR start must be an integer".into()))?;
            let chars: Vec<char> = s.chars().collect();
            let begin = (start.max(1) - 1) as usize;
            let len = match args.get(2) {
                Some(v) => v
                    .as_i64()
                    .ok_or_else(|| SqlError::Eval("SUBSTR length must be an integer".into()))?
                    .max(0) as usize,
                None => chars.len().saturating_sub(begin),
            };
            let out: String = chars.iter().skip(begin).take(len).collect();
            Ok(Value::Text(out))
        }
    }
}

/// Running state of one aggregate over the rows of a group, typed as the
/// function keeps it: a count, the best value so far, a sum. `COUNT(*)`
/// counts rows; every other aggregate skips NULL inputs. The first error —
/// of the argument or of the fold — is kept and reported when the state is
/// read.
#[derive(Debug, Clone)]
pub struct AggState {
    func: AggFunc,
    /// Non-NULL inputs seen (rows, for `COUNT(*)`).
    n: u64,
    fold: Fold,
}

/// What an aggregate keeps beyond its count; one function's worth, so a
/// group's states stay small.
#[derive(Debug, Clone)]
enum Fold {
    /// Nothing yet (and all COUNT ever needs).
    Empty,
    /// MIN / MAX so far.
    Best(Value),
    /// SUM / AVG so far: the FLOAT sum of every input, and — while every
    /// input is an INT — their exact INT sum, `None` once it overflowed.
    Sum {
        sum: f64,
        all_int: bool,
        int: Option<i64>,
    },
    Failed(Box<SqlError>),
}

static NULL: Value = Value::Null;

impl AggState {
    /// The state of `func` over no rows.
    pub fn new(func: AggFunc) -> Self {
        AggState {
            func,
            n: 0,
            fold: Fold::Empty,
        }
    }

    /// Fold one row of the group in (`call` is the one this state is of),
    /// reading its argument in place.
    pub fn feed(&mut self, call: &AggCall, env: Env<'_>) {
        if matches!(self.fold, Fold::Failed(_)) {
            return;
        }
        let Some(arg) = &call.arg else {
            self.n += 1;
            return;
        };
        let mut computed = None;
        let v = match operand(arg, env, &mut computed) {
            Ok(v) => v,
            Err(e) => {
                self.fold = Fold::Failed(Box::new(e));
                return;
            }
        };
        if v.is_null() {
            return;
        }
        self.n += 1;
        match (self.func, &mut self.fold) {
            (AggFunc::Count, _) => {}
            // Among equals MIN keeps the first and MAX the last, as
            // `Iterator::min_by` / `max_by` do.
            (AggFunc::Min, Fold::Best(b)) if v.total_cmp(b).is_ge() => {}
            (AggFunc::Max, Fold::Best(b)) if v.total_cmp(b).is_lt() => {}
            (AggFunc::Min | AggFunc::Max, fold) => *fold = Fold::Best(v.clone()),
            (AggFunc::Sum | AggFunc::Avg, fold) => {
                let (x, i) = match v {
                    Value::Int(i) => (*i as f64, Some(*i)),
                    Value::Float(f) => (*f, None),
                    _ => {
                        let e = SqlError::Eval(format!("SUM/AVG expects numbers, got {v}"));
                        *fold = Fold::Failed(Box::new(e));
                        return;
                    }
                };
                match fold {
                    Fold::Sum { sum, all_int, int } => {
                        *sum += x;
                        *all_int &= i.is_some();
                        *int = int.zip(i).and_then(|(a, b)| a.checked_add(b));
                    }
                    // From zero, so that a sum of `-0.0` alone is `0.0`.
                    _ => {
                        *fold = Fold::Sum {
                            sum: 0.0 + x,
                            all_int: i.is_some(),
                            int: i,
                        }
                    }
                }
            }
        }
    }

    /// The aggregate's value over the rows fed so far: a SUM of INTs is
    /// their exact sum (an error once it leaves the INT range), any other
    /// SUM a FLOAT.
    pub(crate) fn value(&self) -> Result<Cow<'_, Value>> {
        use Cow::{Borrowed, Owned};
        Ok(match (self.func, &self.fold) {
            (_, Fold::Failed(e)) => return Err((**e).clone()),
            (AggFunc::Count, _) => Owned(Value::Int(self.n as i64)),
            (AggFunc::Min | AggFunc::Max, Fold::Best(v)) => Borrowed(v),
            (
                AggFunc::Sum,
                Fold::Sum {
                    all_int: true, int, ..
                },
            ) => match int {
                Some(i) => Owned(Value::Int(*i)),
                None => return Err(SqlError::Eval("SUM overflows INT".into())),
            },
            (AggFunc::Sum, Fold::Sum { sum, .. }) => Owned(Value::Float(*sum)),
            (AggFunc::Avg, Fold::Sum { sum, .. }) => Owned(Value::Float(sum / self.n as f64)),
            // No non-NULL input.
            (_, _) => Borrowed(&NULL),
        })
    }
}

/// Boolean truth of a value: `Some(bool)` or `None` for NULL.
fn boolean(v: &Value) -> Result<Option<bool>> {
    match v {
        Value::Null => Ok(None),
        Value::Bool(b) => Ok(Some(*b)),
        other => Err(SqlError::Eval(format!("expected a boolean, got {other}"))),
    }
}

/// Does a WHERE predicate accept this value? (TRUE accepts; FALSE and NULL
/// reject.)
pub fn accepts(v: &Value) -> Result<bool> {
    Ok(boolean(v)?.unwrap_or(false))
}

/// Does the predicate accept the row in `env`? ([`truth`] is TRUE.)
pub(crate) fn holds(expr: &BoundExpr, env: Env<'_>) -> Result<bool> {
    Ok(truth(expr, env)?.unwrap_or(false))
}

/// The three-valued truth of a predicate — `None` for NULL — decided over
/// operands read in place. It is SQL's one three-valued logic: [`eval`]
/// gives a predicate's value as this truth. `AND` / `OR` short-circuit on
/// the deciding left side, so `FALSE AND <error>` is FALSE and
/// `NULL AND <error>` the error.
pub(crate) fn truth(expr: &BoundExpr, env: Env<'_>) -> Result<Option<bool>> {
    Ok(match expr {
        BoundExpr::Binary {
            op: BinOp::And,
            left,
            right,
        } => match truth(left, env)? {
            Some(false) => Some(false),
            l => match (l, truth(right, env)?) {
                (_, Some(false)) => Some(false),
                (Some(true), Some(true)) => Some(true),
                _ => None,
            },
        },
        BoundExpr::Binary {
            op: BinOp::Or,
            left,
            right,
        } => match truth(left, env)? {
            Some(true) => Some(true),
            l => match (l, truth(right, env)?) {
                (_, Some(true)) => Some(true),
                (Some(false), Some(false)) => Some(false),
                _ => None,
            },
        },
        BoundExpr::Unary {
            op: UnaryOp::Not,
            expr,
        } => truth(expr, env)?.map(|b| !b),
        BoundExpr::Binary {
            op: op @ (BinOp::Eq | BinOp::NotEq | BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq),
            left,
            right,
        } => {
            let (mut l, mut r) = (None, None);
            let l = operand(left, env, &mut l)?;
            compare(*op, l, operand(right, env, &mut r)?)?
        }
        BoundExpr::IsNull { expr, negated } => {
            Some(operand(expr, env, &mut None)?.is_null() != *negated)
        }
        BoundExpr::InList {
            expr,
            list,
            negated,
        } => {
            let mut v = None;
            let v = operand(expr, env, &mut v)?;
            if v.is_null() {
                return Ok(None);
            }
            let mut saw_null = false;
            for item in list {
                let mut w = None;
                let w = operand(item, env, &mut w)?;
                if w.is_null() {
                    saw_null = true;
                } else if v.sql_eq(w) {
                    return Ok(Some(!*negated));
                }
            }
            (!saw_null).then_some(*negated)
        }
        BoundExpr::Like {
            expr,
            pattern,
            negated,
        } => {
            let (mut v, mut p) = (None, None);
            let v = operand(expr, env, &mut v)?;
            match (v, operand(pattern, env, &mut p)?) {
                (Value::Null, _) | (_, Value::Null) => None,
                (Value::Text(s), Value::Text(pat)) => Some(like_match(s, pat) != *negated),
                (a, b) => {
                    return Err(SqlError::Eval(format!(
                        "LIKE expects text, got {a} LIKE {b}"
                    )))
                }
            }
        }
        // A value used as a truth: a BOOL column or parameter, a function.
        _ => boolean(operand(expr, env, &mut None)?)?,
    })
}

/// The one comparison: `l op r` for a comparison operator, NULL (`None`)
/// if either side is NULL. Text compares with text, BOOL with BOOL and
/// numbers with numbers (INT with FLOAT by value); anything else is a type
/// error.
fn compare(op: BinOp, l: &Value, r: &Value) -> Result<Option<bool>> {
    use BinOp::*;
    let ord = match (l, r) {
        (Value::Null, _) | (_, Value::Null) => return Ok(None),
        (Value::Int(a), Value::Int(b)) => a.cmp(b),
        (Value::Text(a), Value::Text(b)) => a.cmp(b),
        (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
        (Value::Int(_) | Value::Float(_), Value::Int(_) | Value::Float(_)) => l.total_cmp(r),
        _ => return Err(SqlError::Eval(format!("cannot compare {l} with {r}"))),
    };
    Ok(Some(match op {
        Eq => ord == Ordering::Equal,
        NotEq => ord != Ordering::Equal,
        Lt => ord == Ordering::Less,
        LtEq => ord != Ordering::Greater,
        Gt => ord == Ordering::Greater,
        GtEq => ord != Ordering::Less,
        _ => unreachable!("{op:?} is not a comparison"),
    }))
}

fn arith(op: BinOp, l: &Value, r: &Value) -> Result<Value> {
    use BinOp::*;
    match (l, r) {
        (Value::Int(a), Value::Int(b)) => {
            let (a, b) = (*a, *b);
            match op {
                Add => Ok(Value::Int(a.wrapping_add(b))),
                Sub => Ok(Value::Int(a.wrapping_sub(b))),
                Mul => Ok(Value::Int(a.wrapping_mul(b))),
                Div => {
                    if b == 0 {
                        Err(SqlError::Eval("division by zero".into()))
                    } else {
                        Ok(Value::Int(a.wrapping_div(b)))
                    }
                }
                Mod => {
                    if b == 0 {
                        Err(SqlError::Eval("modulo by zero".into()))
                    } else {
                        Ok(Value::Int(a.wrapping_rem(b)))
                    }
                }
                _ => unreachable!(),
            }
        }
        _ => {
            let (a, b) = (
                l.as_f64()
                    .ok_or_else(|| SqlError::Eval(format!("{l} is not a number")))?,
                r.as_f64()
                    .ok_or_else(|| SqlError::Eval(format!("{r} is not a number")))?,
            );
            let x = match op {
                Add => a + b,
                Sub => a - b,
                Mul => a * b,
                Div => {
                    if b == 0.0 {
                        return Err(SqlError::Eval("division by zero".into()));
                    }
                    a / b
                }
                Mod => {
                    if b == 0.0 {
                        return Err(SqlError::Eval("modulo by zero".into()));
                    }
                    a % b
                }
                _ => unreachable!(),
            };
            Ok(Value::Float(x))
        }
    }
}

/// SQL LIKE matcher: `%` matches any run (including empty), `_` matches one
/// character. Case-sensitive (like MySQL with a binary collation).
pub fn like_match(s: &str, pattern: &str) -> bool {
    fn rec(s: &[u8], p: &[u8]) -> bool {
        match p.first() {
            None => s.is_empty(),
            Some(b'%') => {
                // Try every split point.
                (0..=s.len()).any(|i| rec(&s[i..], &p[1..]))
            }
            Some(b'_') => !s.is_empty() && rec(&s[1..], &p[1..]),
            Some(&c) => s.first() == Some(&c) && rec(&s[1..], &p[1..]),
        }
    }
    rec(s.as_bytes(), pattern.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout() -> Layout {
        let mut l = Layout::new();
        l.push_table("t", vec!["a".into(), "b".into()]);
        l.push_table("u", vec!["b".into(), "c".into()]);
        l
    }

    fn col(table: Option<&str>, name: &str) -> Expr {
        Expr::Column {
            table: table.map(String::from),
            name: name.into(),
        }
    }

    fn lit(v: impl Into<Value>) -> Expr {
        Expr::Literal(v.into())
    }

    fn bin(op: BinOp, l: Expr, r: Expr) -> Expr {
        Expr::Binary {
            op,
            left: Box::new(l),
            right: Box::new(r),
        }
    }

    /// Evaluate a row-independent expression.
    fn constant(e: &Expr, params: &[Value]) -> Result<Value> {
        let bound = bind(e, &Layout::new())?;
        Ok(eval(&bound, Env::constant(params))?.into_owned())
    }

    /// Evaluate a grouped expression over `rows` the way the executor does.
    fn in_group(e: &Expr, l: &Layout, rows: &[Vec<Value>]) -> Result<Value> {
        let mut calls = Vec::new();
        let bound = bind_grouped(e, l, &mut calls)?;
        let mut states: Vec<AggState> = calls.iter().map(|c| AggState::new(c.func)).collect();
        for row in rows {
            let env = Env::default().with_row(Row::of(row));
            for (state, call) in states.iter_mut().zip(&calls) {
                state.feed(call, env);
            }
        }
        let env = Env {
            row: Row::of(rows.first().map(Vec::as_slice).unwrap_or_default()),
            aggs: &states,
            ..Env::default()
        };
        Ok(eval(&bound, env)?.into_owned())
    }

    #[test]
    fn column_resolution() {
        let l = layout();
        assert_eq!(l.resolve(None, "a").unwrap(), 0);
        assert_eq!(l.resolve(Some("u"), "b").unwrap(), 2);
        assert_eq!(l.resolve(Some("u"), "c").unwrap(), 3);
        assert!(matches!(l.resolve(None, "b"), Err(SqlError::Plan(m)) if m.contains("ambiguous")));
        assert!(l.resolve(None, "zz").is_err());
        assert_eq!(l.width(), 4);
    }

    #[test]
    fn columns_bind_to_offsets_of_a_two_part_row() {
        let l = layout();
        let e = bind(&bin(BinOp::Add, col(None, "a"), col(None, "c")), &l).unwrap();
        assert!(!e.is_constant());
        let (left, right) = (
            [Value::Int(1), Value::Int(2)],
            [Value::Int(3), Value::Int(4)],
        );
        let env = Env::default().with_row(Row::joined(&left, &right));
        assert_eq!(*eval(&e, env).unwrap(), Value::Int(5));
        assert_eq!(Row::joined(&left, &right).to_vec().len(), 4);
        // Unknown and ambiguous names fail at bind time, before any row.
        assert!(matches!(bind(&col(None, "zz"), &l), Err(SqlError::Plan(_))));
        assert!(matches!(bind(&col(None, "b"), &l), Err(SqlError::Plan(_))));
    }

    #[test]
    fn arithmetic_types() {
        let v = constant(&bin(BinOp::Add, lit(2), lit(3)), &[]).unwrap();
        assert_eq!(v, Value::Int(5));
        let v = constant(&bin(BinOp::Mul, lit(2), lit(1.5)), &[]).unwrap();
        assert_eq!(v, Value::Float(3.0));
        assert!(constant(&bin(BinOp::Div, lit(1), lit(0)), &[]).is_err());
    }

    #[test]
    fn null_propagates_through_comparison() {
        let v = constant(&bin(BinOp::Eq, lit(Value::Null), lit(1)), &[]).unwrap();
        assert_eq!(v, Value::Null);
        assert!(!accepts(&v).unwrap());
    }

    #[test]
    fn kleene_logic() {
        // NULL AND FALSE = FALSE
        let v = constant(&bin(BinOp::And, lit(Value::Null), lit(false)), &[]).unwrap();
        assert_eq!(v, Value::Bool(false));
        // NULL OR TRUE = TRUE
        let v = constant(&bin(BinOp::Or, lit(Value::Null), lit(true)), &[]).unwrap();
        assert_eq!(v, Value::Bool(true));
        // NULL AND TRUE = NULL
        let v = constant(&bin(BinOp::And, lit(Value::Null), lit(true)), &[]).unwrap();
        assert_eq!(v, Value::Null);
    }

    #[test]
    fn params_resolved() {
        let v = constant(&Expr::Param(1), &[Value::Int(1), Value::Int(9)]).unwrap();
        assert_eq!(v, Value::Int(9));
        assert!(matches!(
            constant(&Expr::Param(5), &[]),
            Err(SqlError::Params {
                expected: 6,
                got: 0
            })
        ));
    }

    #[test]
    fn in_list_with_null_semantics() {
        let e = Expr::InList {
            expr: Box::new(lit(2)),
            list: vec![lit(1), lit(2)],
            negated: false,
        };
        assert_eq!(constant(&e, &[]).unwrap(), Value::Bool(true));
        // 3 NOT IN (1, NULL) is NULL (unknown).
        let e = Expr::InList {
            expr: Box::new(lit(3)),
            list: vec![lit(1), lit(Value::Null)],
            negated: true,
        };
        assert_eq!(constant(&e, &[]).unwrap(), Value::Null);
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("hello", "hello"));
        assert!(like_match("hello", "h%"));
        assert!(like_match("hello", "%llo"));
        assert!(like_match("hello", "%ell%"));
        assert!(like_match("hello", "h_llo"));
        assert!(!like_match("hello", "h_llo_"));
        assert!(like_match("", "%"));
        assert!(!like_match("abc", "abd"));
        assert!(like_match("a%b", "a%b"));
    }

    fn agg(f: AggFunc, arg: Option<Expr>) -> Expr {
        Expr::Agg {
            func: f,
            arg: arg.map(Box::new),
        }
    }

    #[test]
    fn aggregates_in_group() {
        let mut l = Layout::new();
        l.push_table("t", vec!["x".into()]);
        let rows = vec![
            vec![Value::Int(3)],
            vec![Value::Int(1)],
            vec![Value::Null],
            vec![Value::Int(2)],
        ];
        let x = || col(None, "x");
        let over = |e: Expr| in_group(&e, &l, &rows).unwrap();
        assert_eq!(over(agg(AggFunc::Count, None)), Value::Int(4));
        assert_eq!(
            over(agg(AggFunc::Count, Some(x()))),
            Value::Int(3),
            "COUNT(x) skips NULL"
        );
        assert_eq!(over(agg(AggFunc::Sum, Some(x()))), Value::Int(6));
        assert_eq!(over(agg(AggFunc::Avg, Some(x()))), Value::Float(2.0));
        assert_eq!(over(agg(AggFunc::Min, Some(x()))), Value::Int(1));
        assert_eq!(over(agg(AggFunc::Max, Some(x()))), Value::Int(3));
    }

    #[test]
    fn aggregates_over_no_rows() {
        let mut l = Layout::new();
        l.push_table("t", vec!["x".into()]);
        let x = || col(None, "x");
        let over = |e: Expr| in_group(&e, &l, &[]);
        assert_eq!(over(agg(AggFunc::Count, None)).unwrap(), Value::Int(0));
        assert_eq!(over(agg(AggFunc::Sum, Some(x()))).unwrap(), Value::Null);
        assert_eq!(over(agg(AggFunc::Min, Some(x()))).unwrap(), Value::Null);
        // A bare column has no row to read.
        assert!(matches!(over(x()), Err(SqlError::Eval(m)) if m.contains("empty group")));
    }

    /// A SUM of INTs is exact however large (a FLOAT sum rounds 2^53 + 1
    /// to 2^53), and one that leaves the INT range fails; FLOAT and mixed
    /// sums stay FLOAT.
    #[test]
    fn int_sums_are_exact_and_overflow_fails() {
        let mut l = Layout::new();
        l.push_table("t", vec!["x".into()]);
        let sum = agg(AggFunc::Sum, Some(col(None, "x")));
        let over = |xs: &[Value]| {
            let rows: Vec<Vec<Value>> = xs.iter().map(|x| vec![x.clone()]).collect();
            in_group(&sum, &l, &rows)
        };
        let big = 1i64 << 53;
        assert_eq!(
            over(&[Value::Int(big), Value::Int(1)]).unwrap(),
            Value::Int(big + 1)
        );
        assert!(matches!(over(&[Value::Int(big + 1)]).unwrap(), Value::Int(i) if i == big + 1));
        let overflow = over(&[Value::Int(i64::MAX), Value::Int(1)]);
        assert!(matches!(overflow, Err(SqlError::Eval(m)) if m.contains("overflow")));
        assert_eq!(
            over(&[Value::Int(1), Value::Float(0.5)]).unwrap(),
            Value::Float(1.5)
        );
        assert!(matches!(
            over(&[Value::Int(i64::MAX), Value::Int(1), Value::Float(0.0)]).unwrap(),
            Value::Float(_)
        ));
        // AVG of INTs is the FLOAT mean, as before.
        let avg = agg(AggFunc::Avg, Some(col(None, "x")));
        let rows = vec![vec![Value::Int(1)], vec![Value::Int(2)]];
        assert_eq!(in_group(&avg, &l, &rows).unwrap(), Value::Float(1.5));
    }

    /// The predicate evaluator decides what `eval` computes, as a truth:
    /// over NULLs on either side of AND / OR / NOT, INT against FLOAT,
    /// text, IN lists holding NULL, LIKE, and the errors — `NULL AND <type
    /// error>` fails, `FALSE AND <type error>` is FALSE.
    #[test]
    fn truth_decides_what_eval_computes() {
        let mut l = Layout::new();
        l.push_table("t", vec!["i".into(), "f".into(), "s".into(), "n".into()]);
        let row = [
            Value::Int(2),
            Value::Float(2.0),
            Value::Text("s1".into()),
            Value::Null,
        ];
        let env = Env::default().with_row(Row::of(&row));
        let c = |name: &str| col(None, name);
        let not = |e: Expr| Expr::Unary {
            op: UnaryOp::Not,
            expr: Box::new(e),
        };
        let type_error = bin(BinOp::Gt, c("s"), lit(1));
        let in_list = |list: Vec<Expr>, negated| Expr::InList {
            expr: Box::new(c("i")),
            list,
            negated,
        };
        let like = |pattern: Expr| Expr::Like {
            expr: Box::new(c("s")),
            pattern: Box::new(pattern),
            negated: false,
        };
        let cases = [
            (bin(BinOp::Eq, c("i"), c("f")), Some(Some(true))),
            (bin(BinOp::Lt, c("f"), lit(2.5)), Some(Some(true))),
            (bin(BinOp::GtEq, c("i"), c("n")), Some(None)),
            (bin(BinOp::Lt, c("s"), lit("s2")), Some(Some(true))),
            (bin(BinOp::And, c("n"), lit(false)), Some(Some(false))),
            (bin(BinOp::And, lit(true), c("n")), Some(None)),
            (bin(BinOp::Or, c("n"), lit(true)), Some(Some(true))),
            (bin(BinOp::Or, lit(false), c("n")), Some(None)),
            (not(c("n")), Some(None)),
            (not(bin(BinOp::Eq, c("i"), lit(3))), Some(Some(true))),
            (
                bin(BinOp::And, lit(false), type_error.clone()),
                Some(Some(false)),
            ),
            (
                bin(BinOp::Or, lit(true), type_error.clone()),
                Some(Some(true)),
            ),
            (bin(BinOp::And, c("n"), type_error.clone()), None),
            (bin(BinOp::Or, c("n"), type_error.clone()), None),
            (bin(BinOp::And, c("i"), lit(true)), None),
            (not(c("s")), None),
            (in_list(vec![lit(1), lit(Value::Null)], false), Some(None)),
            (
                in_list(vec![lit(Value::Null), lit(2.0)], false),
                Some(Some(true)),
            ),
            (in_list(vec![lit(1), lit(Value::Null)], true), Some(None)),
            (in_list(vec![lit(1), lit("a")], true), Some(Some(true))),
            (like(lit("s%")), Some(Some(true))),
            (like(c("n")), Some(None)),
            (like(lit(1)), None),
            (
                Expr::IsNull {
                    expr: Box::new(c("n")),
                    negated: true,
                },
                Some(Some(false)),
            ),
            (c("n"), Some(None)),
            (c("i"), None),
        ];
        for (e, expected) in cases {
            let bound = bind(&e, &l).unwrap();
            let decided = truth(&bound, env);
            let computed = eval(&bound, env).and_then(|v| boolean(&v));
            assert_eq!(decided.as_ref().ok(), expected.as_ref(), "{e}");
            assert_eq!(computed.ok(), expected, "eval: {e}");
        }
    }

    #[test]
    fn min_keeps_the_first_and_max_the_last_among_equals() {
        let mut l = Layout::new();
        l.push_table("t", vec!["x".into()]);
        // Int(1) and Float(1.0) compare equal but print differently.
        let rows = vec![vec![Value::Int(1)], vec![Value::Float(1.0)]];
        let x = || col(None, "x");
        let shown = |f| in_group(&agg(f, Some(x())), &l, &rows).unwrap().to_string();
        assert_eq!(shown(AggFunc::Min), Value::Int(1).to_string());
        assert_eq!(shown(AggFunc::Max), Value::Float(1.0).to_string());
    }

    #[test]
    fn a_failed_aggregate_fails_only_where_it_is_read() {
        let mut l = Layout::new();
        l.push_table("t", vec!["x".into()]);
        let rows = vec![vec![Value::Text("a".into())]];
        let sum = agg(AggFunc::Sum, Some(col(None, "x")));
        assert!(in_group(&sum, &l, &rows).is_err());
        // FALSE AND SUM(x): the short circuit never reads the aggregate.
        let guarded = bin(BinOp::And, lit(false), bin(BinOp::Gt, sum, lit(0)));
        assert_eq!(in_group(&guarded, &l, &rows).unwrap(), Value::Bool(false));
    }

    #[test]
    fn aggregate_arithmetic() {
        let mut l = Layout::new();
        l.push_table("t", vec!["x".into()]);
        let rows = vec![vec![Value::Int(1)], vec![Value::Int(2)]];
        // COUNT(*) * 10
        let e = bin(BinOp::Mul, agg(AggFunc::Count, None), lit(10));
        assert_eq!(in_group(&e, &l, &rows).unwrap(), Value::Int(20));
    }

    #[test]
    fn aggregate_outside_group_rejected() {
        let e = agg(AggFunc::Count, None);
        assert!(matches!(bind(&e, &Layout::new()), Err(SqlError::Plan(_))));
        // ... and so is one nested in another's argument.
        let nested = agg(AggFunc::Sum, Some(e));
        assert!(bind_grouped(&nested, &Layout::new(), &mut Vec::new()).is_err());
    }

    #[test]
    fn type_errors() {
        assert!(constant(&bin(BinOp::Lt, lit("a"), lit(1)), &[]).is_err());
        assert!(constant(&bin(BinOp::Add, lit("a"), lit(1)), &[]).is_err());
        assert!(constant(
            &Expr::Unary {
                op: UnaryOp::Not,
                expr: Box::new(lit(1))
            },
            &[]
        )
        .is_err());
    }

    #[test]
    fn text_comparison() {
        let v = constant(&bin(BinOp::Lt, lit("abc"), lit("abd")), &[]).unwrap();
        assert_eq!(v, Value::Bool(true));
    }
}
