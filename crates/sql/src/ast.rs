//! Abstract syntax tree for the supported SQL dialect.
//!
//! The dialect covers what the TPC-W transaction templates and typical small
//! web applications need: DDL with primary keys and secondary indexes,
//! multi-row `INSERT`, `SELECT` with inner joins / `WHERE` / `GROUP BY` /
//! aggregates / `ORDER BY` / `LIMIT` / `FOR UPDATE`, searched `UPDATE` and
//! `DELETE`, and `?` positional parameters.

use tenantdb_storage::{DataType, Value};

/// A parsed SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    CreateTable {
        name: String,
        columns: Vec<ColumnSpec>,
        primary_key: Vec<String>,
    },
    CreateIndex {
        name: String,
        table: String,
        columns: Vec<String>,
        unique: bool,
    },
    Insert {
        table: String,
        /// Column list; `None` means schema order.
        columns: Option<Vec<String>>,
        /// One or more rows of value expressions.
        values: Vec<Vec<Expr>>,
    },
    Select(SelectStmt),
    Update {
        table: String,
        sets: Vec<(String, Expr)>,
        filter: Option<Expr>,
    },
    Delete {
        table: String,
        filter: Option<Expr>,
    },
}

/// What a statement does to the database — the one definition every layer
/// that routes, gates or schedules statements asks, instead of matching on
/// [`Statement`] variants itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatementClass {
    /// `CREATE TABLE` / `CREATE INDEX`: auto-committed, outside transactions.
    Ddl,
    /// A plain `SELECT`: shared locks only, served by one replica.
    Read,
    /// `SELECT ... FOR UPDATE`: changes no row but X-locks what it matches,
    /// so it can wait on another session's lock and must run on every
    /// replica like a write.
    LockingRead,
    /// `INSERT` / `UPDATE` / `DELETE`.
    Write,
}

impl Statement {
    /// Classify the statement (see [`StatementClass`]).
    pub fn class(&self) -> StatementClass {
        match self {
            Statement::CreateTable { .. } | Statement::CreateIndex { .. } => StatementClass::Ddl,
            Statement::Select(sel) if sel.for_update => StatementClass::LockingRead,
            Statement::Select(_) => StatementClass::Read,
            Statement::Insert { .. } | Statement::Update { .. } | Statement::Delete { .. } => {
                StatementClass::Write
            }
        }
    }

    /// The tables a [`Write`](StatementClass::Write) modifies or a
    /// [`LockingRead`](StatementClass::LockingRead) X-locks (the `FROM`
    /// table first, then each joined table); empty for the other classes.
    pub fn locked_tables(&self) -> Vec<&str> {
        match self {
            Statement::Insert { table, .. }
            | Statement::Update { table, .. }
            | Statement::Delete { table, .. } => vec![table],
            Statement::Select(sel) if sel.for_update => std::iter::once(&sel.from)
                .chain(sel.joins.iter().map(|j| &j.table))
                .map(|t| t.name.as_str())
                .collect(),
            _ => Vec::new(),
        }
    }
}

/// A column declaration in `CREATE TABLE`.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnSpec {
    pub name: String,
    pub ty: DataType,
    pub nullable: bool,
}

/// A `SELECT` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStmt {
    /// `SELECT DISTINCT`: duplicate result rows are removed.
    pub distinct: bool,
    pub items: Vec<SelectItem>,
    pub from: TableRef,
    pub joins: Vec<Join>,
    pub filter: Option<Expr>,
    pub group_by: Vec<Expr>,
    /// Post-aggregation group filter.
    pub having: Option<Expr>,
    pub order_by: Vec<OrderKey>,
    pub limit: Option<u64>,
    /// `SELECT ... FOR UPDATE`: matching rows are X-locked.
    pub for_update: bool,
}

/// A projected item.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*` — every column of every table in FROM order.
    Star,
    Expr {
        expr: Expr,
        alias: Option<String>,
    },
}

/// A table reference with optional alias.
#[derive(Debug, Clone, PartialEq)]
pub struct TableRef {
    pub name: String,
    pub alias: Option<String>,
}

impl TableRef {
    /// The name this table binds in the row namespace.
    pub fn binding(&self) -> &str {
        self.alias.as_deref().unwrap_or(&self.name)
    }
}

/// Join flavour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    Inner,
    /// Left outer join: unmatched left rows survive with NULL-padded right
    /// columns.
    Left,
}

/// A join clause.
#[derive(Debug, Clone, PartialEq)]
pub struct Join {
    pub kind: JoinKind,
    pub table: TableRef,
    pub on: Expr,
}

/// An ORDER BY key.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderKey {
    pub expr: Expr,
    pub desc: bool,
}

/// Scalar / boolean expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    Literal(Value),
    /// `?` parameter, by position.
    Param(usize),
    Column {
        table: Option<String>,
        name: String,
    },
    Unary {
        op: UnaryOp,
        expr: Box<Expr>,
    },
    Binary {
        op: BinOp,
        left: Box<Expr>,
        right: Box<Expr>,
    },
    IsNull {
        expr: Box<Expr>,
        negated: bool,
    },
    InList {
        expr: Box<Expr>,
        list: Vec<Expr>,
        negated: bool,
    },
    Like {
        expr: Box<Expr>,
        pattern: Box<Expr>,
        negated: bool,
    },
    /// Aggregate call; `arg == None` means `COUNT(*)`.
    Agg {
        func: AggFunc,
        arg: Option<Box<Expr>>,
    },
    /// Scalar function call.
    Func {
        func: ScalarFunc,
        args: Vec<Expr>,
    },
}

/// Built-in scalar functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalarFunc {
    /// First non-NULL argument.
    Coalesce,
    Abs,
    Length,
    Upper,
    Lower,
    /// SUBSTR(s, start [, len]) — 1-based start, like SQL.
    Substr,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    Not,
    Neg,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    And,
    Or,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    Add,
    Sub,
    Mul,
    Div,
    Mod,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    Count,
    Sum,
    Avg,
    Min,
    Max,
}

impl Expr {
    /// Walk the expression tree, visiting every node.
    pub fn visit(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        match self {
            Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } => expr.visit(f),
            Expr::Binary { left, right, .. } => {
                left.visit(f);
                right.visit(f);
            }
            Expr::InList { expr, list, .. } => {
                expr.visit(f);
                for e in list {
                    e.visit(f);
                }
            }
            Expr::Like { expr, pattern, .. } => {
                expr.visit(f);
                pattern.visit(f);
            }
            Expr::Agg { arg: Some(a), .. } => a.visit(f),
            Expr::Func { args, .. } => {
                for a in args {
                    a.visit(f);
                }
            }
            _ => {}
        }
    }

    /// True if the expression contains an aggregate call.
    pub fn has_aggregate(&self) -> bool {
        let mut found = false;
        self.visit(&mut |e| {
            if matches!(e, Expr::Agg { .. }) {
                found = true;
            }
        });
        found
    }

    /// Number of `?` parameters in the expression.
    pub fn max_param(&self) -> usize {
        let mut max = 0;
        self.visit(&mut |e| {
            if let Expr::Param(i) = e {
                max = max.max(i + 1);
            }
        });
        max
    }

    /// Split a conjunction into its AND-ed conjuncts (predicate pushdown
    /// works on conjuncts).
    pub fn conjuncts(&self) -> Vec<&Expr> {
        match self {
            Expr::Binary {
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

    /// The set of table bindings referenced by this expression (unqualified
    /// columns report `None`).
    pub fn referenced_tables(&self) -> Vec<Option<String>> {
        let mut out = Vec::new();
        self.visit(&mut |e| {
            if let Expr::Column { table, .. } = e {
                out.push(table.clone());
            }
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(name: &str) -> Expr {
        Expr::Column {
            table: None,
            name: name.into(),
        }
    }

    fn and(l: Expr, r: Expr) -> Expr {
        Expr::Binary {
            op: BinOp::And,
            left: Box::new(l),
            right: Box::new(r),
        }
    }

    fn eq(l: Expr, r: Expr) -> Expr {
        Expr::Binary {
            op: BinOp::Eq,
            left: Box::new(l),
            right: Box::new(r),
        }
    }

    #[test]
    fn conjunct_splitting() {
        let e = and(and(eq(col("a"), col("b")), col("c")), col("d"));
        assert_eq!(e.conjuncts().len(), 3);
        assert_eq!(col("x").conjuncts().len(), 1);
    }

    #[test]
    fn aggregate_detection() {
        let agg = Expr::Agg {
            func: AggFunc::Count,
            arg: None,
        };
        assert!(agg.has_aggregate());
        assert!(eq(agg, Expr::Literal(Value::Int(1))).has_aggregate());
        assert!(!col("x").has_aggregate());
    }

    #[test]
    fn param_counting() {
        let e = and(eq(col("a"), Expr::Param(0)), eq(col("b"), Expr::Param(2)));
        assert_eq!(e.max_param(), 3);
    }

    #[test]
    fn table_binding_uses_alias() {
        let t = TableRef {
            name: "orders".into(),
            alias: Some("o".into()),
        };
        assert_eq!(t.binding(), "o");
        let t2 = TableRef {
            name: "orders".into(),
            alias: None,
        };
        assert_eq!(t2.binding(), "orders");
    }

    #[test]
    fn referenced_tables() {
        let e = eq(
            Expr::Column {
                table: Some("a".into()),
                name: "x".into(),
            },
            Expr::Column {
                table: None,
                name: "y".into(),
            },
        );
        assert_eq!(e.referenced_tables(), vec![Some("a".to_string()), None]);
    }
}
