//! Recursive-descent SQL parser.

use tenantdb_storage::{DataType, Value};

use crate::ast::*;
use crate::error::{Result, SqlError};
use crate::lexer::{lex, Token};

/// Parse one SQL statement (a trailing `;` is allowed).
pub fn parse(sql: &str) -> Result<Statement> {
    let tokens = lex(sql)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        params: 0,
    };
    let stmt = p.statement()?;
    p.eat_if(&Token::Semi);
    if !p.at_end() {
        return Err(SqlError::Parse(format!(
            "unexpected trailing token: {}",
            p.peek_desc()
        )));
    }
    Ok(stmt)
}

/// Number of `?` parameters a statement expects.
pub fn param_count(stmt: &Statement) -> usize {
    fn expr_max(e: &Expr) -> usize {
        e.max_param()
    }
    let mut max = 0;
    let mut bump = |e: &Expr| {
        let m = expr_max(e);
        if m > max {
            max = m;
        }
    };
    match stmt {
        Statement::CreateTable { .. } | Statement::CreateIndex { .. } => {}
        Statement::Insert { values, .. } => {
            for row in values {
                for e in row {
                    bump(e);
                }
            }
        }
        Statement::Select(s) => {
            for item in &s.items {
                if let SelectItem::Expr { expr, .. } = item {
                    bump(expr);
                }
            }
            for j in &s.joins {
                bump(&j.on);
            }
            if let Some(f) = &s.filter {
                bump(f);
            }
            for g in &s.group_by {
                bump(g);
            }
            if let Some(h) = &s.having {
                bump(h);
            }
            for o in &s.order_by {
                bump(&o.expr);
            }
        }
        Statement::Update { sets, filter, .. } => {
            for (_, e) in sets {
                bump(e);
            }
            if let Some(f) = filter {
                bump(f);
            }
        }
        Statement::Delete { filter, .. } => {
            if let Some(f) = filter {
                bump(f);
            }
        }
    }
    max
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    params: usize,
}

impl Parser {
    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn peek_desc(&self) -> String {
        self.peek()
            .map(|t| t.to_string())
            .unwrap_or_else(|| "<eof>".into())
    }

    fn next(&mut self) -> Result<Token> {
        let t = self
            .tokens
            .get(self.pos)
            .cloned()
            .ok_or_else(|| SqlError::Parse("unexpected end of input".into()))?;
        self.pos += 1;
        Ok(t)
    }

    fn eat_if(&mut self, t: &Token) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Token) -> Result<()> {
        if self.eat_if(t) {
            Ok(())
        } else {
            Err(SqlError::Parse(format!(
                "expected {t}, found {}",
                self.peek_desc()
            )))
        }
    }

    fn peek_kw(&self, kw: &str) -> bool {
        self.peek().is_some_and(|t| t.is_kw(kw))
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek_kw(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(SqlError::Parse(format!(
                "expected {kw}, found {}",
                self.peek_desc()
            )))
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.next()? {
            Token::Ident(s) => Ok(s),
            other => Err(SqlError::Parse(format!(
                "expected identifier, found {other}"
            ))),
        }
    }

    // ------------------------------------------------------- statements

    fn statement(&mut self) -> Result<Statement> {
        if self.eat_kw("create") {
            self.create()
        } else if self.eat_kw("insert") {
            self.insert()
        } else if self.eat_kw("select") {
            Ok(Statement::Select(self.select()?))
        } else if self.eat_kw("update") {
            self.update()
        } else if self.eat_kw("delete") {
            self.delete()
        } else {
            Err(SqlError::Parse(format!(
                "expected a statement, found {}",
                self.peek_desc()
            )))
        }
    }

    fn create(&mut self) -> Result<Statement> {
        if self.eat_kw("table") {
            return self.create_table();
        }
        let unique = self.eat_kw("unique");
        self.expect_kw("index")?;
        let name = self.ident()?;
        self.expect_kw("on")?;
        let table = self.ident()?;
        self.expect(&Token::LParen)?;
        let columns = self.ident_list()?;
        self.expect(&Token::RParen)?;
        Ok(Statement::CreateIndex {
            name,
            table,
            columns,
            unique,
        })
    }

    fn create_table(&mut self) -> Result<Statement> {
        let name = self.ident()?;
        self.expect(&Token::LParen)?;
        let mut columns = Vec::new();
        let mut primary_key = Vec::new();
        loop {
            if self.eat_kw("primary") {
                self.expect_kw("key")?;
                self.expect(&Token::LParen)?;
                primary_key = self.ident_list()?;
                self.expect(&Token::RParen)?;
            } else {
                let col = self.ident()?;
                let ty = self.data_type()?;
                let mut nullable = true;
                if self.eat_kw("not") {
                    self.expect_kw("null")?;
                    nullable = false;
                }
                columns.push(ColumnSpec {
                    name: col,
                    ty,
                    nullable,
                });
            }
            if !self.eat_if(&Token::Comma) {
                break;
            }
        }
        self.expect(&Token::RParen)?;
        Ok(Statement::CreateTable {
            name,
            columns,
            primary_key,
        })
    }

    fn data_type(&mut self) -> Result<DataType> {
        let name = self.ident()?;
        let ty = match name.to_ascii_lowercase().as_str() {
            "int" | "integer" | "bigint" | "smallint" => DataType::Int,
            "float" | "real" | "double" | "numeric" | "decimal" => DataType::Float,
            "text" | "varchar" | "char" | "string" => DataType::Text,
            "bool" | "boolean" => DataType::Bool,
            other => return Err(SqlError::Parse(format!("unknown type: {other}"))),
        };
        // Optional length, e.g. VARCHAR(40) — parsed and ignored.
        if self.eat_if(&Token::LParen) {
            match self.next()? {
                Token::Int(_) => {}
                other => return Err(SqlError::Parse(format!("expected length, found {other}"))),
            }
            if self.eat_if(&Token::Comma) {
                match self.next()? {
                    Token::Int(_) => {}
                    other => return Err(SqlError::Parse(format!("expected scale, found {other}"))),
                }
            }
            self.expect(&Token::RParen)?;
        }
        Ok(ty)
    }

    fn ident_list(&mut self) -> Result<Vec<String>> {
        let mut v = vec![self.ident()?];
        while self.eat_if(&Token::Comma) {
            v.push(self.ident()?);
        }
        Ok(v)
    }

    fn insert(&mut self) -> Result<Statement> {
        self.expect_kw("into")?;
        let table = self.ident()?;
        let columns = if self.eat_if(&Token::LParen) {
            let cols = self.ident_list()?;
            self.expect(&Token::RParen)?;
            Some(cols)
        } else {
            None
        };
        self.expect_kw("values")?;
        let mut values = Vec::new();
        loop {
            self.expect(&Token::LParen)?;
            let mut row = vec![self.expr()?];
            while self.eat_if(&Token::Comma) {
                row.push(self.expr()?);
            }
            self.expect(&Token::RParen)?;
            values.push(row);
            if !self.eat_if(&Token::Comma) {
                break;
            }
        }
        Ok(Statement::Insert {
            table,
            columns,
            values,
        })
    }

    fn select(&mut self) -> Result<SelectStmt> {
        let distinct = self.eat_kw("distinct");
        let mut items = Vec::new();
        loop {
            if self.eat_if(&Token::Star) {
                items.push(SelectItem::Star);
            } else {
                let expr = self.expr()?;
                let alias = if self.eat_kw("as") {
                    Some(self.ident()?)
                } else {
                    None
                };
                items.push(SelectItem::Expr { expr, alias });
            }
            if !self.eat_if(&Token::Comma) {
                break;
            }
        }
        self.expect_kw("from")?;
        let from = self.table_ref()?;
        let mut joins = Vec::new();
        loop {
            let kind = if self.eat_kw("left") {
                let _ = self.eat_kw("outer");
                self.expect_kw("join")?;
                JoinKind::Left
            } else {
                let _ = self.eat_kw("inner");
                if !self.eat_kw("join") {
                    break;
                }
                JoinKind::Inner
            };
            let table = self.table_ref()?;
            self.expect_kw("on")?;
            let on = self.expr()?;
            joins.push(Join { kind, table, on });
        }
        let filter = if self.eat_kw("where") {
            Some(self.expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.eat_kw("group") {
            self.expect_kw("by")?;
            group_by.push(self.expr()?);
            while self.eat_if(&Token::Comma) {
                group_by.push(self.expr()?);
            }
        }
        let having = if self.eat_kw("having") {
            Some(self.expr()?)
        } else {
            None
        };
        let mut order_by = Vec::new();
        if self.eat_kw("order") {
            self.expect_kw("by")?;
            loop {
                let expr = self.expr()?;
                let desc = if self.eat_kw("desc") {
                    true
                } else {
                    let _ = self.eat_kw("asc");
                    false
                };
                order_by.push(OrderKey { expr, desc });
                if !self.eat_if(&Token::Comma) {
                    break;
                }
            }
        }
        let limit = if self.eat_kw("limit") {
            match self.next()? {
                Token::Int(n) if n >= 0 => Some(n as u64),
                other => {
                    return Err(SqlError::Parse(format!(
                        "expected LIMIT count, found {other}"
                    )))
                }
            }
        } else {
            None
        };
        let for_update = if self.eat_kw("for") {
            self.expect_kw("update")?;
            true
        } else {
            false
        };
        Ok(SelectStmt {
            distinct,
            items,
            from,
            joins,
            filter,
            group_by,
            having,
            order_by,
            limit,
            for_update,
        })
    }

    fn table_ref(&mut self) -> Result<TableRef> {
        let name = self.ident()?;
        let alias = if self.eat_kw("as") {
            Some(self.ident()?)
        } else if let Some(Token::Ident(s)) = self.peek() {
            // Bare alias, but don't swallow keywords that continue the query.
            const STOP: &[&str] = &[
                "join", "inner", "left", "outer", "on", "where", "group", "having", "order",
                "limit", "for", "set",
            ];
            if STOP.iter().any(|k| s.eq_ignore_ascii_case(k)) {
                None
            } else {
                Some(self.ident()?)
            }
        } else {
            None
        };
        Ok(TableRef { name, alias })
    }

    fn update(&mut self) -> Result<Statement> {
        let table = self.ident()?;
        self.expect_kw("set")?;
        let mut sets = Vec::new();
        loop {
            let col = self.ident()?;
            self.expect(&Token::Eq)?;
            sets.push((col, self.expr()?));
            if !self.eat_if(&Token::Comma) {
                break;
            }
        }
        let filter = if self.eat_kw("where") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Update {
            table,
            sets,
            filter,
        })
    }

    fn delete(&mut self) -> Result<Statement> {
        self.expect_kw("from")?;
        let table = self.ident()?;
        let filter = if self.eat_kw("where") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Delete { table, filter })
    }

    // ------------------------------------------------------- expressions

    fn expr(&mut self) -> Result<Expr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr> {
        let mut left = self.and_expr()?;
        while self.eat_kw("or") {
            let right = self.and_expr()?;
            left = Expr::Binary {
                op: BinOp::Or,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<Expr> {
        let mut left = self.not_expr()?;
        while self.eat_kw("and") {
            let right = self.not_expr()?;
            left = Expr::Binary {
                op: BinOp::And,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<Expr> {
        if self.eat_kw("not") {
            let inner = self.not_expr()?;
            return Ok(Expr::Unary {
                op: UnaryOp::Not,
                expr: Box::new(inner),
            });
        }
        self.comparison()
    }

    fn comparison(&mut self) -> Result<Expr> {
        let left = self.additive()?;
        // IS [NOT] NULL
        if self.eat_kw("is") {
            let negated = self.eat_kw("not");
            self.expect_kw("null")?;
            return Ok(Expr::IsNull {
                expr: Box::new(left),
                negated,
            });
        }
        // [NOT] IN / LIKE / BETWEEN
        let negated = self.eat_kw("not");
        if self.eat_kw("in") {
            self.expect(&Token::LParen)?;
            let mut list = vec![self.expr()?];
            while self.eat_if(&Token::Comma) {
                list.push(self.expr()?);
            }
            self.expect(&Token::RParen)?;
            return Ok(Expr::InList {
                expr: Box::new(left),
                list,
                negated,
            });
        }
        if self.eat_kw("like") {
            let pattern = self.additive()?;
            return Ok(Expr::Like {
                expr: Box::new(left),
                pattern: Box::new(pattern),
                negated,
            });
        }
        if self.eat_kw("between") {
            let lo = self.additive()?;
            self.expect_kw("and")?;
            let hi = self.additive()?;
            let ge = Expr::Binary {
                op: BinOp::GtEq,
                left: Box::new(left.clone()),
                right: Box::new(lo),
            };
            let le = Expr::Binary {
                op: BinOp::LtEq,
                left: Box::new(left),
                right: Box::new(hi),
            };
            let between = Expr::Binary {
                op: BinOp::And,
                left: Box::new(ge),
                right: Box::new(le),
            };
            return Ok(if negated {
                Expr::Unary {
                    op: UnaryOp::Not,
                    expr: Box::new(between),
                }
            } else {
                between
            });
        }
        if negated {
            return Err(SqlError::Parse(
                "NOT must be followed by IN, LIKE or BETWEEN".into(),
            ));
        }
        let op = match self.peek() {
            Some(Token::Eq) => Some(BinOp::Eq),
            Some(Token::NotEq) => Some(BinOp::NotEq),
            Some(Token::Lt) => Some(BinOp::Lt),
            Some(Token::LtEq) => Some(BinOp::LtEq),
            Some(Token::Gt) => Some(BinOp::Gt),
            Some(Token::GtEq) => Some(BinOp::GtEq),
            _ => None,
        };
        if let Some(op) = op {
            self.pos += 1;
            let right = self.additive()?;
            return Ok(Expr::Binary {
                op,
                left: Box::new(left),
                right: Box::new(right),
            });
        }
        Ok(left)
    }

    fn additive(&mut self) -> Result<Expr> {
        let mut left = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                Some(Token::Plus) => BinOp::Add,
                Some(Token::Minus) => BinOp::Sub,
                _ => break,
            };
            self.pos += 1;
            let right = self.multiplicative()?;
            left = Expr::Binary {
                op,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn multiplicative(&mut self) -> Result<Expr> {
        let mut left = self.unary()?;
        loop {
            let op = match self.peek() {
                Some(Token::Star) => BinOp::Mul,
                Some(Token::Slash) => BinOp::Div,
                Some(Token::Percent) => BinOp::Mod,
                _ => break,
            };
            self.pos += 1;
            let right = self.unary()?;
            left = Expr::Binary {
                op,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn unary(&mut self) -> Result<Expr> {
        if self.eat_if(&Token::Minus) {
            let inner = self.unary()?;
            // Fold literal negation for cleaner ASTs.
            return Ok(match inner {
                Expr::Literal(Value::Int(i)) => Expr::Literal(Value::Int(-i)),
                Expr::Literal(Value::Float(f)) => Expr::Literal(Value::Float(-f)),
                other => Expr::Unary {
                    op: UnaryOp::Neg,
                    expr: Box::new(other),
                },
            });
        }
        if self.eat_if(&Token::Plus) {
            return self.unary();
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Expr> {
        match self.next()? {
            Token::Int(i) => Ok(Expr::Literal(Value::Int(i))),
            Token::Float(f) => Ok(Expr::Literal(Value::Float(f))),
            Token::Str(s) => Ok(Expr::Literal(Value::Text(s))),
            Token::Param => {
                let idx = self.params;
                self.params += 1;
                Ok(Expr::Param(idx))
            }
            Token::LParen => {
                let e = self.expr()?;
                self.expect(&Token::RParen)?;
                Ok(e)
            }
            Token::Ident(name) => self.ident_expr(name),
            other => Err(SqlError::Parse(format!(
                "unexpected token in expression: {other}"
            ))),
        }
    }

    fn ident_expr(&mut self, name: String) -> Result<Expr> {
        let lower = name.to_ascii_lowercase();
        match lower.as_str() {
            "true" => return Ok(Expr::Literal(Value::Bool(true))),
            "false" => return Ok(Expr::Literal(Value::Bool(false))),
            "null" => return Ok(Expr::Literal(Value::Null)),
            _ => {}
        }
        // Aggregate call?
        let agg = match lower.as_str() {
            "count" => Some(AggFunc::Count),
            "sum" => Some(AggFunc::Sum),
            "avg" => Some(AggFunc::Avg),
            "min" => Some(AggFunc::Min),
            "max" => Some(AggFunc::Max),
            _ => None,
        };
        if let Some(func) = agg {
            if self.eat_if(&Token::LParen) {
                if func == AggFunc::Count && self.eat_if(&Token::Star) {
                    self.expect(&Token::RParen)?;
                    return Ok(Expr::Agg { func, arg: None });
                }
                let arg = self.expr()?;
                self.expect(&Token::RParen)?;
                return Ok(Expr::Agg {
                    func,
                    arg: Some(Box::new(arg)),
                });
            }
        }
        // Scalar function call?
        let scalar = match lower.as_str() {
            "coalesce" => Some(ScalarFunc::Coalesce),
            "abs" => Some(ScalarFunc::Abs),
            "length" => Some(ScalarFunc::Length),
            "upper" => Some(ScalarFunc::Upper),
            "lower" => Some(ScalarFunc::Lower),
            "substr" | "substring" => Some(ScalarFunc::Substr),
            _ => None,
        };
        if let Some(func) = scalar {
            if self.eat_if(&Token::LParen) {
                let mut args = vec![self.expr()?];
                while self.eat_if(&Token::Comma) {
                    args.push(self.expr()?);
                }
                self.expect(&Token::RParen)?;
                return Ok(Expr::Func { func, args });
            }
        }
        // Qualified column?
        if self.eat_if(&Token::Dot) {
            let col = self.ident()?;
            return Ok(Expr::Column {
                table: Some(name),
                name: col,
            });
        }
        Ok(Expr::Column { table: None, name })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_table_with_pk() {
        let s = parse(
            "CREATE TABLE users (id INT NOT NULL, name VARCHAR(40), score FLOAT, PRIMARY KEY (id))",
        )
        .unwrap();
        assert_eq!(s.class(), StatementClass::Ddl);
        assert!(s.locked_tables().is_empty());
        match s {
            Statement::CreateTable {
                name,
                columns,
                primary_key,
            } => {
                assert_eq!(name, "users");
                assert_eq!(columns.len(), 3);
                assert!(!columns[0].nullable);
                assert!(columns[1].nullable);
                assert_eq!(columns[1].ty, DataType::Text);
                assert_eq!(primary_key, vec!["id"]);
            }
            _ => panic!("wrong statement"),
        }
    }

    #[test]
    fn create_index() {
        let s = parse("CREATE UNIQUE INDEX by_email ON users (email)").unwrap();
        assert_eq!(s.class(), StatementClass::Ddl);
        assert_eq!(
            s,
            Statement::CreateIndex {
                name: "by_email".into(),
                table: "users".into(),
                columns: vec!["email".into()],
                unique: true,
            }
        );
    }

    #[test]
    fn insert_multi_row_with_params() {
        let s = parse("INSERT INTO t (a, b) VALUES (1, ?), (2, ?)").unwrap();
        assert_eq!(s.class(), StatementClass::Write);
        assert_eq!(s.locked_tables(), ["t"]);
        match &s {
            Statement::Insert {
                columns, values, ..
            } => {
                assert_eq!(
                    columns.as_deref(),
                    Some(&["a".to_string(), "b".to_string()][..])
                );
                assert_eq!(values.len(), 2);
                assert_eq!(values[0][1], Expr::Param(0));
                assert_eq!(values[1][1], Expr::Param(1));
            }
            _ => panic!(),
        }
        assert_eq!(param_count(&s), 2);
    }

    #[test]
    fn select_with_everything() {
        let s = parse(
            "SELECT o.id, COUNT(*) AS n FROM orders o \
             JOIN order_line ol ON ol.order_id = o.id \
             WHERE o.total > 10.5 AND ol.qty <> 0 \
             GROUP BY o.id ORDER BY n DESC, o.id LIMIT 5",
        )
        .unwrap();
        assert_eq!(s.class(), StatementClass::Read);
        assert!(s.locked_tables().is_empty());
        let Statement::Select(sel) = s else { panic!() };
        assert_eq!(sel.items.len(), 2);
        assert_eq!(sel.from.binding(), "o");
        assert_eq!(sel.joins.len(), 1);
        assert!(sel.filter.is_some());
        assert_eq!(sel.group_by.len(), 1);
        assert_eq!(sel.order_by.len(), 2);
        assert!(sel.order_by[0].desc);
        assert!(!sel.order_by[1].desc);
        assert_eq!(sel.limit, Some(5));
        assert!(!sel.for_update);
    }

    #[test]
    fn select_star_for_update() {
        let s = parse("SELECT * FROM items WHERE id = ? FOR UPDATE").unwrap();
        assert_eq!(s.class(), StatementClass::LockingRead);
        let Statement::Select(sel) = s else { panic!() };
        assert!(sel.for_update);
        assert_eq!(sel.items, vec![SelectItem::Star]);
    }

    /// `FOR UPDATE` is two keywords, not a substring: any whitespace between
    /// them (and any case) is still a locking read, and a joined locking
    /// read locks every table it names.
    #[test]
    fn for_update_spellings_all_classify_as_locking_reads() {
        for sep in [" ", "  ", "\t", "\n", " \r\n\t "] {
            for (f, u) in [("FOR", "UPDATE"), ("for", "update"), ("For", "uPdAtE")] {
                let sql = format!(
                    "SELECT i.id FROM items i JOIN stock s ON s.i_id = i.id \
                     WHERE i.id = 1 {f}{sep}{u}"
                );
                let s = parse(&sql).unwrap();
                assert_eq!(s.class(), StatementClass::LockingRead, "{sql:?}");
                assert_eq!(s.locked_tables(), ["items", "stock"], "{sql:?}");
            }
        }
        // A column or string that merely mentions the words is a plain read.
        let s = parse("SELECT for_update FROM t WHERE note = 'FOR UPDATE'").unwrap();
        assert_eq!(s.class(), StatementClass::Read);
    }

    #[test]
    fn update_and_delete() {
        let s = parse("UPDATE items SET stock = stock - 1, flag = true WHERE id = 3").unwrap();
        assert_eq!(s.class(), StatementClass::Write);
        assert_eq!(s.locked_tables(), ["items"]);
        match s {
            Statement::Update { sets, filter, .. } => {
                assert_eq!(sets.len(), 2);
                assert!(filter.is_some());
            }
            _ => panic!(),
        }
        let d = parse("DELETE FROM cart WHERE session = 'x'").unwrap();
        assert!(matches!(d, Statement::Delete { .. }));
        assert_eq!(d.class(), StatementClass::Write);
        assert_eq!(d.locked_tables(), ["cart"]);
    }

    #[test]
    fn operator_precedence() {
        // a + b * c = d  parses as  (a + (b*c)) = d
        let Statement::Select(sel) = parse("SELECT a + b * c = d FROM t").unwrap() else {
            panic!()
        };
        let SelectItem::Expr { expr, .. } = &sel.items[0] else {
            panic!()
        };
        let Expr::Binary {
            op: BinOp::Eq,
            left,
            ..
        } = expr
        else {
            panic!("top is {expr:?}")
        };
        let Expr::Binary {
            op: BinOp::Add,
            right,
            ..
        } = left.as_ref()
        else {
            panic!()
        };
        assert!(matches!(
            right.as_ref(),
            Expr::Binary { op: BinOp::Mul, .. }
        ));
    }

    #[test]
    fn and_binds_tighter_than_or() {
        let Statement::Select(sel) = parse("SELECT * FROM t WHERE a OR b AND c").unwrap() else {
            panic!()
        };
        let Some(Expr::Binary {
            op: BinOp::Or,
            right,
            ..
        }) = sel.filter
        else {
            panic!()
        };
        assert!(matches!(
            right.as_ref(),
            Expr::Binary { op: BinOp::And, .. }
        ));
    }

    #[test]
    fn between_desugars() {
        let Statement::Select(sel) = parse("SELECT * FROM t WHERE x BETWEEN 1 AND 5").unwrap()
        else {
            panic!()
        };
        let Some(Expr::Binary {
            op: BinOp::And,
            left,
            right,
        }) = sel.filter
        else {
            panic!()
        };
        assert!(matches!(
            left.as_ref(),
            Expr::Binary {
                op: BinOp::GtEq,
                ..
            }
        ));
        assert!(matches!(
            right.as_ref(),
            Expr::Binary {
                op: BinOp::LtEq,
                ..
            }
        ));
    }

    #[test]
    fn in_list_and_like_and_is_null() {
        let Statement::Select(sel) =
            parse("SELECT * FROM t WHERE a IN (1, 2) AND b NOT LIKE 'x%' AND c IS NOT NULL")
                .unwrap()
        else {
            panic!()
        };
        let conj = sel.filter.unwrap();
        let parts = conj.conjuncts().len();
        assert_eq!(parts, 3);
    }

    #[test]
    fn negative_literals_folded() {
        let Statement::Insert { values, .. } = parse("INSERT INTO t VALUES (-5, -2.5)").unwrap()
        else {
            panic!()
        };
        assert_eq!(values[0][0], Expr::Literal(Value::Int(-5)));
        assert_eq!(values[0][1], Expr::Literal(Value::Float(-2.5)));
    }

    #[test]
    fn bare_table_alias() {
        let Statement::Select(sel) = parse("SELECT * FROM orders o WHERE o.id = 1").unwrap() else {
            panic!()
        };
        assert_eq!(sel.from.alias.as_deref(), Some("o"));
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(parse("SELECT * FROM t WHERE").is_err());
        assert!(parse("SELECT * FROM t xx yy zz").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn count_star_vs_count_expr() {
        let Statement::Select(sel) = parse("SELECT COUNT(*), COUNT(x) FROM t").unwrap() else {
            panic!()
        };
        let SelectItem::Expr { expr: e0, .. } = &sel.items[0] else {
            panic!()
        };
        let SelectItem::Expr { expr: e1, .. } = &sel.items[1] else {
            panic!()
        };
        assert_eq!(
            *e0,
            Expr::Agg {
                func: AggFunc::Count,
                arg: None
            }
        );
        assert!(matches!(
            e1,
            Expr::Agg {
                func: AggFunc::Count,
                arg: Some(_)
            }
        ));
    }
}
