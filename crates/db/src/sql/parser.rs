//! Recursive-descent parser for the SQL subset described in [`crate::sql::ast`].

use crate::error::{DbError, DbResult};
use crate::schema::ColType;
use crate::sql::ast::*;
use crate::sql::lexer::{Lexer, SpannedToken, Token};
use crate::value::Value;

/// Parse a single SQL statement (an optional trailing `;` is allowed). A
/// lexical error anywhere in `input` is reported in preference to a parse
/// error, as if the whole text had been tokenized first.
pub fn parse(input: &str) -> DbResult<Statement> {
    let mut p = Parser::new(input);
    let parsed = p.statement().and_then(|stmt| {
        p.eat_semicolons();
        if p.at_end() {
            Ok(stmt)
        } else {
            Err(p.err("trailing tokens after statement"))
        }
    });
    while p.pull().is_some() {}
    match p.lex_error {
        Some(e) => Err(e),
        None => parsed,
    }
}

/// Parse a query that must be a SELECT (convenience for the invalidator).
pub fn parse_select(input: &str) -> DbResult<Select> {
    match parse(input)? {
        Statement::Select(s) => Ok(s),
        other => Err(DbError::Parse(format!(
            "expected SELECT, got {other:?}"
        ))),
    }
}

struct Parser<'a> {
    lexer: Lexer<'a>,
    /// The next three tokens (`None` past the end), a ring starting at
    /// `head`: all the lookahead the grammar needs (`t.*` in a select list
    /// is the longest), so tokens stream from the lexer instead of being
    /// collected first.
    ahead: [Option<SpannedToken<'a>>; 3],
    head: usize,
    /// The lexer's error, if it met one; the parser sees the end of input
    /// there.
    lex_error: Option<DbError>,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        let mut p = Parser {
            lexer: Lexer::new(input),
            ahead: [None, None, None],
            head: 0,
            lex_error: None,
        };
        p.ahead = [p.pull(), p.pull(), p.pull()];
        p
    }

    /// The lexer's next token, `None` at the end or after an error.
    fn pull(&mut self) -> Option<SpannedToken<'a>> {
        match self.lexer.next()? {
            Ok(t) => Some(t),
            Err(e) => {
                self.lex_error.get_or_insert(e);
                None
            }
        }
    }

    fn at_end(&self) -> bool {
        self.ahead[self.head].is_none()
    }

    /// The token `n` places after the current one.
    fn peek_at(&self, n: usize) -> Option<&Token<'a>> {
        self.ahead[(self.head + n) % 3].as_ref().map(|t| &t.token)
    }

    fn peek(&self) -> Option<&Token<'a>> {
        self.peek_at(0)
    }

    fn peek2(&self) -> Option<&Token<'a>> {
        self.peek_at(1)
    }

    /// Consume the current token; the lexer's next one takes its slot.
    fn next(&mut self) -> Option<Token<'a>> {
        let pulled = self.pull();
        let t = std::mem::replace(&mut self.ahead[self.head], pulled);
        self.head = (self.head + 1) % 3;
        t.map(|t| t.token)
    }

    fn err(&self, msg: &str) -> DbError {
        match &self.ahead[self.head] {
            Some(t) => DbError::Parse(format!("{msg} (at byte {}, near {:?})", t.offset, t.token)),
            None => DbError::Parse(format!("{msg} (at end of input)")),
        }
    }

    fn eat_semicolons(&mut self) {
        while matches!(self.peek(), Some(Token::Semicolon)) {
            self.next();
        }
    }

    /// Consume a keyword (case-insensitive identifier) or fail.
    fn expect_kw(&mut self, kw: &str) -> DbResult<()> {
        if self.peek().is_some_and(|t| t.is_kw(kw)) {
            self.next();
            Ok(())
        } else {
            Err(self.err(&format!("expected keyword {kw}")))
        }
    }

    /// Consume a keyword if present; report whether it was.
    fn accept_kw(&mut self, kw: &str) -> bool {
        if self.peek().is_some_and(|t| t.is_kw(kw)) {
            self.next();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, tok: Token) -> DbResult<()> {
        if self.peek() == Some(&tok) {
            self.next();
            Ok(())
        } else {
            Err(self.err(&format!("expected {tok:?}")))
        }
    }

    fn accept(&mut self, tok: Token) -> bool {
        if self.peek() == Some(&tok) {
            self.next();
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> DbResult<String> {
        match self.peek() {
            Some(&Token::Ident(s)) => {
                self.next();
                Ok(s.to_string())
            }
            _ => Err(self.err("expected identifier")),
        }
    }

    // -- statements ---------------------------------------------------------

    fn statement(&mut self) -> DbResult<Statement> {
        match self.peek() {
            Some(t) if t.is_kw("SELECT") => Ok(Statement::Select(self.select()?)),
            Some(t) if t.is_kw("INSERT") => self.insert(),
            Some(t) if t.is_kw("DELETE") => self.delete(),
            Some(t) if t.is_kw("UPDATE") => self.update(),
            Some(t) if t.is_kw("CREATE") => self.create_table(),
            Some(t) if t.is_kw("DROP") => {
                self.next();
                self.expect_kw("TABLE")?;
                Ok(Statement::DropTable(self.ident()?))
            }
            _ => Err(self.err("expected SELECT, INSERT, DELETE, UPDATE, CREATE or DROP")),
        }
    }

    fn select(&mut self) -> DbResult<Select> {
        self.expect_kw("SELECT")?;
        let distinct = self.accept_kw("DISTINCT");
        let mut items = Vec::new();
        loop {
            items.push(self.select_item()?);
            if !self.accept(Token::Comma) {
                break;
            }
        }
        self.expect_kw("FROM")?;
        let mut from = Vec::new();
        // `JOIN … ON` predicates are folded into WHERE: for inner joins the
        // semantics are identical to comma-join + conjunct, which is what
        // the executor and the invalidator's analysis operate on.
        let mut join_predicates: Vec<Expr> = Vec::new();
        loop {
            let table = self.ident()?;
            // optional alias: bare identifier that is not a clause keyword
            let has_alias =
                matches!(self.peek(), Some(Token::Ident(s)) if !is_clause_kw(s));
            let alias = if has_alias { Some(self.ident()?) } else { None };
            from.push(TableRef { table, alias });
            let inner = self.accept_kw("INNER");
            if self.accept_kw("JOIN") {
                let table = self.ident()?;
                let has_alias =
                    matches!(self.peek(), Some(Token::Ident(s)) if !is_clause_kw(s));
                let alias = if has_alias { Some(self.ident()?) } else { None };
                from.push(TableRef { table, alias });
                self.expect_kw("ON")?;
                join_predicates.push(self.expr()?);
                // further JOINs chain from here
                while self.peek().is_some_and(|t| t.is_kw("JOIN"))
                    || self.peek().is_some_and(|t| t.is_kw("INNER"))
                {
                    self.accept_kw("INNER");
                    self.expect_kw("JOIN")?;
                    let table = self.ident()?;
                    let has_alias =
                        matches!(self.peek(), Some(Token::Ident(s)) if !is_clause_kw(s));
                    let alias = if has_alias { Some(self.ident()?) } else { None };
                    from.push(TableRef { table, alias });
                    self.expect_kw("ON")?;
                    join_predicates.push(self.expr()?);
                }
            } else if inner {
                return Err(self.err("expected JOIN after INNER"));
            }
            if !self.accept(Token::Comma) {
                break;
            }
        }
        let mut where_clause = if self.accept_kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        if !join_predicates.is_empty() {
            let joined = Expr::conjoin(join_predicates).expect("non-empty");
            where_clause = Some(match where_clause {
                Some(w) => Expr::And(Box::new(joined), Box::new(w)),
                None => joined,
            });
        }
        let mut group_by = Vec::new();
        if self.accept_kw("GROUP") {
            self.expect_kw("BY")?;
            loop {
                group_by.push(self.column_ref()?);
                if !self.accept(Token::Comma) {
                    break;
                }
            }
        }
        let having = if self.accept_kw("HAVING") {
            Some(self.expr()?)
        } else {
            None
        };
        let mut order_by = Vec::new();
        if self.accept_kw("ORDER") {
            self.expect_kw("BY")?;
            loop {
                let expr = self.expr()?;
                let ascending = if self.accept_kw("DESC") {
                    false
                } else {
                    self.accept_kw("ASC");
                    true
                };
                order_by.push(OrderKey { expr, ascending });
                if !self.accept(Token::Comma) {
                    break;
                }
            }
        }
        let limit = if self.accept_kw("LIMIT") {
            match self.next() {
                Some(Token::Int(n)) if n >= 0 => Some(n as u64),
                _ => return Err(self.err("expected non-negative integer after LIMIT")),
            }
        } else {
            None
        };
        Ok(Select {
            distinct,
            items,
            from,
            where_clause,
            group_by,
            having,
            order_by,
            limit,
        })
    }

    fn select_item(&mut self) -> DbResult<SelectItem> {
        if self.accept(Token::StarTok) {
            return Ok(SelectItem::Star);
        }
        // t.* form
        if let (Some(Token::Ident(_)), Some(Token::Dot)) = (self.peek(), self.peek2()) {
            if self.peek_at(2) == Some(&Token::StarTok) {
                let t = self.ident()?;
                self.expect(Token::Dot)?;
                self.expect(Token::StarTok)?;
                return Ok(SelectItem::QualifiedStar(t));
            }
        }
        let expr = self.expr()?;
        let alias = if self.accept_kw("AS") {
            Some(self.ident()?)
        } else {
            None
        };
        Ok(SelectItem::Expr { expr, alias })
    }

    fn insert(&mut self) -> DbResult<Statement> {
        self.expect_kw("INSERT")?;
        self.expect_kw("INTO")?;
        let table = self.ident()?;
        let columns = if self.accept(Token::LParen) {
            let mut cols = Vec::new();
            loop {
                cols.push(self.ident()?);
                if !self.accept(Token::Comma) {
                    break;
                }
            }
            self.expect(Token::RParen)?;
            Some(cols)
        } else {
            None
        };
        self.expect_kw("VALUES")?;
        let mut rows: Vec<Vec<Expr>> = Vec::new();
        loop {
            self.expect(Token::LParen)?;
            // Rows of one statement are as wide as each other, so every row
            // after the first takes one allocation.
            let mut row = Vec::with_capacity(rows.first().map_or(0, Vec::len));
            loop {
                row.push(self.value()?);
                if !self.accept(Token::Comma) {
                    break;
                }
            }
            self.expect(Token::RParen)?;
            rows.push(row);
            if !self.accept(Token::Comma) {
                break;
            }
        }
        Ok(Statement::Insert(Insert {
            table,
            columns,
            rows,
        }))
    }

    /// A `VALUES` item. A lone literal, which nearly every item of a bulk
    /// load is, is taken without descending the expression grammar (which
    /// returns the same node after nine nested calls and their keyword
    /// checks): `db_bulk_load/8000` takes about a tenth longer without it.
    fn value(&mut self) -> DbResult<Expr> {
        if matches!(self.peek2(), Some(Token::Comma | Token::RParen)) {
            if let Some(literal) = self.literal() {
                return Ok(literal);
            }
        }
        self.expr()
    }

    fn delete(&mut self) -> DbResult<Statement> {
        self.expect_kw("DELETE")?;
        self.expect_kw("FROM")?;
        let table = self.ident()?;
        let where_clause = if self.accept_kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Delete(Delete {
            table,
            where_clause,
        }))
    }

    fn update(&mut self) -> DbResult<Statement> {
        self.expect_kw("UPDATE")?;
        let table = self.ident()?;
        self.expect_kw("SET")?;
        let mut assignments = Vec::new();
        loop {
            let col = self.ident()?;
            self.expect(Token::Eq)?;
            assignments.push((col, self.expr()?));
            if !self.accept(Token::Comma) {
                break;
            }
        }
        let where_clause = if self.accept_kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Update(Update {
            table,
            assignments,
            where_clause,
        }))
    }

    fn create_table(&mut self) -> DbResult<Statement> {
        self.expect_kw("CREATE")?;
        self.expect_kw("TABLE")?;
        let table = self.ident()?;
        self.expect(Token::LParen)?;
        let mut columns = Vec::new();
        let mut indexes = Vec::new();
        let mut range_indexes = Vec::new();
        loop {
            if self.accept_kw("RANGE") {
                self.expect_kw("INDEX")?;
                self.expect(Token::LParen)?;
                range_indexes.push(self.ident()?);
                self.expect(Token::RParen)?;
            } else if self.accept_kw("INDEX") {
                self.expect(Token::LParen)?;
                indexes.push(self.ident()?);
                self.expect(Token::RParen)?;
            } else {
                let name = self.ident()?;
                let ty_name = self.ident()?;
                let ty = match ty_name.to_ascii_uppercase().as_str() {
                    "INT" | "INTEGER" | "BIGINT" => ColType::Int,
                    "FLOAT" | "REAL" | "DOUBLE" | "DECIMAL" | "NUMERIC" => ColType::Float,
                    "TEXT" | "VARCHAR" | "STRING" | "CHAR" => ColType::Str,
                    other => {
                        return Err(DbError::Parse(format!("unknown column type {other}")))
                    }
                };
                // tolerate VARCHAR(255)-style length args
                if self.accept(Token::LParen) {
                    match self.next() {
                        Some(Token::Int(_)) => {}
                        _ => return Err(self.err("expected length after type(")),
                    }
                    self.expect(Token::RParen)?;
                }
                columns.push((name, ty));
            }
            if !self.accept(Token::Comma) {
                break;
            }
        }
        self.expect(Token::RParen)?;
        Ok(Statement::CreateTable(CreateTable {
            table,
            columns,
            indexes,
            range_indexes,
        }))
    }

    // -- expressions --------------------------------------------------------

    fn expr(&mut self) -> DbResult<Expr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> DbResult<Expr> {
        let mut left = self.and_expr()?;
        while self.accept_kw("OR") {
            let right = self.and_expr()?;
            left = Expr::Or(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> DbResult<Expr> {
        let mut left = self.not_expr()?;
        while self.accept_kw("AND") {
            let right = self.not_expr()?;
            left = Expr::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> DbResult<Expr> {
        if self.accept_kw("NOT") {
            Ok(Expr::Not(Box::new(self.not_expr()?)))
        } else {
            self.comparison()
        }
    }

    fn comparison(&mut self) -> DbResult<Expr> {
        let left = self.additive()?;

        // IS [NOT] NULL
        if self.accept_kw("IS") {
            let negated = self.accept_kw("NOT");
            self.expect_kw("NULL")?;
            return Ok(Expr::IsNull {
                expr: Box::new(left),
                negated,
            });
        }

        // [NOT] BETWEEN / IN / LIKE
        let negated = if self.peek().is_some_and(|t| t.is_kw("NOT"))
            && self.peek2().is_some_and(|t| {
                t.is_kw("BETWEEN") || t.is_kw("IN") || t.is_kw("LIKE")
            }) {
            self.next();
            true
        } else {
            false
        };
        if self.accept_kw("BETWEEN") {
            let low = self.additive()?;
            self.expect_kw("AND")?;
            let high = self.additive()?;
            return Ok(Expr::Between {
                expr: Box::new(left),
                low: Box::new(low),
                high: Box::new(high),
                negated,
            });
        }
        if self.accept_kw("IN") {
            self.expect(Token::LParen)?;
            let mut list = Vec::new();
            loop {
                list.push(self.additive()?);
                if !self.accept(Token::Comma) {
                    break;
                }
            }
            self.expect(Token::RParen)?;
            return Ok(Expr::InList {
                expr: Box::new(left),
                list,
                negated,
            });
        }
        if self.accept_kw("LIKE") {
            let pattern = self.additive()?;
            return Ok(Expr::Like {
                expr: Box::new(left),
                pattern: Box::new(pattern),
                negated,
            });
        }
        if negated {
            return Err(self.err("expected BETWEEN, IN or LIKE after NOT"));
        }

        let op = match self.peek() {
            Some(Token::Eq) => Some(CmpOp::Eq),
            Some(Token::NotEq) => Some(CmpOp::NotEq),
            Some(Token::Lt) => Some(CmpOp::Lt),
            Some(Token::LtEq) => Some(CmpOp::LtEq),
            Some(Token::Gt) => Some(CmpOp::Gt),
            Some(Token::GtEq) => Some(CmpOp::GtEq),
            _ => None,
        };
        if let Some(op) = op {
            self.next();
            let right = self.additive()?;
            return Ok(Expr::Cmp {
                left: Box::new(left),
                op,
                right: Box::new(right),
            });
        }
        Ok(left)
    }

    fn additive(&mut self) -> DbResult<Expr> {
        let mut left = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                Some(Token::Plus) => ArithOp::Add,
                Some(Token::Minus) => ArithOp::Sub,
                _ => break,
            };
            self.next();
            let right = self.multiplicative()?;
            left = Expr::Arith {
                left: Box::new(left),
                op,
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn multiplicative(&mut self) -> DbResult<Expr> {
        let mut left = self.unary()?;
        loop {
            let op = match self.peek() {
                Some(Token::StarTok) => ArithOp::Mul,
                Some(Token::Slash) => ArithOp::Div,
                _ => break,
            };
            self.next();
            let right = self.unary()?;
            left = Expr::Arith {
                left: Box::new(left),
                op,
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn unary(&mut self) -> DbResult<Expr> {
        if self.accept(Token::Minus) {
            if self.peek() == Some(&Token::Int(i64::MIN)) {
                self.next();
                return Ok(Expr::Literal(Value::Int(i64::MIN)));
            }
            // Fold negation into numeric literals; otherwise 0 - e.
            return Ok(match self.unary()? {
                Expr::Literal(Value::Int(i)) if i != i64::MIN => Expr::Literal(Value::Int(-i)),
                Expr::Literal(Value::Float(f)) => Expr::Literal(Value::Float(-f)),
                e => Expr::Arith {
                    left: Box::new(Expr::Literal(Value::Int(0))),
                    op: ArithOp::Sub,
                    right: Box::new(e),
                },
            });
        }
        if self.accept(Token::Plus) {
            return self.unary();
        }
        self.primary()
    }

    /// The current token if it is a literal (`NULL` included) or a
    /// parameter marker, consumed; `None`, consuming nothing, otherwise.
    fn literal(&mut self) -> Option<Expr> {
        match self.peek()? {
            // `9223372036854775808` without a minus: out of range.
            Token::Int(i64::MIN) => return None,
            Token::Int(_) | Token::Float(_) | Token::Str(_) | Token::Param(_) => {}
            t if t.is_kw("NULL") => {
                self.next();
                return Some(Expr::Literal(Value::Null));
            }
            _ => return None,
        }
        // Taken, not cloned: a string literal moves into its value.
        Some(match self.next()? {
            Token::Int(i) => Expr::Literal(Value::Int(i)),
            Token::Float(f) => Expr::Literal(Value::Float(f)),
            Token::Str(s) => Expr::Literal(Value::Str(s.into_owned())),
            Token::Param(n) => Expr::Param(n),
            _ => unreachable!("the peeked token is a literal"),
        })
    }

    fn primary(&mut self) -> DbResult<Expr> {
        if let Some(literal) = self.literal() {
            return Ok(literal);
        }
        match self.peek() {
            Some(Token::LParen) => {
                self.next();
                let e = self.expr()?;
                self.expect(Token::RParen)?;
                Ok(e)
            }
            Some(&Token::Ident(name)) => {
                // Aggregate functions
                const AGGREGATES: [(&str, AggFunc); 5] = [
                    ("COUNT", AggFunc::Count),
                    ("SUM", AggFunc::Sum),
                    ("AVG", AggFunc::Avg),
                    ("MIN", AggFunc::Min),
                    ("MAX", AggFunc::Max),
                ];
                let agg = AGGREGATES
                    .iter()
                    .find(|(n, _)| name.eq_ignore_ascii_case(n))
                    .map(|(_, f)| *f);
                if let Some(func) = agg {
                    if self.peek2() == Some(&Token::LParen) {
                        self.next(); // ident
                        self.next(); // (
                        if self.accept(Token::StarTok) {
                            self.expect(Token::RParen)?;
                            return Ok(Expr::Agg {
                                func,
                                arg: None,
                                distinct: false,
                            });
                        }
                        let distinct = self.accept_kw("DISTINCT");
                        let arg = self.expr()?;
                        self.expect(Token::RParen)?;
                        return Ok(Expr::Agg {
                            func,
                            arg: Some(Box::new(arg)),
                            distinct,
                        });
                    }
                }
                // Scalar function calls: NAME(args…).
                if let Some(func) = ScalarFunc::by_name(name) {
                    if self.peek2() == Some(&Token::LParen) {
                        self.next(); // ident
                        self.next(); // (
                        let mut args = Vec::new();
                        if !self.accept(Token::RParen) {
                            loop {
                                args.push(self.expr()?);
                                if !self.accept(Token::Comma) {
                                    break;
                                }
                            }
                            self.expect(Token::RParen)?;
                        }
                        return Ok(Expr::Func { func, args });
                    }
                }
                Ok(Expr::Column(self.column_ref()?))
            }
            _ => Err(self.err("expected expression")),
        }
    }

    fn column_ref(&mut self) -> DbResult<ColumnRef> {
        let first = self.ident()?;
        if self.accept(Token::Dot) {
            let col = self.ident()?;
            Ok(ColumnRef {
                table: Some(first),
                column: col,
            })
        } else {
            Ok(ColumnRef {
                table: None,
                column: first,
            })
        }
    }
}

/// Keywords that can follow a table ref and therefore cannot be aliases.
fn is_clause_kw(s: &str) -> bool {
    const CLAUSES: &[&str] = &[
        "WHERE", "GROUP", "ORDER", "LIMIT", "ON", "AND", "OR", "SET", "VALUES", "INNER", "JOIN",
        "LEFT", "RIGHT", "UNION", "HAVING", "AS",
    ];
    CLAUSES.iter().any(|k| s.eq_ignore_ascii_case(k))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_example_query() {
        // Query1 from Example 4.1 of the paper.
        let sql = "select Car.maker, Car.model, Car.price, Mileage.EPA \
                   from Car, Mileage \
                   where Car.model = Mileage.model and Car.price < 20000;";
        let stmt = parse(sql).unwrap();
        let Statement::Select(s) = stmt else {
            panic!("expected select")
        };
        assert_eq!(s.from.len(), 2);
        assert_eq!(s.items.len(), 4);
        let w = s.where_clause.unwrap();
        assert_eq!(w.conjuncts().len(), 2);
    }

    #[test]
    fn parses_paper_polling_query() {
        let sql = "select Mileage.model, Mileage.EPA from Mileage where 'Avalon' = Mileage.model;";
        let s = parse_select(sql).unwrap();
        assert_eq!(s.from[0].table, "Mileage");
        match s.where_clause.unwrap() {
            Expr::Cmp { left, op, .. } => {
                assert_eq!(op, CmpOp::Eq);
                assert_eq!(*left, Expr::Literal(Value::Str("Avalon".into())));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_parameterized_query_type() {
        // Query type syntax from §2.3.2.
        let s = parse_select("SELECT * FROM R WHERE R.A > $1 and R.B < 200").unwrap();
        let w = s.where_clause.unwrap();
        assert_eq!(w.params(), vec![1]);
    }

    #[test]
    fn alias_parsing() {
        let s = parse_select("SELECT c.model FROM Car c WHERE c.price < 10").unwrap();
        assert_eq!(s.from[0].alias.as_deref(), Some("c"));
        assert_eq!(s.from[0].binding(), "c");
    }

    #[test]
    fn aggregates_and_group_by() {
        let s = parse_select(
            "SELECT maker, COUNT(*), AVG(price) FROM Car GROUP BY maker ORDER BY maker LIMIT 5",
        )
        .unwrap();
        assert_eq!(s.group_by.len(), 1);
        assert_eq!(s.limit, Some(5));
        assert!(matches!(
            s.items[1],
            SelectItem::Expr {
                expr: Expr::Agg { arg: None, .. },
                ..
            }
        ));
    }

    #[test]
    fn insert_multi_row() {
        let st = parse("INSERT INTO Car (maker, model, price) VALUES ('a','b',1), ('c','d',2)")
            .unwrap();
        let Statement::Insert(i) = st else {
            panic!()
        };
        assert_eq!(i.rows.len(), 2);
        assert_eq!(i.columns.as_ref().unwrap().len(), 3);
    }

    #[test]
    fn update_and_delete() {
        let st = parse("UPDATE Car SET price = price * 2, maker='x' WHERE model = 'm'").unwrap();
        let Statement::Update(u) = st else {
            panic!()
        };
        assert_eq!(u.assignments.len(), 2);
        let st = parse("DELETE FROM Car").unwrap();
        assert!(matches!(
            st,
            Statement::Delete(Delete {
                where_clause: None,
                ..
            })
        ));
    }

    #[test]
    fn create_table_with_index_and_varchar_len() {
        let st =
            parse("CREATE TABLE t (id INT, name VARCHAR(64), price FLOAT, INDEX(id))").unwrap();
        let Statement::CreateTable(c) = st else {
            panic!()
        };
        assert_eq!(c.columns.len(), 3);
        assert_eq!(c.indexes, vec!["id".to_string()]);
        assert!(c.range_indexes.is_empty());
    }

    #[test]
    fn create_table_with_range_index() {
        let st = parse("CREATE TABLE t (id INT, price FLOAT, INDEX(id), RANGE INDEX(price))")
            .unwrap();
        let Statement::CreateTable(c) = st else {
            panic!()
        };
        assert_eq!(c.indexes, vec!["id".to_string()]);
        assert_eq!(c.range_indexes, vec!["price".to_string()]);
        // Round-trips through Display.
        let rebuilt = Statement::CreateTable(c);
        let again = parse(&rebuilt.to_sql()).unwrap();
        assert_eq!(rebuilt, again);
    }

    #[test]
    fn between_in_like_not() {
        let s = parse_select(
            "SELECT * FROM t WHERE a BETWEEN 1 AND 5 AND b IN (1,2,3) AND c LIKE 'x%' AND d NOT IN (4)",
        )
        .unwrap();
        assert_eq!(s.where_clause.unwrap().conjuncts().len(), 4);
    }

    #[test]
    fn precedence_or_lower_than_and() {
        let s = parse_select("SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3").unwrap();
        match s.where_clause.unwrap() {
            Expr::Or(_, right) => assert!(matches!(*right, Expr::And(_, _))),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn negative_literals_fold() {
        let s = parse_select("SELECT * FROM t WHERE a > -5 AND b < -2.5").unwrap();
        let w = s.where_clause.unwrap();
        let cs = w.conjuncts();
        assert!(matches!(
            cs[0],
            Expr::Cmp { right, .. } if **right == Expr::Literal(Value::Int(-5))
        ));
    }

    #[test]
    fn the_smallest_int_reads_back_as_written() {
        let min = Expr::Literal(Value::Int(i64::MIN));
        let text = format!("SELECT * FROM t WHERE a = {min} AND b = - {min}");
        let written = "-9223372036854775808";
        assert_eq!(text, format!("SELECT * FROM t WHERE a = {written} AND b = - {written}"));
        let cs = parse_select(&text).unwrap().where_clause.unwrap();
        let cs = cs.conjuncts();
        assert!(matches!(cs[0], Expr::Cmp { right, .. } if **right == min));
        // Its negation is out of range: left to arithmetic, not folded.
        assert!(matches!(cs[1], Expr::Cmp { right, .. } if matches!(**right, Expr::Arith { .. })));
        // Without the minus the magnitude is out of range.
        assert!(parse("SELECT * FROM t WHERE a = 9223372036854775808").is_err());
        assert!(parse("SELECT * FROM t WHERE a = 9223372036854775809").is_err());
    }

    #[test]
    fn arith_precedence() {
        let s = parse_select("SELECT a + b * c FROM t").unwrap();
        let SelectItem::Expr { expr, .. } = &s.items[0] else {
            panic!()
        };
        match expr {
            Expr::Arith { op, right, .. } => {
                assert_eq!(*op, ArithOp::Add);
                assert!(matches!(
                    **right,
                    Expr::Arith {
                        op: ArithOp::Mul,
                        ..
                    }
                ));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn round_trip_display_reparse() {
        let cases = [
            "SELECT * FROM Car WHERE Car.price < 20000",
            "SELECT DISTINCT maker FROM Car c WHERE c.model = 'Eclipse' ORDER BY maker DESC LIMIT 3",
            "SELECT Car.maker, COUNT(*) FROM Car, Mileage WHERE Car.model = Mileage.model GROUP BY Car.maker",
            "INSERT INTO t (a, b) VALUES (1, 'x''y')",
            "DELETE FROM t WHERE a BETWEEN 1 AND 2",
            "UPDATE t SET a = (a + 1) WHERE b IS NOT NULL",
            "SELECT * FROM R WHERE R.A > $1 AND R.B < 200",
            "SELECT maker, COUNT(*) FROM Car GROUP BY maker HAVING COUNT(*) > 2",
        ];
        for sql in cases {
            let ast1 = parse(sql).unwrap();
            let rendered = ast1.to_sql();
            let ast2 = parse(&rendered)
                .unwrap_or_else(|e| panic!("re-parse of {rendered:?} failed: {e}"));
            assert_eq!(ast1, ast2, "round trip failed for {sql}");
        }
    }

    #[test]
    fn inner_join_folds_on_into_where() {
        let s = parse_select(
            "SELECT c.maker FROM Car c INNER JOIN Mileage m ON c.model = m.model \
             WHERE c.price < 5",
        )
        .unwrap();
        assert_eq!(s.from.len(), 2);
        assert_eq!(s.from[1].binding(), "m");
        let w = s.where_clause.unwrap();
        assert_eq!(w.conjuncts().len(), 2, "ON predicate AND WHERE predicate");
    }

    #[test]
    fn join_without_on_is_an_error() {
        assert!(parse("SELECT * FROM a JOIN b").is_err());
        assert!(parse("SELECT * FROM a INNER b ON a.x = b.x").is_err());
    }

    #[test]
    fn having_parses_after_group_by() {
        let s = parse_select(
            "SELECT a, COUNT(*) FROM t GROUP BY a HAVING COUNT(*) > 1 ORDER BY a",
        )
        .unwrap();
        assert!(s.having.is_some());
        assert_eq!(s.order_by.len(), 1);
    }

    #[test]
    fn error_cases() {
        assert!(parse("SELECT").is_err());
        assert!(parse("SELECT * FROM").is_err());
        assert!(parse("SELECT * FROM t WHERE").is_err());
        assert!(parse("FROBNICATE").is_err());
        assert!(parse("SELECT * FROM t extra garbage !").is_err());
    }
}
