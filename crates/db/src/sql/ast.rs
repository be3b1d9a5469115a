//! Abstract syntax tree for the SQL subset.
//!
//! The subset is select-project-join with conjunctive/disjunctive predicates,
//! simple aggregates, `GROUP BY`, `ORDER BY`, `LIMIT`, plus the DML/DDL the
//! paper's workload needs (`INSERT`, `DELETE`, `UPDATE`, `CREATE TABLE`,
//! `DROP TABLE`). Every node can be rendered back to SQL text
//! ([`Statement::to_sql`]), which the invalidator uses to build polling
//! queries and canonical query-type strings.

use crate::value::Value;
use std::fmt;

/// A parsed SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// A `SELECT` statement.
    Select(Select),
    /// An `INSERT` statement.
    Insert(Insert),
    /// A `DELETE` statement.
    Delete(Delete),
    /// An `UPDATE` statement.
    Update(Update),
    /// A `CREATE TABLE` statement.
    CreateTable(CreateTable),
    /// A `DROP TABLE` statement (table name).
    DropTable(String),
}

/// `SELECT [DISTINCT] items FROM t1 [a1], t2 [a2] ... [WHERE ...]
/// [GROUP BY ...] [ORDER BY ...] [LIMIT n]`
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Select {
    /// True when `SELECT DISTINCT`.
    pub distinct: bool,
    /// Projection list.
    pub items: Vec<SelectItem>,
    /// FROM list (comma join).
    pub from: Vec<TableRef>,
    /// Optional WHERE predicate.
    pub where_clause: Option<Expr>,
    /// `GROUP BY` columns.
    pub group_by: Vec<ColumnRef>,
    /// `HAVING` predicate over the projected aggregate outputs.
    pub having: Option<Expr>,
    /// `ORDER BY` keys.
    pub order_by: Vec<OrderKey>,
    /// Optional `LIMIT` row count.
    pub limit: Option<u64>,
}

impl Select {
    /// Every expression of the statement: projection, WHERE, HAVING and
    /// ORDER BY, in that order.
    pub fn exprs(&self) -> impl Iterator<Item = &Expr> {
        (self.items.iter())
            .filter_map(|item| match item {
                SelectItem::Expr { expr, .. } => Some(expr),
                _ => None,
            })
            .chain(&self.where_clause)
            .chain(&self.having)
            .chain(self.order_by.iter().map(|k| &k.expr))
    }
}

/// One projection item.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum SelectItem {
    /// `*`
    Star,
    /// `alias.*`
    QualifiedStar(String),
    /// An expression with an optional `AS` alias.
    /// An expression with an optional `AS` alias.
    Expr {
        /// Projected expression.
        expr: Expr,
        /// Optional `AS` alias.
        alias: Option<String>,
    },
}

/// A table in the FROM list with an optional alias (comma-join syntax, as in
/// the paper's Example 4.1).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TableRef {
    /// Base table name.
    pub table: String,
    /// Optional binding alias.
    pub alias: Option<String>,
}

impl TableRef {
    /// The name this table is referenced by in the rest of the query.
    pub fn binding(&self) -> &str {
        self.alias.as_deref().unwrap_or(&self.table)
    }
}

/// `ORDER BY` key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct OrderKey {
    /// The key expression.
    pub expr: Expr,
    /// Sort direction (`false` = DESC).
    pub ascending: bool,
}

/// A possibly-qualified column reference.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ColumnRef {
    /// Base table name.
    pub table: Option<String>,
    /// Column name.
    pub column: String,
}

impl ColumnRef {
    /// Build a reference, optionally qualified.
    pub fn new(table: Option<&str>, column: &str) -> Self {
        ColumnRef {
            table: table.map(|s| s.to_string()),
            column: column.to_string(),
        }
    }
}

impl fmt::Display for ColumnRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.table {
            Some(t) => write!(f, "{t}.{}", self.column),
            None => f.write_str(&self.column),
        }
    }
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>` / `!=`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
}

impl CmpOp {
    /// SQL spelling of the operator/function.
    pub fn sql(&self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::NotEq => "<>",
            CmpOp::Lt => "<",
            CmpOp::LtEq => "<=",
            CmpOp::Gt => ">",
            CmpOp::GtEq => ">=",
        }
    }

    /// Mirror image: `a op b` ⇔ `b op.flip() a`.
    pub fn flip(&self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::NotEq => CmpOp::NotEq,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::LtEq => CmpOp::GtEq,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::GtEq => CmpOp::LtEq,
        }
    }
}

/// Arithmetic operators (projection expressions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

impl ArithOp {
    /// SQL spelling of the operator/function.
    pub fn sql(&self) -> &'static str {
        match self {
            ArithOp::Add => "+",
            ArithOp::Sub => "-",
            ArithOp::Mul => "*",
            ArithOp::Div => "/",
        }
    }
}

/// Built-in scalar functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScalarFunc {
    /// `UPPER(text)` — ASCII uppercase.
    Upper,
    /// `LOWER(text)` — ASCII lowercase.
    Lower,
    /// `LENGTH(text)` — character count.
    Length,
    /// `ABS(number)` — absolute value.
    Abs,
    /// `COALESCE(a, b, …)` — first non-NULL argument.
    Coalesce,
}

impl ScalarFunc {
    /// SQL spelling.
    pub fn sql(&self) -> &'static str {
        match self {
            ScalarFunc::Upper => "UPPER",
            ScalarFunc::Lower => "LOWER",
            ScalarFunc::Length => "LENGTH",
            ScalarFunc::Abs => "ABS",
            ScalarFunc::Coalesce => "COALESCE",
        }
    }

    /// Look a function up by (case-insensitive) name.
    pub fn by_name(name: &str) -> Option<ScalarFunc> {
        [
            ScalarFunc::Upper,
            ScalarFunc::Lower,
            ScalarFunc::Length,
            ScalarFunc::Abs,
            ScalarFunc::Coalesce,
        ]
        .into_iter()
        .find(|f| f.sql().eq_ignore_ascii_case(name))
    }
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// `COUNT`
    Count,
    /// `SUM`
    Sum,
    /// `AVG`
    Avg,
    /// `MIN`
    Min,
    /// `MAX`
    Max,
}

impl AggFunc {
    /// SQL spelling of the operator/function.
    pub fn sql(&self) -> &'static str {
        match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Avg => "AVG",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
        }
    }
}

/// Scalar/boolean expression.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// Column reference.
    Column(ColumnRef),
    /// Constant value.
    Literal(Value),
    /// Positional parameter `$n` (1-based) or `?` (assigned left-to-right).
    Param(usize),
    /// Comparison `left op right`.
    Cmp {
        /// Left operand.
        left: Box<Expr>,
        /// Operator.
        op: CmpOp,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Arithmetic `left op right`.
    Arith {
        /// Left operand.
        left: Box<Expr>,
        /// Operator.
        op: ArithOp,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Boolean conjunction.
    And(Box<Expr>, Box<Expr>),
    /// Boolean disjunction.
    Or(Box<Expr>, Box<Expr>),
    /// Boolean negation.
    Not(Box<Expr>),
    /// `expr IS [NOT] NULL`.
    IsNull {
        /// Inner expression.
        expr: Box<Expr>,
        /// True for the `NOT` form.
        negated: bool,
    },
    /// `expr [NOT] BETWEEN low AND high`.
    Between {
        /// Inner expression.
        expr: Box<Expr>,
        /// Lower bound (inclusive).
        low: Box<Expr>,
        /// Upper bound (inclusive).
        high: Box<Expr>,
        /// True for the `NOT` form.
        negated: bool,
    },
    /// `expr [NOT] IN (â¦)`.
    InList {
        /// Inner expression.
        expr: Box<Expr>,
        /// Candidate values.
        list: Vec<Expr>,
        /// True for the `NOT` form.
        negated: bool,
    },
    /// `expr [NOT] LIKE pattern`.
    Like {
        /// Inner expression.
        expr: Box<Expr>,
        /// LIKE pattern (`%`, `_`).
        pattern: Box<Expr>,
        /// True for the `NOT` form.
        negated: bool,
    },
    /// Aggregate call; `arg == None` means `COUNT(*)`.
    Agg {
        /// Aggregate function.
        func: AggFunc,
        /// Aggregate argument (`None` = `COUNT(*)`).
        arg: Option<Box<Expr>>,
        /// True for `DISTINCT` aggregation.
        distinct: bool,
    },
    /// Scalar function call, e.g. `UPPER(maker)`.
    Func {
        /// The function.
        func: ScalarFunc,
        /// Arguments, in order.
        args: Vec<Expr>,
    },
}

impl Expr {
    /// Boolean AND of an iterator of expressions, `None` if empty.
    pub fn conjoin(exprs: impl IntoIterator<Item = Expr>) -> Option<Expr> {
        exprs
            .into_iter()
            .reduce(|a, b| Expr::And(Box::new(a), Box::new(b)))
    }

    /// Split a conjunction into its top-level conjuncts (flattening nested
    /// ANDs). ORs are kept intact as single conjuncts.
    pub fn conjuncts(&self) -> Vec<&Expr> {
        let mut out = Vec::new();
        fn walk<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
            match e {
                Expr::And(a, b) => {
                    walk(a, out);
                    walk(b, out);
                }
                other => out.push(other),
            }
        }
        walk(self, &mut out);
        out
    }

    /// Collect every column referenced anywhere in the expression.
    pub fn columns(&self) -> Vec<&ColumnRef> {
        let mut out = Vec::new();
        self.visit(&mut |e| {
            if let Expr::Column(c) = e {
                out.push(c);
            }
        });
        out
    }

    /// Collect every parameter index used.
    pub fn params(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.visit(&mut |e| {
            if let Expr::Param(i) = e {
                out.push(*i);
            }
        });
        out
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

    /// Pre-order traversal.
    pub fn visit<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        f(self);
        match self {
            Expr::Cmp { left, right, .. } | Expr::Arith { left, right, .. } => {
                left.visit(f);
                right.visit(f);
            }
            Expr::And(a, b) | Expr::Or(a, b) => {
                a.visit(f);
                b.visit(f);
            }
            Expr::Not(e) => e.visit(f),
            Expr::IsNull { expr, .. } => expr.visit(f),
            Expr::Between {
                expr, low, high, ..
            } => {
                expr.visit(f);
                low.visit(f);
                high.visit(f);
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
            Expr::Agg { arg, .. } => {
                if let Some(a) = arg {
                    a.visit(f);
                }
            }
            Expr::Func { args, .. } => {
                for a in args {
                    a.visit(f);
                }
            }
            Expr::Column(_) | Expr::Literal(_) | Expr::Param(_) => {}
        }
    }

    /// Apply `f` to each direct child, in the order [`Expr::visit`] walks
    /// them. In-place rewrites recurse through this.
    pub fn for_each_child_mut(&mut self, f: &mut impl FnMut(&mut Expr)) {
        match self {
            Expr::Cmp { left, right, .. } | Expr::Arith { left, right, .. } => {
                f(left);
                f(right);
            }
            Expr::And(a, b) | Expr::Or(a, b) => {
                f(a);
                f(b);
            }
            Expr::Not(e) => f(e),
            Expr::IsNull { expr, .. } => f(expr),
            Expr::Between {
                expr, low, high, ..
            } => {
                f(expr);
                f(low);
                f(high);
            }
            Expr::InList { expr, list, .. } => {
                f(expr);
                list.iter_mut().for_each(f);
            }
            Expr::Like { expr, pattern, .. } => {
                f(expr);
                f(pattern);
            }
            Expr::Agg { arg, .. } => {
                if let Some(a) = arg {
                    f(a);
                }
            }
            Expr::Func { args, .. } => args.iter_mut().for_each(f),
            Expr::Column(_) | Expr::Literal(_) | Expr::Param(_) => {}
        }
    }

    /// Structure-preserving transformation: rebuild the expression, replacing
    /// each node by `f(node)` bottom-up where `f` returns `Some`.
    pub fn transform(&self, f: &impl Fn(&Expr) -> Option<Expr>) -> Expr {
        let rebuilt = match self {
            Expr::Cmp { left, op, right } => Expr::Cmp {
                left: Box::new(left.transform(f)),
                op: *op,
                right: Box::new(right.transform(f)),
            },
            Expr::Arith { left, op, right } => Expr::Arith {
                left: Box::new(left.transform(f)),
                op: *op,
                right: Box::new(right.transform(f)),
            },
            Expr::And(a, b) => Expr::And(Box::new(a.transform(f)), Box::new(b.transform(f))),
            Expr::Or(a, b) => Expr::Or(Box::new(a.transform(f)), Box::new(b.transform(f))),
            Expr::Not(e) => Expr::Not(Box::new(e.transform(f))),
            Expr::IsNull { expr, negated } => Expr::IsNull {
                expr: Box::new(expr.transform(f)),
                negated: *negated,
            },
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => Expr::Between {
                expr: Box::new(expr.transform(f)),
                low: Box::new(low.transform(f)),
                high: Box::new(high.transform(f)),
                negated: *negated,
            },
            Expr::InList {
                expr,
                list,
                negated,
            } => Expr::InList {
                expr: Box::new(expr.transform(f)),
                list: list.iter().map(|e| e.transform(f)).collect(),
                negated: *negated,
            },
            Expr::Like {
                expr,
                pattern,
                negated,
            } => Expr::Like {
                expr: Box::new(expr.transform(f)),
                pattern: Box::new(pattern.transform(f)),
                negated: *negated,
            },
            Expr::Agg {
                func,
                arg,
                distinct,
            } => Expr::Agg {
                func: *func,
                arg: arg.as_ref().map(|a| Box::new(a.transform(f))),
                distinct: *distinct,
            },
            Expr::Func { func, args } => Expr::Func {
                func: *func,
                args: args.iter().map(|a| a.transform(f)).collect(),
            },
            leaf => leaf.clone(),
        };
        f(&rebuilt).unwrap_or(rebuilt)
    }
}

/// `INSERT INTO t [(cols)] VALUES (…), (…)`
#[derive(Debug, Clone, PartialEq)]
pub struct Insert {
    /// Base table name.
    pub table: String,
    /// Column list.
    pub columns: Option<Vec<String>>,
    /// Rows of value expressions.
    pub rows: Vec<Vec<Expr>>,
}

/// `DELETE FROM t [WHERE …]`
#[derive(Debug, Clone, PartialEq)]
pub struct Delete {
    /// Base table name.
    pub table: String,
    /// Optional WHERE predicate.
    pub where_clause: Option<Expr>,
}

/// `UPDATE t SET c = e, … [WHERE …]`
#[derive(Debug, Clone, PartialEq)]
pub struct Update {
    /// Base table name.
    pub table: String,
    /// `SET column = expr` pairs.
    pub assignments: Vec<(String, Expr)>,
    /// Optional WHERE predicate.
    pub where_clause: Option<Expr>,
}

/// `CREATE TABLE t (c1 TYPE, …)` with optional `INDEX(col)` (hash) and
/// `RANGE INDEX(col)` (ordered) entries.
#[derive(Debug, Clone, PartialEq)]
pub struct CreateTable {
    /// Base table name.
    pub table: String,
    /// Column list.
    pub columns: Vec<(String, crate::schema::ColType)>,
    /// Hash-indexed columns.
    pub indexes: Vec<String>,
    /// Ordered (B-tree) indexed columns.
    pub range_indexes: Vec<String>,
}

// ---------------------------------------------------------------------------
// SQL rendering
// ---------------------------------------------------------------------------

/// `T` rendered as SQL with each `$n` that `params` covers written out as
/// the literal `params[n-1]`: the text of `substitute_params(T, params)`
/// without building it. An empty slice renders `T` as it stands.
pub struct Bound<'a, T>(pub &'a T, pub &'a [Value]);

/// What [`write_select`] renders into: SQL text, and in place of each `$n`
/// marker that binding fills in, a call to [`ParamSink::param`].
pub trait ParamSink: fmt::Write {
    /// The marker `$n` (1-based), where `Bound` writes `params[n - 1]`.
    fn param(&mut self, n: usize) -> fmt::Result;
}

/// `select` as [`Bound`] renders it, each marker that binding fills in —
/// those of the projection, WHERE and ORDER BY — handed to `out` rather
/// than written. A caller that renders many instances of one type splits
/// its text at these markers once; a `$1` inside a string literal is text.
pub fn write_select(select: &Select, out: &mut impl ParamSink) -> fmt::Result {
    out.write_str("SELECT ")?;
    if select.distinct {
        out.write_str("DISTINCT ")?;
    }
    for (i, item) in select.items.iter().enumerate() {
        if i > 0 {
            out.write_str(", ")?;
        }
        match item {
            SelectItem::Star => out.write_str("*")?,
            SelectItem::QualifiedStar(t) => write!(out, "{t}.*")?,
            SelectItem::Expr { expr, alias } => {
                write_expr(expr, out)?;
                if let Some(a) = alias {
                    write!(out, " AS {a}")?;
                }
            }
        }
    }
    out.write_str(" FROM ")?;
    for (i, t) in select.from.iter().enumerate() {
        if i > 0 {
            out.write_str(", ")?;
        }
        out.write_str(&t.table)?;
        if let Some(a) = &t.alias {
            write!(out, " {a}")?;
        }
    }
    if let Some(w) = &select.where_clause {
        out.write_str(" WHERE ")?;
        write_expr(w, out)?;
    }
    if !select.group_by.is_empty() {
        out.write_str(" GROUP BY ")?;
        for (i, c) in select.group_by.iter().enumerate() {
            if i > 0 {
                out.write_str(", ")?;
            }
            write!(out, "{c}")?;
        }
    }
    // Like `substitute_params`, binding leaves a marker in HAVING a marker.
    if let Some(h) = &select.having {
        write!(out, " HAVING {h}")?;
    }
    if !select.order_by.is_empty() {
        out.write_str(" ORDER BY ")?;
        for (i, k) in select.order_by.iter().enumerate() {
            if i > 0 {
                out.write_str(", ")?;
            }
            write_expr(&k.expr, out)?;
            if !k.ascending {
                out.write_str(" DESC")?;
            }
        }
    }
    if let Some(n) = select.limit {
        write!(out, " LIMIT {n}")?;
    }
    Ok(())
}

fn write_expr(expr: &Expr, out: &mut impl ParamSink) -> fmt::Result {
    let not = |negated: bool| if negated { "NOT " } else { "" };
    match expr {
        Expr::Column(c) => write!(out, "{c}"),
        Expr::Literal(v) => v.write_sql_literal(out),
        Expr::Param(i) => out.param(*i),
        Expr::Cmp { left, op, right } => {
            write_expr(left, out)?;
            write!(out, " {} ", op.sql())?;
            write_expr(right, out)
        }
        Expr::Arith { left, op, right } => {
            out.write_str("(")?;
            write_expr(left, out)?;
            write!(out, " {} ", op.sql())?;
            write_expr(right, out)?;
            out.write_str(")")
        }
        Expr::And(l, r) => {
            write_expr(l, out)?;
            out.write_str(" AND ")?;
            write_expr(r, out)
        }
        Expr::Or(l, r) => {
            out.write_str("(")?;
            write_expr(l, out)?;
            out.write_str(" OR ")?;
            write_expr(r, out)?;
            out.write_str(")")
        }
        Expr::Not(e) => {
            out.write_str("NOT (")?;
            write_expr(e, out)?;
            out.write_str(")")
        }
        Expr::IsNull { expr, negated } => {
            write_expr(expr, out)?;
            write!(out, " IS {}NULL", not(*negated))
        }
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            write_expr(expr, out)?;
            write!(out, " {}BETWEEN ", not(*negated))?;
            write_expr(low, out)?;
            out.write_str(" AND ")?;
            write_expr(high, out)
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            write_expr(expr, out)?;
            write!(out, " {}IN (", not(*negated))?;
            for (i, e) in list.iter().enumerate() {
                if i > 0 {
                    out.write_str(", ")?;
                }
                write_expr(e, out)?;
            }
            out.write_str(")")
        }
        Expr::Like {
            expr,
            pattern,
            negated,
        } => {
            write_expr(expr, out)?;
            write!(out, " {}LIKE ", not(*negated))?;
            write_expr(pattern, out)
        }
        Expr::Agg {
            func,
            arg,
            distinct,
        } => match arg {
            Some(a) => {
                write!(out, "{}({}", func.sql(), if *distinct { "DISTINCT " } else { "" })?;
                write_expr(a, out)?;
                out.write_str(")")
            }
            None => write!(out, "{}(*)", func.sql()),
        },
        Expr::Func { func, args } => {
            write!(out, "{}(", func.sql())?;
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    out.write_str(", ")?;
                }
                write_expr(a, out)?;
            }
            out.write_str(")")
        }
    }
}

/// [`Bound`]'s sink: the formatter, with each marker `params` covers
/// written as its literal and any other left a marker.
struct Binder<'a, 'f> {
    f: &'a mut fmt::Formatter<'f>,
    params: &'a [Value],
}

impl fmt::Write for Binder<'_, '_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.f.write_str(s)
    }
}

impl ParamSink for Binder<'_, '_> {
    fn param(&mut self, n: usize) -> fmt::Result {
        match n.checked_sub(1).and_then(|at| self.params.get(at)) {
            Some(v) => v.write_sql_literal(self.f),
            None => write!(self.f, "${n}"),
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        Bound(self, &[]).fmt(f)
    }
}

impl fmt::Display for Bound<'_, Expr> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_expr(self.0, &mut Binder { f, params: self.1 })
    }
}

impl fmt::Display for Select {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        Bound(self, &[]).fmt(f)
    }
}

/// Like `substitute_params`, binds the projection, WHERE and ORDER BY; a
/// marker in HAVING stays a marker.
impl fmt::Display for Bound<'_, Select> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_select(self.0, &mut Binder { f, params: self.1 })
    }
}

impl Statement {
    /// Render back to SQL text. Parsing the result yields an equal AST
    /// (property-tested in the parser module).
    pub fn to_sql(&self) -> String {
        self.to_string()
    }
}

impl fmt::Display for Statement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Statement::Select(s) => write!(f, "{s}"),
            Statement::Insert(i) => {
                write!(f, "INSERT INTO {}", i.table)?;
                if let Some(cols) = &i.columns {
                    write!(f, " ({})", cols.join(", "))?;
                }
                f.write_str(" VALUES ")?;
                for (ri, row) in i.rows.iter().enumerate() {
                    if ri > 0 {
                        f.write_str(", ")?;
                    }
                    f.write_str("(")?;
                    for (ci, e) in row.iter().enumerate() {
                        if ci > 0 {
                            f.write_str(", ")?;
                        }
                        write!(f, "{e}")?;
                    }
                    f.write_str(")")?;
                }
                Ok(())
            }
            Statement::Delete(d) => {
                write!(f, "DELETE FROM {}", d.table)?;
                if let Some(w) = &d.where_clause {
                    write!(f, " WHERE {w}")?;
                }
                Ok(())
            }
            Statement::Update(u) => {
                write!(f, "UPDATE {} SET ", u.table)?;
                for (i, (c, e)) in u.assignments.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{c} = {e}")?;
                }
                if let Some(w) = &u.where_clause {
                    write!(f, " WHERE {w}")?;
                }
                Ok(())
            }
            Statement::CreateTable(c) => {
                write!(f, "CREATE TABLE {} (", c.table)?;
                for (i, (name, ty)) in c.columns.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{name} {}", ty.sql_name())?;
                }
                for idx in &c.indexes {
                    write!(f, ", INDEX({idx})")?;
                }
                for idx in &c.range_indexes {
                    write!(f, ", RANGE INDEX({idx})")?;
                }
                f.write_str(")")
            }
            Statement::DropTable(t) => write!(f, "DROP TABLE {t}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(t: Option<&str>, c: &str) -> Expr {
        Expr::Column(ColumnRef::new(t, c))
    }

    #[test]
    fn conjuncts_flatten_nested_ands() {
        let a = col(None, "a");
        let b = col(None, "b");
        let c = col(None, "c");
        let e = Expr::And(
            Box::new(Expr::And(Box::new(a.clone()), Box::new(b.clone()))),
            Box::new(c.clone()),
        );
        let cs = e.conjuncts();
        assert_eq!(cs.len(), 3);
        assert_eq!(*cs[0], a);
        assert_eq!(*cs[2], c);
    }

    #[test]
    fn conjuncts_keep_or_whole() {
        let e = Expr::Or(Box::new(col(None, "a")), Box::new(col(None, "b")));
        assert_eq!(e.conjuncts().len(), 1);
    }

    #[test]
    fn conjoin_round_trips() {
        let parts = vec![col(None, "a"), col(None, "b"), col(None, "c")];
        let joined = Expr::conjoin(parts).unwrap();
        assert_eq!(joined.conjuncts().len(), 3);
        assert!(Expr::conjoin(std::iter::empty()).is_none());
    }

    #[test]
    fn columns_and_params_collected() {
        let e = Expr::Cmp {
            left: Box::new(col(Some("t"), "x")),
            op: CmpOp::Gt,
            right: Box::new(Expr::Param(1)),
        };
        assert_eq!(e.columns().len(), 1);
        assert_eq!(e.params(), vec![1]);
    }

    #[test]
    fn display_renders_reasonable_sql() {
        let s = Select {
            distinct: false,
            items: vec![SelectItem::Star],
            from: vec![TableRef {
                table: "Car".into(),
                alias: None,
            }],
            where_clause: Some(Expr::Cmp {
                left: Box::new(col(Some("Car"), "price")),
                op: CmpOp::Lt,
                right: Box::new(Expr::Literal(Value::Int(20000))),
            }),
            group_by: vec![],
            having: None,
            order_by: vec![],
            limit: None,
        };
        assert_eq!(
            Statement::Select(s).to_sql(),
            "SELECT * FROM Car WHERE Car.price < 20000"
        );
    }

    #[test]
    fn cmp_flip_is_involutive_mirror() {
        for op in [
            CmpOp::Eq,
            CmpOp::NotEq,
            CmpOp::Lt,
            CmpOp::LtEq,
            CmpOp::Gt,
            CmpOp::GtEq,
        ] {
            assert_eq!(op.flip().flip(), op);
        }
    }
}
