//! Name resolution and expression evaluation.
//!
//! Expressions are *bound* once per query against the FROM-list schemas
//! (string lookups resolved to `(table_no, column_no)` pairs), then evaluated
//! per row without any string hashing — the hot path of the executor.

use crate::error::{DbError, DbResult};
use crate::schema::SchemaRef;
use crate::sql::ast::{AggFunc, ArithOp, CmpOp, ColumnRef, Expr};
use crate::table::Row;
use crate::value::Value;
use std::borrow::Cow;

/// The binding environment: one entry per FROM-list table, in order.
#[derive(Debug, Clone)]
pub struct BindContext {
    /// `(binding name, schema)` — binding name is the alias if present.
    pub tables: Vec<(String, SchemaRef)>,
}

impl BindContext {
    /// Build a context from FROM-list bindings, in order.
    pub fn new(tables: Vec<(String, SchemaRef)>) -> Self {
        BindContext { tables }
    }

    /// Resolve a possibly-qualified column to `(table_no, col_no)`.
    pub fn resolve(&self, c: &ColumnRef) -> DbResult<(usize, usize)> {
        match &c.table {
            Some(t) => {
                let (ti, (_, schema)) = self
                    .tables
                    .iter()
                    .enumerate()
                    .find(|(_, (name, _))| name.eq_ignore_ascii_case(t))
                    .ok_or_else(|| DbError::UnknownTable(t.clone()))?;
                Ok((ti, schema.require(&c.column)?))
            }
            None => {
                let mut found = None;
                for (ti, (_, schema)) in self.tables.iter().enumerate() {
                    if let Some(ci) = schema.index_of(&c.column) {
                        if found.is_some() {
                            return Err(DbError::AmbiguousColumn(c.column.clone()));
                        }
                        found = Some((ti, ci));
                    }
                }
                found.ok_or_else(|| DbError::UnknownColumn(c.column.clone()))
            }
        }
    }
}

/// A fully resolved expression. Mirrors [`Expr`] minus aggregates (the
/// executor strips aggregates before binding; see `exec`).
#[derive(Debug, Clone)]
pub enum BoundExpr {
    /// Resolved column `(table_no, column_no)`.
    Column {
        /// FROM-list position.
        table: usize,
        /// Column position within the table.
        column: usize,
    },
    /// Constant value (parameters are substituted at bind time).
    Literal(Value),
    /// A `$n` marker a prepared statement keeps instead of its value; it
    /// evaluates to the execution's `params[n - 1]`.
    Param(usize),
    /// Comparison `left op right`.
    Cmp {
        /// Left operand.
        left: Box<BoundExpr>,
        /// Operator.
        op: CmpOp,
        /// Right operand.
        right: Box<BoundExpr>,
    },
    /// Arithmetic `left op right`.
    Arith {
        /// Left operand.
        left: Box<BoundExpr>,
        /// Operator.
        op: ArithOp,
        /// Right operand.
        right: Box<BoundExpr>,
    },
    /// Boolean conjunction (NULL collapses to false).
    And(Box<BoundExpr>, Box<BoundExpr>),
    /// Boolean disjunction (NULL collapses to false).
    Or(Box<BoundExpr>, Box<BoundExpr>),
    /// Boolean negation.
    Not(Box<BoundExpr>),
    /// `expr IS [NOT] NULL`.
    IsNull {
        /// Inner expression.
        expr: Box<BoundExpr>,
        /// True for the `NOT` form.
        negated: bool,
    },
    /// `expr [NOT] BETWEEN low AND high`.
    Between {
        /// Inner expression.
        expr: Box<BoundExpr>,
        /// Lower bound (inclusive).
        low: Box<BoundExpr>,
        /// Upper bound (inclusive).
        high: Box<BoundExpr>,
        /// True for the `NOT` form.
        negated: bool,
    },
    /// `expr [NOT] IN (â¦)`.
    InList {
        /// Inner expression.
        expr: Box<BoundExpr>,
        /// Candidate values.
        list: Vec<BoundExpr>,
        /// True for the `NOT` form.
        negated: bool,
    },
    /// `expr [NOT] LIKE pattern`.
    Like {
        /// Inner expression.
        expr: Box<BoundExpr>,
        /// LIKE pattern (`%`, `_`).
        pattern: Box<BoundExpr>,
        /// True for the `NOT` form.
        negated: bool,
    },
    /// Scalar function call.
    Func {
        /// The function.
        func: crate::sql::ast::ScalarFunc,
        /// Arguments, in order.
        args: Vec<BoundExpr>,
    },
}

/// Bind `expr` against `ctx`, substituting `params` for `$n` markers.
/// Aggregate nodes are rejected here; the executor handles them separately.
pub fn bind(expr: &Expr, ctx: &BindContext, params: &[Value]) -> DbResult<BoundExpr> {
    bind_expr(expr, ctx, params, false)
}

/// [`bind`], except that each `$n` stays a [`BoundExpr::Param`] marker
/// (after the same check that `params` covers it): the form a prepared
/// statement keeps, bound once and evaluated with each execution's values.
pub(crate) fn bind_marked(
    expr: &Expr,
    ctx: &BindContext,
    params: &[Value],
) -> DbResult<BoundExpr> {
    bind_expr(expr, ctx, params, true)
}

fn bind_expr(
    expr: &Expr,
    ctx: &BindContext,
    params: &[Value],
    keep_markers: bool,
) -> DbResult<BoundExpr> {
    let bind = |e: &Expr| bind_expr(e, ctx, params, keep_markers);
    let boxed = |e: &Expr| bind(e).map(Box::new);
    Ok(match expr {
        Expr::Column(c) => {
            let (table, column) = ctx.resolve(c)?;
            BoundExpr::Column { table, column }
        }
        Expr::Literal(v) => BoundExpr::Literal(v.clone()),
        Expr::Param(i) => {
            let value = params.get(i - 1).ok_or(DbError::UnboundParameter(*i))?;
            if keep_markers {
                BoundExpr::Param(*i)
            } else {
                BoundExpr::Literal(value.clone())
            }
        }
        Expr::Cmp { left, op, right } => BoundExpr::Cmp {
            left: boxed(left)?,
            op: *op,
            right: boxed(right)?,
        },
        Expr::Arith { left, op, right } => BoundExpr::Arith {
            left: boxed(left)?,
            op: *op,
            right: boxed(right)?,
        },
        Expr::And(a, b) => BoundExpr::And(boxed(a)?, boxed(b)?),
        Expr::Or(a, b) => BoundExpr::Or(boxed(a)?, boxed(b)?),
        Expr::Not(e) => BoundExpr::Not(boxed(e)?),
        Expr::IsNull { expr, negated } => BoundExpr::IsNull {
            expr: boxed(expr)?,
            negated: *negated,
        },
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => BoundExpr::Between {
            expr: boxed(expr)?,
            low: boxed(low)?,
            high: boxed(high)?,
            negated: *negated,
        },
        Expr::InList {
            expr,
            list,
            negated,
        } => BoundExpr::InList {
            expr: boxed(expr)?,
            list: list.iter().map(bind).collect::<DbResult<_>>()?,
            negated: *negated,
        },
        Expr::Like {
            expr,
            pattern,
            negated,
        } => BoundExpr::Like {
            expr: boxed(expr)?,
            pattern: boxed(pattern)?,
            negated: *negated,
        },
        Expr::Func { func, args } => BoundExpr::Func {
            func: *func,
            args: args.iter().map(bind).collect::<DbResult<_>>()?,
        },
        Expr::Agg { .. } => {
            return Err(DbError::Unsupported(
                "aggregate in non-aggregate position".into(),
            ))
        }
    })
}

/// What a `$n` marker reads when `params` does not cover it.
static NULL: Value = Value::Null;

impl BoundExpr {
    /// Evaluate against one row per FROM table.
    pub fn eval(&self, rows: &[&Row]) -> Value {
        self.eval_with(rows, &[])
    }

    /// Evaluate as a predicate: NULL and non-true collapse to `false`.
    pub fn eval_predicate(&self, rows: &[&Row]) -> bool {
        self.holds(rows, &[])
    }

    /// A column, literal or marker as a borrow of the value it names;
    /// anything else evaluated. Comparisons read their operands through this,
    /// so that comparing a string column copies no string.
    pub(crate) fn operand<'a>(&'a self, rows: &[&'a Row], params: &'a [Value]) -> Cow<'a, Value> {
        match self {
            BoundExpr::Column { table, column } => Cow::Borrowed(&rows[*table][*column]),
            BoundExpr::Literal(v) => Cow::Borrowed(v),
            BoundExpr::Param(i) => Cow::Borrowed(i.checked_sub(1).and_then(|at| params.get(at)).unwrap_or(&NULL)),
            other => Cow::Owned(other.eval_with(rows, params)),
        }
    }

    /// [`BoundExpr::eval_predicate`] with `params` for the `$n` markers.
    pub(crate) fn holds(&self, rows: &[&Row], params: &[Value]) -> bool {
        match self {
            BoundExpr::Cmp { left, op, right } => compare(
                &left.operand(rows, params),
                *op,
                &right.operand(rows, params),
            )
            .unwrap_or(false),
            BoundExpr::And(a, b) => a.holds(rows, params) && b.holds(rows, params),
            BoundExpr::Or(a, b) => a.holds(rows, params) || b.holds(rows, params),
            BoundExpr::Not(e) => !e.holds(rows, params),
            other => truthy(&other.eval_with(rows, params)),
        }
    }

    /// [`BoundExpr::eval`] with `params` for the `$n` markers.
    pub(crate) fn eval_with(&self, rows: &[&Row], params: &[Value]) -> Value {
        let bit = |b: bool| Value::Int(i64::from(b));
        match self {
            BoundExpr::Column { .. } | BoundExpr::Literal(_) | BoundExpr::Param(_) => {
                self.operand(rows, params).into_owned()
            }
            BoundExpr::Cmp { left, op, right } => {
                let l = left.operand(rows, params);
                compare(&l, *op, &right.operand(rows, params)).map_or(Value::Null, bit)
            }
            BoundExpr::Arith { left, op, right } => arith(
                &left.operand(rows, params),
                *op,
                &right.operand(rows, params),
            ),
            // Collapsed three-valued logic: NULL acts as false.
            BoundExpr::And(..) | BoundExpr::Or(..) | BoundExpr::Not(_) => {
                bit(self.holds(rows, params))
            }
            BoundExpr::IsNull { expr, negated } => {
                bit(expr.operand(rows, params).is_null() != *negated)
            }
            BoundExpr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                let v = expr.operand(rows, params);
                let inside = matches!(v.sql_cmp(&low.operand(rows, params)), Some(o) if o.is_ge())
                    && matches!(v.sql_cmp(&high.operand(rows, params)), Some(o) if o.is_le());
                bit(inside != *negated)
            }
            BoundExpr::InList {
                expr,
                list,
                negated,
            } => {
                let v = expr.operand(rows, params);
                let found = list
                    .iter()
                    .any(|e| v.sql_eq(&e.operand(rows, params)).unwrap_or(false));
                bit(found != *negated)
            }
            BoundExpr::Like {
                expr,
                pattern,
                negated,
            } => {
                match (&*expr.operand(rows, params), &*pattern.operand(rows, params)) {
                    (Value::Str(s), Value::Str(pat)) => bit(like_match(s, pat) != *negated),
                    _ => Value::Int(0),
                }
            }
            BoundExpr::Func { func, args } => {
                use crate::sql::ast::ScalarFunc;
                if *func == ScalarFunc::Coalesce {
                    return args
                        .iter()
                        .map(|a| a.operand(rows, params))
                        .find(|v| !v.is_null())
                        .map_or(Value::Null, Cow::into_owned);
                }
                let v = args.first().map(|a| a.operand(rows, params));
                match (func, v.as_deref().unwrap_or(&NULL)) {
                    (_, Value::Null) => Value::Null,
                    (ScalarFunc::Upper, Value::Str(s)) => Value::Str(s.to_ascii_uppercase()),
                    (ScalarFunc::Lower, Value::Str(s)) => Value::Str(s.to_ascii_lowercase()),
                    (ScalarFunc::Length, Value::Str(s)) => Value::Int(s.chars().count() as i64),
                    (ScalarFunc::Abs, Value::Int(i)) => Value::Int(i.abs()),
                    (ScalarFunc::Abs, Value::Float(f)) => Value::Float(f.abs()),
                    // Type mismatches yield NULL (collapses to false in
                    // predicates, consistent with the engine).
                    _ => Value::Null,
                }
            }
        }
    }
}

/// `l op r` under SQL comparison: `None` when either side is NULL or the
/// two are incomparable.
fn compare(l: &Value, op: CmpOp, r: &Value) -> Option<bool> {
    let ord = l.sql_cmp(r)?;
    Some(match op {
        CmpOp::Eq => ord.is_eq(),
        CmpOp::NotEq => ord.is_ne(),
        CmpOp::Lt => ord.is_lt(),
        CmpOp::LtEq => ord.is_le(),
        CmpOp::Gt => ord.is_gt(),
        CmpOp::GtEq => ord.is_ge(),
    })
}

/// SQL truthiness: nonzero numbers are true, everything else false.
pub fn truthy(v: &Value) -> bool {
    match v {
        Value::Int(i) => *i != 0,
        Value::Float(f) => *f != 0.0,
        _ => false,
    }
}

/// Arithmetic with Int/Float coercion; NULL propagates; division by zero
/// yields NULL (closest safe analogue to a SQL error in this engine).
pub fn arith(l: &Value, op: ArithOp, r: &Value) -> Value {
    match (l, r) {
        (Value::Int(a), Value::Int(b)) => match op {
            ArithOp::Add => Value::Int(a.wrapping_add(*b)),
            ArithOp::Sub => Value::Int(a.wrapping_sub(*b)),
            ArithOp::Mul => Value::Int(a.wrapping_mul(*b)),
            ArithOp::Div => {
                if *b == 0 {
                    Value::Null
                } else {
                    Value::Int(a.wrapping_div(*b))
                }
            }
        },
        (Value::Null, _) | (_, Value::Null) => Value::Null,
        (a, b) => {
            let (x, y) = match (to_f64(a), to_f64(b)) {
                (Some(x), Some(y)) => (x, y),
                _ => return Value::Null,
            };
            match op {
                ArithOp::Add => Value::Float(x + y),
                ArithOp::Sub => Value::Float(x - y),
                ArithOp::Mul => Value::Float(x * y),
                ArithOp::Div => {
                    if y == 0.0 {
                        Value::Null
                    } else {
                        Value::Float(x / y)
                    }
                }
            }
        }
    }
}

fn to_f64(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

/// SQL LIKE with `%` (any run) and `_` (any single char). Iterative
/// two-pointer algorithm, O(|s|·|p|) worst case.
pub fn like_match(s: &str, pattern: &str) -> bool {
    let s: Vec<char> = s.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    let (mut si, mut pi) = (0usize, 0usize);
    let (mut star, mut star_si) = (None::<usize>, 0usize);
    while si < s.len() {
        if pi < p.len() && (p[pi] == '_' || p[pi] == s[si]) {
            si += 1;
            pi += 1;
        } else if pi < p.len() && p[pi] == '%' {
            star = Some(pi);
            star_si = si;
            pi += 1;
        } else if let Some(sp) = star {
            pi = sp + 1;
            star_si += 1;
            si = star_si;
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == '%' {
        pi += 1;
    }
    pi == p.len()
}

/// Streaming aggregate accumulator.
#[derive(Debug, Clone)]
pub struct AggState {
    func: AggFunc,
    count: u64,
    sum: f64,
    all_int: bool,
    min: Option<Value>,
    max: Option<Value>,
    distinct: Option<std::collections::HashSet<Value>>,
}

impl AggState {
    /// Build a context from FROM-list bindings, in order.
    pub fn new(func: AggFunc, distinct: bool) -> Self {
        AggState {
            func,
            count: 0,
            sum: 0.0,
            all_int: true,
            min: None,
            max: None,
            distinct: distinct.then(std::collections::HashSet::new),
        }
    }

    /// Feed one input value. `None` means `COUNT(*)` (no argument).
    pub fn update(&mut self, v: Option<&Value>) {
        match v {
            None => self.count += 1, // COUNT(*)
            Some(Value::Null) => {}  // SQL aggregates skip NULLs
            Some(v) => {
                if let Some(seen) = &mut self.distinct {
                    if !seen.insert(v.clone()) {
                        return;
                    }
                }
                self.count += 1;
                match v {
                    Value::Int(i) => self.sum += *i as f64,
                    Value::Float(f) => {
                        self.sum += f;
                        self.all_int = false;
                    }
                    _ => self.all_int = false,
                }
                if self.min.as_ref().is_none_or(|m| v < m) {
                    self.min = Some(v.clone());
                }
                if self.max.as_ref().is_none_or(|m| v > m) {
                    self.max = Some(v.clone());
                }
            }
        }
    }

    /// Final value of the aggregate.
    pub fn finish(&self) -> Value {
        match self.func {
            AggFunc::Count => Value::Int(self.count as i64),
            AggFunc::Sum => {
                if self.count == 0 {
                    Value::Null
                } else if self.all_int {
                    Value::Int(self.sum as i64)
                } else {
                    Value::Float(self.sum)
                }
            }
            AggFunc::Avg => {
                if self.count == 0 {
                    Value::Null
                } else {
                    Value::Float(self.sum / self.count as f64)
                }
            }
            AggFunc::Min => self.min.clone().unwrap_or(Value::Null),
            AggFunc::Max => self.max.clone().unwrap_or(Value::Null),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColType, Schema};
    use crate::sql::parser::parse_select;

    fn ctx() -> BindContext {
        BindContext::new(vec![
            (
                "Car".to_string(),
                Schema::of(&[
                    ("maker", ColType::Str),
                    ("model", ColType::Str),
                    ("price", ColType::Int),
                ]),
            ),
            (
                "Mileage".to_string(),
                Schema::of(&[("model", ColType::Str), ("EPA", ColType::Float)]),
            ),
        ])
    }

    fn eval_where(sql: &str, rows: &[&Row], params: &[Value]) -> bool {
        let sel = parse_select(sql).unwrap();
        let bound = bind(&sel.where_clause.unwrap(), &ctx(), params).unwrap();
        bound.eval_predicate(rows)
    }

    #[test]
    fn qualified_and_unqualified_resolution() {
        let c = ctx();
        assert_eq!(
            c.resolve(&ColumnRef::new(Some("Mileage"), "EPA")).unwrap(),
            (1, 1)
        );
        assert_eq!(c.resolve(&ColumnRef::new(None, "price")).unwrap(), (0, 2));
        assert!(matches!(
            c.resolve(&ColumnRef::new(None, "model")),
            Err(DbError::AmbiguousColumn(_))
        ));
        assert!(c.resolve(&ColumnRef::new(Some("Nope"), "x")).is_err());
    }

    #[test]
    fn join_predicate_evaluates() {
        let car: Row = vec!["Toyota".into(), "Avalon".into(), Value::Int(25000)];
        let mil: Row = vec!["Avalon".into(), Value::Float(28.0)];
        assert!(eval_where(
            "SELECT * FROM Car, Mileage WHERE Car.model = Mileage.model AND Car.price < 30000",
            &[&car, &mil],
            &[]
        ));
        assert!(!eval_where(
            "SELECT * FROM Car, Mileage WHERE Car.model = Mileage.model AND Car.price < 20000",
            &[&car, &mil],
            &[]
        ));
    }

    #[test]
    fn params_substitute() {
        let car: Row = vec!["Toyota".into(), "Avalon".into(), Value::Int(25000)];
        let mil: Row = vec!["Avalon".into(), Value::Float(28.0)];
        assert!(eval_where(
            "SELECT * FROM Car, Mileage WHERE Car.maker = $1",
            &[&car, &mil],
            &["Toyota".into()]
        ));
        let sel = parse_select("SELECT * FROM Car WHERE maker = $2").unwrap();
        let err = bind(&sel.where_clause.unwrap(), &ctx(), &["x".into()]);
        assert!(matches!(err, Err(DbError::UnboundParameter(2))));
    }

    #[test]
    fn null_collapses_to_false() {
        let car: Row = vec![Value::Null, "Avalon".into(), Value::Int(25000)];
        let mil: Row = vec!["Avalon".into(), Value::Float(28.0)];
        assert!(!eval_where(
            "SELECT * FROM Car, Mileage WHERE Car.maker = 'Toyota'",
            &[&car, &mil],
            &[]
        ));
        assert!(eval_where(
            "SELECT * FROM Car, Mileage WHERE Car.maker IS NULL",
            &[&car, &mil],
            &[]
        ));
    }

    #[test]
    fn like_semantics() {
        assert!(like_match("Avalon", "Ava%"));
        assert!(like_match("Avalon", "%lon"));
        assert!(like_match("Avalon", "A_alon"));
        assert!(like_match("Avalon", "%"));
        assert!(!like_match("Avalon", "Ava"));
        assert!(!like_match("", "_"));
        assert!(like_match("", "%"));
        assert!(like_match("abc", "%b%"));
        assert!(!like_match("abc", "%d%"));
    }

    #[test]
    fn arith_division_by_zero_is_null() {
        assert_eq!(
            arith(&Value::Int(4), ArithOp::Div, &Value::Int(0)),
            Value::Null
        );
        assert_eq!(
            arith(&Value::Float(4.0), ArithOp::Div, &Value::Float(0.0)),
            Value::Null
        );
        assert_eq!(
            arith(&Value::Int(5), ArithOp::Div, &Value::Int(2)),
            Value::Int(2)
        );
        assert_eq!(
            arith(&Value::Int(5), ArithOp::Add, &Value::Float(0.5)),
            Value::Float(5.5)
        );
    }

    #[test]
    fn aggregate_states() {
        let mut c = AggState::new(AggFunc::Count, false);
        c.update(None);
        c.update(None);
        assert_eq!(c.finish(), Value::Int(2));

        let mut s = AggState::new(AggFunc::Sum, false);
        for v in [Value::Int(1), Value::Null, Value::Int(4)] {
            s.update(Some(&v));
        }
        assert_eq!(s.finish(), Value::Int(5), "NULLs skipped");

        let mut a = AggState::new(AggFunc::Avg, false);
        a.update(Some(&Value::Int(1)));
        a.update(Some(&Value::Int(2)));
        assert_eq!(a.finish(), Value::Float(1.5));

        let empty = AggState::new(AggFunc::Sum, false);
        assert_eq!(empty.finish(), Value::Null);

        let mut mx = AggState::new(AggFunc::Max, false);
        mx.update(Some(&Value::Str("a".into())));
        mx.update(Some(&Value::Str("z".into())));
        assert_eq!(mx.finish(), Value::Str("z".into()));
    }

    #[test]
    fn distinct_aggregates_dedupe() {
        let mut c = AggState::new(AggFunc::Count, true);
        for v in [Value::Int(1), Value::Int(1), Value::Int(2)] {
            c.update(Some(&v));
        }
        assert_eq!(c.finish(), Value::Int(2));
    }
}
