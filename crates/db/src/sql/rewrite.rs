//! AST rewrites shared by the sniffer and the invalidator.
//!
//! * [`substitute_params`] — turn a query *type* plus bound values into a
//!   query *instance* (§2.3.2: `Q(V1…Vn)` → `Qᵗ(a1…an)`).
//! * [`parameterize`] — the inverse: extract the literals of a query
//!   instance, yielding the canonical query type and the parameter vector
//!   (the invalidator's query-type *discovery*, §4.1.2).
//! * [`TypePlan`] — both at once for a statement that is issued many times
//!   with different values: what `parameterize ∘ substitute_params` makes of
//!   it, worked out once.

use crate::error::{DbError, DbResult};
use crate::sql::ast::{Expr, Select, SelectItem};
use crate::value::Value;
use std::sync::Arc;

/// Replace `$n` markers in a SELECT with the given values.
pub fn substitute_params(select: &Select, params: &[Value]) -> DbResult<Select> {
    let mut out = select.clone();
    let mut exprs: Vec<&mut Expr> = out.where_clause.iter_mut().collect();
    exprs.extend(out.items.iter_mut().filter_map(|item| match item {
        SelectItem::Expr { expr, .. } => Some(expr),
        _ => None,
    }));
    exprs.extend(out.order_by.iter_mut().map(|k| &mut k.expr));
    // Validate all param references first for a precise error.
    let max_param = exprs.iter().flat_map(|e| e.params()).max().unwrap_or(0);
    if max_param > params.len() {
        return Err(DbError::UnboundParameter(max_param));
    }
    for e in exprs {
        substitute_expr(e, params);
    }
    Ok(out)
}

fn substitute_expr(e: &mut Expr, params: &[Value]) {
    match e {
        Expr::Param(i) => *e = Expr::Literal(params[*i - 1].clone()),
        _ => e.for_each_child_mut(&mut |c| substitute_expr(c, params)),
    }
}

/// Extract every literal in the WHERE clause of a query instance, replacing
/// each with a fresh `$n` marker (in pre-order). Returns the parameterized
/// SELECT and the extracted values.
///
/// Only the WHERE clause is parameterized: projection-list literals are
/// treated as structural (they don't interact with invalidation), and
/// keeping them verbatim makes the canonical type string stabler.
pub fn parameterize(select: &Select) -> (Select, Vec<Value>) {
    let mut out = select.clone();
    let params = parameterize_in_place(&mut out);
    (out, params)
}

/// [`parameterize`] for a caller that owns the instance and is done with it:
/// `select` itself becomes the query type, nothing is copied.
pub fn parameterize_in_place(select: &mut Select) -> Vec<Value> {
    let mut params = Vec::new();
    if let Some(w) = &mut select.where_clause {
        lift_literals(w, &mut params, |v| v, None);
    }
    params
}

/// The query type of every instance of one parameterized statement, and
/// where each of the type's parameters takes its value from: for all `bound`,
/// `parameterize(&substitute_params(stmt, bound)?)` equals
/// `(plan.template, plan.params(bound)?)`, without building the instance.
#[derive(Debug, Clone, PartialEq)]
pub struct TypePlan {
    /// The canonical query type (shared: every instance names the same one).
    pub template: Arc<Select>,
    /// Per `$n` of `template`, in order.
    slots: Vec<Slot>,
}

#[derive(Debug, Clone, PartialEq)]
enum Slot {
    /// A literal written into the statement.
    Literal(Value),
    /// The statement's own `$n`.
    Bound(usize),
}

impl TypePlan {
    /// Plan `stmt`. `None` when some `$n` sits where [`parameterize`] does
    /// not reach (projection, ORDER BY, HAVING, inside an aggregate): the
    /// type of such a statement depends on the values bound to it.
    pub fn of(stmt: &Select) -> Option<TypePlan> {
        let mut template = stmt.clone();
        let mut slots = Vec::new();
        if let Some(w) = &mut template.where_clause {
            lift_literals(w, &mut slots, Slot::Literal, Some(Slot::Bound));
        }
        let bound_slots = slots.iter().filter(|s| matches!(s, Slot::Bound(_))).count();
        let markers: usize = stmt.exprs().map(|e| e.params().len()).sum();
        (markers == bound_slots).then(|| TypePlan {
            template: Arc::new(template),
            slots,
        })
    }

    /// The type's parameter vector for the instance binding `bound` to the
    /// statement's markers, in the one allocation the sniffer's map and the
    /// invalidator's registry then share.
    pub fn params(&self, bound: &[Value]) -> DbResult<Arc<[Value]>> {
        // Checked first, so the values are collected straight into their
        // allocation, exact-size.
        Ok(self.values(bound)?.cloned().collect())
    }

    /// [`TypePlan::params`] borrowed: the values in order, copied nowhere —
    /// for a caller that only compares them.
    pub fn values<'a>(
        &'a self,
        bound: &'a [Value],
    ) -> DbResult<impl ExactSizeIterator<Item = &'a Value> + Clone + 'a> {
        for slot in &self.slots {
            match slot {
                Slot::Bound(i) if !(1..=bound.len()).contains(i) => {
                    return Err(DbError::UnboundParameter(*i));
                }
                _ => {}
            }
        }
        Ok(self.slots.iter().map(move |slot| match slot {
            Slot::Literal(v) => v,
            Slot::Bound(i) => &bound[i - 1],
        }))
    }
}

/// Replace every literal under `e` with the next `$n`, in pre-order, and
/// push what it stood for. With `marker`, the `$n` already there are
/// renumbered in the same sequence; without, they stay as written
/// (idempotence). An aggregate has no place in a WHERE clause and is left
/// alone.
fn lift_literals<S>(
    e: &mut Expr,
    out: &mut Vec<S>,
    literal: fn(Value) -> S,
    marker: Option<fn(usize) -> S>,
) {
    let slot = match e {
        Expr::Literal(v) => literal(std::mem::replace(v, Value::Null)),
        Expr::Param(i) => match marker {
            Some(marker) => marker(*i),
            None => return,
        },
        Expr::Agg { .. } => return,
        _ => return e.for_each_child_mut(&mut |c| lift_literals(c, out, literal, marker)),
    };
    out.push(slot);
    *e = Expr::Param(out.len());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sql::parser::parse_select;

    #[test]
    fn substitute_then_parameterize_round_trips() {
        let ty = parse_select("SELECT * FROM R WHERE R.A > $1 AND R.B < $2").unwrap();
        let inst = substitute_params(&ty, &[Value::Int(5), Value::Int(200)]).unwrap();
        assert_eq!(
            inst.to_string(),
            "SELECT * FROM R WHERE R.A > 5 AND R.B < 200"
        );
        let (ty2, params) = parameterize(&inst);
        assert_eq!(ty2, ty);
        assert_eq!(params, vec![Value::Int(5), Value::Int(200)]);
    }

    #[test]
    fn instances_of_same_type_collapse() {
        let a = parse_select("SELECT * FROM Car WHERE price < 20000 AND maker = 'Toyota'").unwrap();
        let b = parse_select("SELECT * FROM Car WHERE price < 99999 AND maker = 'Honda'").unwrap();
        let (ta, pa) = parameterize(&a);
        let (tb, pb) = parameterize(&b);
        assert_eq!(ta, tb, "same template");
        assert_ne!(pa, pb);
    }

    #[test]
    fn join_conditions_have_no_literals() {
        let q = parse_select(
            "SELECT Car.maker FROM Car, Mileage WHERE Car.model = Mileage.model AND Car.price < 20000",
        )
        .unwrap();
        let (ty, params) = parameterize(&q);
        assert_eq!(params, vec![Value::Int(20000)]);
        assert_eq!(
            ty.to_string(),
            "SELECT Car.maker FROM Car, Mileage WHERE Car.model = Mileage.model AND Car.price < $1"
        );
    }

    #[test]
    fn unbound_param_is_error() {
        let ty = parse_select("SELECT * FROM R WHERE R.A > $2").unwrap();
        assert!(matches!(
            substitute_params(&ty, &[Value::Int(1)]),
            Err(DbError::UnboundParameter(2))
        ));
    }

    #[test]
    fn projection_literals_left_alone() {
        let q = parse_select("SELECT 1, maker FROM Car WHERE price < 5").unwrap();
        let (ty, params) = parameterize(&q);
        assert_eq!(params.len(), 1);
        assert!(ty.to_string().starts_with("SELECT 1, maker"));
    }

    #[test]
    fn in_list_and_between_parameterized() {
        let q = parse_select("SELECT * FROM R WHERE a IN (1, 2) AND b BETWEEN 3 AND 4").unwrap();
        let (ty, params) = parameterize(&q);
        assert_eq!(
            params,
            vec![Value::Int(1), Value::Int(2), Value::Int(3), Value::Int(4)]
        );
        let back = substitute_params(&ty, &params).unwrap();
        assert_eq!(back, q);
    }
}
