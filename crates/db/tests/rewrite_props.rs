//! Property tests for the SQL rewrites the sniffer/invalidator depend on:
//! parameterize ∘ substitute is the identity on query instances, the
//! canonical template is literal-independent, rendered SQL re-parses to
//! the same AST, and the mapper's shortcuts (`Bound`, `TypePlan`) give what
//! substitute-then-render and substitute-then-parameterize give.

use cacheportal_db::sql::ast::{Bound, Statement};
use cacheportal_db::sql::parser::{parse, parse_select};
use cacheportal_db::sql::rewrite::{parameterize, substitute_params, TypePlan};
use cacheportal_db::Value;
use proptest::prelude::*;

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-1000i64..1000).prop_map(Value::Int),
        (-100.0f64..100.0).prop_map(|f| Value::Float((f * 4.0).round() / 4.0)),
        "[a-z]{1,8}".prop_map(Value::Str),
        // Strings with quotes exercise literal escaping end-to-end.
        Just(Value::Str("O'Hara's".into())),
    ]
}

/// Templates covering the predicate shapes the invalidator analyzes.
fn template_strategy() -> impl Strategy<Value = (&'static str, usize)> {
    prop::sample::select(vec![
        ("SELECT * FROM R WHERE R.a > $1 AND R.b < $2", 2),
        ("SELECT R.a FROM R WHERE R.s = $1", 1),
        (
            "SELECT R.a, S.c FROM R, S WHERE R.b = S.b AND R.a >= $1 AND S.c IN ($2, $3)",
            3,
        ),
        (
            "SELECT * FROM R WHERE (R.a = $1 OR R.b = $2) AND R.s LIKE $3",
            3,
        ),
        ("SELECT * FROM R WHERE R.a BETWEEN $1 AND $2", 2),
        (
            "SELECT COUNT(*) FROM R, S WHERE R.b = S.b AND S.c <> $1",
            1,
        ),
    ])
}

/// Statements as a servlet logs them: markers mixed with literals written
/// into the text, in any order.
fn logged_strategy() -> impl Strategy<Value = (&'static str, usize)> {
    prop::sample::select(vec![
        ("SELECT * FROM R WHERE R.a > 5 AND R.b < $1 AND R.s = 'x'", 1),
        ("SELECT R.a FROM R, S WHERE R.b = S.b AND S.c IN ($2, 7, $1)", 2),
        ("SELECT * FROM R WHERE R.a BETWEEN $1 AND 90 ORDER BY R.a DESC LIMIT 3", 1),
        ("SELECT * FROM R WHERE R.a = $2 AND R.b = $2 AND R.s LIKE $1", 2),
        ("SELECT COUNT(*), SUM(R.a) FROM R WHERE R.b = $1 GROUP BY R.s", 1),
    ])
}

/// Markers where `parameterize` does not reach: the type of such a statement
/// depends on the values bound to it.
const MARKERS_OUTSIDE_WHERE: [(&str, usize); 3] = [
    ("SELECT R.a + $1 FROM R WHERE R.b = $2", 2),
    ("SELECT * FROM R WHERE R.b = $1 ORDER BY R.a + $2", 2),
    ("SELECT R.s, COUNT(*) FROM R WHERE R.b = $1 GROUP BY R.s HAVING COUNT(*) > $2", 2),
];

#[test]
fn no_type_plan_for_markers_outside_where() {
    for (logged, _) in MARKERS_OUTSIDE_WHERE {
        assert_eq!(TypePlan::of(&parse_select(logged).unwrap()), None, "{logged}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A `TypePlan` is `parameterize ∘ substitute_params` worked out ahead of
    /// the values.
    #[test]
    fn type_plan_is_parameterize_after_substitute(
        (logged, n) in prop_oneof![template_strategy(), logged_strategy()],
        values in prop::collection::vec(value_strategy(), 3),
    ) {
        let stmt = parse_select(logged).unwrap();
        let (template, params) = parameterize(&substitute_params(&stmt, &values[..n]).unwrap());
        let plan = TypePlan::of(&stmt).expect("every marker is in WHERE");
        prop_assert_eq!(&*plan.template, &template);
        prop_assert_eq!(&*plan.params(&values[..n]).unwrap(), &params[..]);
        prop_assert!(plan.params(&values[..n - 1]).is_err(), "a marker left unbound");
    }

    /// `Bound` renders the text of the substituted statement.
    #[test]
    fn bound_renders_what_substitute_builds(
        (logged, n) in prop_oneof![
            template_strategy(),
            logged_strategy(),
            prop::sample::select(MARKERS_OUTSIDE_WHERE.to_vec()),
        ],
        values in prop::collection::vec(value_strategy(), 3),
    ) {
        let stmt = parse_select(logged).unwrap();
        let built = substitute_params(&stmt, &values[..n]).unwrap();
        prop_assert_eq!(Bound(&stmt, &values[..n]).to_string(), built.to_string());
        prop_assert_eq!(Bound(&stmt, &[]).to_string(), stmt.to_string());
    }

    /// substitute(template, params) then parameterize recovers both the
    /// template and the parameter vector — the invalidator's query-type
    /// discovery is lossless.
    #[test]
    fn parameterize_inverts_substitute(
        (template, n) in template_strategy(),
        values in prop::collection::vec(value_strategy(), 3),
    ) {
        let ty = parse_select(template).unwrap();
        let params = &values[..n];
        let inst = substitute_params(&ty, params).unwrap();
        let (ty2, recovered) = parameterize(&inst);
        prop_assert_eq!(&ty2, &ty, "template recovered");
        prop_assert_eq!(recovered.as_slice(), params, "parameters recovered");
    }

    /// Instances of one template with different literals share the same
    /// canonical type text.
    #[test]
    fn canonical_type_is_literal_independent(
        (template, n) in template_strategy(),
        a in prop::collection::vec(value_strategy(), 3),
        b in prop::collection::vec(value_strategy(), 3),
    ) {
        let ty = parse_select(template).unwrap();
        let inst_a = substitute_params(&ty, &a[..n]).unwrap();
        let inst_b = substitute_params(&ty, &b[..n]).unwrap();
        let (ta, _) = parameterize(&inst_a);
        let (tb, _) = parameterize(&inst_b);
        prop_assert_eq!(
            Statement::Select(ta).to_sql(),
            Statement::Select(tb).to_sql()
        );
    }

    /// Rendered instance SQL re-parses to the identical AST (the wire
    /// format between sniffer and invalidator is lossless).
    #[test]
    fn rendered_sql_reparses_identically(
        (template, n) in template_strategy(),
        values in prop::collection::vec(value_strategy(), 3),
    ) {
        let ty = parse_select(template).unwrap();
        let inst = substitute_params(&ty, &values[..n]).unwrap();
        let text = Statement::Select(inst.clone()).to_sql();
        let reparsed = parse(&text).unwrap();
        prop_assert_eq!(reparsed, Statement::Select(inst), "round trip of {}", text);
    }
}
