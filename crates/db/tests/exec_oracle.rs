//! Property tests: the planner/executor must agree with a naive evaluator
//! that performs no pushdown, no index use, and no hash joins — just the
//! cartesian product with the full WHERE evaluated per combination.

use cacheportal_db::engine::Database;
use cacheportal_db::eval::{bind, BindContext};
use cacheportal_db::exec::QueryResult;
use cacheportal_db::sql::ast::{SelectItem, Statement};
use cacheportal_db::sql::parser::parse;
use cacheportal_db::value::Value;
use proptest::prelude::*;

/// Build a 2-table database with the given rows.
/// R(a INT, b INT, s TEXT) with an index on b and a range index on a;
/// S(b INT, c INT) indexed on b.
fn build_db(r_rows: &[(i64, i64, String)], s_rows: &[(i64, i64)]) -> Database {
    let mut db = Database::new();
    db.execute("CREATE TABLE R (a INT, b INT, s TEXT, INDEX(b), RANGE INDEX(a))")
        .unwrap();
    db.execute("CREATE TABLE S (b INT, c INT, INDEX(b))").unwrap();
    for (a, b, s) in r_rows {
        db.insert_row("R", vec![Value::Int(*a), Value::Int(*b), s.clone().into()])
            .unwrap();
    }
    for (b, c) in s_rows {
        db.insert_row("S", vec![Value::Int(*b), Value::Int(*c)])
            .unwrap();
    }
    db
}

/// Naive reference: SELECT * over the cartesian product, full WHERE per row.
fn naive_select_star(db: &Database, sql: &str) -> Vec<Vec<Value>> {
    let Statement::Select(sel) = parse(sql).unwrap() else {
        panic!("not a select")
    };
    assert!(matches!(sel.items.as_slice(), [SelectItem::Star]));
    let tables: Vec<_> = sel
        .from
        .iter()
        .map(|t| db.catalog().require(&t.table).unwrap())
        .collect();
    let ctx = BindContext::new(
        sel.from
            .iter()
            .zip(&tables)
            .map(|(tr, t)| (tr.binding().to_string(), t.schema().clone()))
            .collect(),
    );
    let pred = sel.where_clause.as_ref().map(|w| bind(w, &ctx, &[]).unwrap());

    let mut out = Vec::new();
    match tables.len() {
        1 => {
            for (_, r) in tables[0].scan() {
                if pred.as_ref().map(|p| p.eval_predicate(&[r])).unwrap_or(true) {
                    out.push(r.clone());
                }
            }
        }
        2 => {
            for (_, r0) in tables[0].scan() {
                for (_, r1) in tables[1].scan() {
                    if pred
                        .as_ref()
                        .map(|p| p.eval_predicate(&[r0, r1]))
                        .unwrap_or(true)
                    {
                        let mut row = r0.clone();
                        row.extend(r1.iter().cloned());
                        out.push(row);
                    }
                }
            }
        }
        n => panic!("oracle supports 1-2 tables, got {n}"),
    }
    out
}

/// Compare result sets as multisets (the executor's row order for unordered
/// queries is an implementation detail).
fn assert_same_multiset(mut got: Vec<Vec<Value>>, result: QueryResult) {
    let mut want = result.rows;
    got.sort();
    want.sort();
    assert_eq!(got, want);
}

fn op_strategy() -> impl Strategy<Value = &'static str> {
    prop::sample::select(vec!["=", "<>", "<", "<=", ">", ">="])
}

fn small_string() -> impl Strategy<Value = String> {
    prop::sample::select(vec!["x".to_string(), "y".to_string(), "z".to_string()])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Join + local predicates: executor ≡ naive evaluator.
    #[test]
    fn join_with_filters_matches_oracle(
        r_rows in prop::collection::vec((0i64..8, 0i64..6, small_string()), 0..30),
        s_rows in prop::collection::vec((0i64..6, 0i64..8), 0..30),
        a_op in op_strategy(),
        a_lit in 0i64..8,
        c_op in op_strategy(),
        c_lit in 0i64..8,
    ) {
        let db = build_db(&r_rows, &s_rows);
        let sql = format!(
            "SELECT * FROM R, S WHERE R.b = S.b AND R.a {a_op} {a_lit} AND S.c {c_op} {c_lit}"
        );
        let naive = naive_select_star(&db, &sql);
        let exec = db.query(&sql).unwrap();
        assert_same_multiset(naive, exec);
    }

    /// Single-table predicates, including indexed equality.
    #[test]
    fn single_table_matches_oracle(
        r_rows in prop::collection::vec((0i64..8, 0i64..6, small_string()), 0..40),
        b_lit in 0i64..6,
        a_op in op_strategy(),
        a_lit in 0i64..8,
        use_index_eq in any::<bool>(),
    ) {
        let db = build_db(&r_rows, &[]);
        let sql = if use_index_eq {
            format!("SELECT * FROM R WHERE b = {b_lit} AND a {a_op} {a_lit}")
        } else {
            format!("SELECT * FROM R WHERE a {a_op} {a_lit}")
        };
        let naive = naive_select_star(&db, &sql);
        let exec = db.query(&sql).unwrap();
        assert_same_multiset(naive, exec);
    }

    /// Disjunctions must not be broken by conjunct classification.
    #[test]
    fn or_predicates_match_oracle(
        r_rows in prop::collection::vec((0i64..8, 0i64..6, small_string()), 0..40),
        s_rows in prop::collection::vec((0i64..6, 0i64..8), 0..20),
        lit1 in 0i64..8,
        lit2 in 0i64..8,
    ) {
        let db = build_db(&r_rows, &s_rows);
        let sql = format!(
            "SELECT * FROM R, S WHERE R.b = S.b AND (R.a = {lit1} OR S.c = {lit2})"
        );
        let naive = naive_select_star(&db, &sql);
        let exec = db.query(&sql).unwrap();
        assert_same_multiset(naive, exec);
    }

    /// Cartesian products (no join predicate) still agree.
    #[test]
    fn cartesian_matches_oracle(
        r_rows in prop::collection::vec((0i64..4, 0i64..4, small_string()), 0..10),
        s_rows in prop::collection::vec((0i64..4, 0i64..4), 0..10),
    ) {
        let db = build_db(&r_rows, &s_rows);
        let sql = "SELECT * FROM R, S";
        let naive = naive_select_star(&db, sql);
        let exec = db.query(sql).unwrap();
        assert_same_multiset(naive, exec);
    }

    /// COUNT(*) equals the oracle's row count.
    #[test]
    fn count_star_matches_oracle(
        r_rows in prop::collection::vec((0i64..8, 0i64..6, small_string()), 0..40),
        a_op in op_strategy(),
        a_lit in 0i64..8,
    ) {
        let db = build_db(&r_rows, &[]);
        let filter_sql = format!("SELECT * FROM R WHERE a {a_op} {a_lit}");
        let naive = naive_select_star(&db, &filter_sql);
        let count_sql = format!("SELECT COUNT(*) FROM R WHERE a {a_op} {a_lit}");
        let exec = db.query(&count_sql).unwrap();
        prop_assert_eq!(exec.rows[0][0].clone(), Value::Int(naive.len() as i64));
    }

    /// Replaying the update log into an empty database reconstructs the
    /// exact table contents (multiset equality).
    #[test]
    fn log_replay_reconstructs_state(
        inserts in prop::collection::vec((0i64..8, 0i64..6, small_string()), 1..30),
        delete_fraction in 0usize..3,
        update_price in 0i64..100,
    ) {
        let mut db = build_db(&inserts, &[]);
        // Random-ish mutations.
        db.execute(&format!("DELETE FROM R WHERE a < {delete_fraction}")).unwrap();
        db.execute(&format!("UPDATE R SET a = {update_price} WHERE b = 3")).unwrap();

        // Replay into a fresh database.
        let mut replica = Database::new();
        replica.execute("CREATE TABLE R (a INT, b INT, s TEXT)").unwrap();
        for rec in db.update_log().pull_since(0) {
            match &rec.op {
                cacheportal_db::LogOp::Insert(row) => {
                    replica.insert_row(&rec.table, row.clone()).unwrap();
                }
                cacheportal_db::LogOp::Delete(row) => {
                    prop_assert!(replica.delete_row_equal(&rec.table, row).unwrap(),
                        "log delete must find its row");
                }
            }
        }
        let mut orig = db.query("SELECT * FROM R").unwrap().rows;
        let mut rep = replica.query("SELECT * FROM R").unwrap().rows;
        orig.sort();
        rep.sort();
        prop_assert_eq!(orig, rep);
    }

    /// ORDER BY produces a sequence sorted under the engine's total order.
    #[test]
    fn order_by_is_sorted(
        r_rows in prop::collection::vec((0i64..8, 0i64..6, small_string()), 0..40),
        asc in any::<bool>(),
    ) {
        let db = build_db(&r_rows, &[]);
        let sql = format!("SELECT a FROM R ORDER BY a {}", if asc { "ASC" } else { "DESC" });
        let rows = db.query(&sql).unwrap().rows;
        for w in rows.windows(2) {
            if asc {
                prop_assert!(w[0][0] <= w[1][0]);
            } else {
                prop_assert!(w[0][0] >= w[1][0]);
            }
        }
    }

    /// DISTINCT output has no duplicates and covers the same value set.
    #[test]
    fn distinct_is_set_semantics(
        r_rows in prop::collection::vec((0i64..4, 0i64..6, small_string()), 0..40),
    ) {
        let db = build_db(&r_rows, &[]);
        let rows = db.query("SELECT DISTINCT a FROM R").unwrap().rows;
        let as_set: std::collections::HashSet<_> = rows.iter().cloned().collect();
        prop_assert_eq!(as_set.len(), rows.len(), "no duplicates");
        let want: std::collections::HashSet<i64> = r_rows.iter().map(|(a, _, _)| *a).collect();
        prop_assert_eq!(rows.len(), want.len());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// LIMIT keeps a prefix of the unlimited result: with and without ORDER
    /// BY (storage order), with DISTINCT, and with ties on the sort key —
    /// which the full-row tie-break settles the same way whatever order the
    /// rows were inserted in.
    #[test]
    fn limit_keeps_a_prefix_of_the_unlimited_result(
        r_rows in prop::collection::vec((0i64..4, 0i64..3, small_string()), 0..30),
        s_rows in prop::collection::vec((0i64..3, 0i64..4), 0..10),
        n in 0u64..12,
        a_lit in 0i64..4,
    ) {
        let db = build_db(&r_rows, &s_rows);
        let mut reversed: Vec<_> = r_rows.clone();
        reversed.reverse();
        let shuffled = build_db(&reversed, &s_rows);
        for sql in [
            format!("SELECT * FROM R WHERE a >= {a_lit}"),
            "SELECT s, b FROM R ORDER BY a".to_string(),
            "SELECT a FROM R ORDER BY b DESC, s".to_string(),
            "SELECT DISTINCT a FROM R".to_string(),
            "SELECT DISTINCT b, s FROM R ORDER BY s DESC".to_string(),
            "SELECT R.a, S.c FROM R, S WHERE R.b = S.b ORDER BY S.c".to_string(),
            "SELECT b, COUNT(*) FROM R GROUP BY b ORDER BY b DESC".to_string(),
        ] {
            let all = db.query(&sql).unwrap();
            let limited = db.query(&format!("{sql} LIMIT {n}")).unwrap();
            prop_assert_eq!(&limited.columns, &all.columns);
            prop_assert_eq!(&limited.rows[..], &all.rows[..all.rows.len().min(n as usize)], "{}", sql);
            if sql.contains("ORDER BY") {
                prop_assert_eq!(
                    shuffled.query(&format!("{sql} LIMIT {n}")).unwrap(),
                    limited,
                    "{} LIMIT {}",
                    sql,
                    n
                );
            }
        }
    }

    /// A multi-row INSERT leaves exactly the state that putting the same
    /// rows through `insert_row` one at a time does: slots in the same
    /// order, the same index lookups, the same update-log images and LSNs.
    #[test]
    fn multi_row_insert_equals_rows_inserted_one_at_a_time(
        rows in prop::collection::vec((int_cell(), float_cell(), text_cell()), 1..12),
        shape in 0usize..3,
    ) {
        let ddl = "CREATE TABLE T (i INT, f FLOAT, s TEXT, INDEX(i), INDEX(s), RANGE INDEX(f))";
        let (mut bulk, mut single) = (Database::new(), Database::new());
        bulk.execute(ddl).unwrap();
        single.execute(ddl).unwrap();
        // The column list names every column, permuted, or leaves `f` out.
        let (columns, order): (&str, &[usize]) = match shape {
            0 => ("", &[0, 1, 2]),
            1 => (" (s, f, i)", &[2, 1, 0]),
            _ => (" (i, s)", &[0, 2]),
        };
        let values: Vec<String> = rows
            .iter()
            .map(|(i, f, s)| {
                let cells = [i, f, s];
                let literals: Vec<String> = order.iter().map(|&c| cells[c].to_sql_literal()).collect();
                format!("({})", literals.join(", "))
            })
            .collect();
        let sql = format!("INSERT INTO T{columns} VALUES {}", values.join(", "));
        prop_assert_eq!(bulk.execute(&sql).unwrap().affected(), rows.len(), "{}", sql);
        for (i, f, s) in &rows {
            let f = if shape == 2 { Value::Null } else { f.clone() };
            single.insert_row("T", vec![i.clone(), f, s.clone()]).unwrap();
        }

        prop_assert_eq!(bulk.update_log().pull_since(0), single.update_log().pull_since(0));
        prop_assert_eq!(bulk.high_water(), single.high_water());
        let (b, s) = (bulk.catalog().get("T").unwrap(), single.catalog().get("T").unwrap());
        prop_assert_eq!(b.scan().collect::<Vec<_>>(), s.scan().collect::<Vec<_>>());
        for (i, f, text) in &rows {
            prop_assert_eq!(b.index_lookup(0, i), s.index_lookup(0, i));
            prop_assert_eq!(b.index_lookup(2, text), s.index_lookup(2, text));
            let at = std::ops::Bound::Included(f);
            prop_assert_eq!(b.range_lookup(1, at, at), s.range_lookup(1, at, at));
        }
    }
}

fn int_cell() -> impl Strategy<Value = Value> {
    prop_oneof![1 => Just(Value::Null), 4 => (-50i64..50).prop_map(Value::Int)]
}

fn float_cell() -> impl Strategy<Value = Value> {
    prop_oneof![
        1 => Just(Value::Null),
        2 => (-20i64..20).prop_map(Value::Int),
        4 => (-20i64..20).prop_map(|q| Value::Float(q as f64 / 4.0)),
    ]
}

fn text_cell() -> impl Strategy<Value = Value> {
    prop_oneof![
        1 => Just(Value::Null),
        4 => prop::sample::select(vec!["", "x", "O'Hara", "''", "it's 'quoted'", "<&>", "héllo"])
            .prop_map(Value::from),
    ]
}

/// Aggregates over no rows: one row of COUNT 0 and NULLs without GROUP BY,
/// no rows with it — alone, behind a filter, and behind an empty join.
#[test]
fn aggregates_over_an_empty_match() {
    let db = build_db(&[(1, 1, "x".into()), (2, 2, "y".into())], &[(9, 9)]);
    for from_where in ["R WHERE a > 100", "R WHERE b = 5 AND a = 1", "R, S WHERE R.b = S.b"] {
        let r = db
            .query(&format!(
                "SELECT COUNT(*), COUNT(R.s), SUM(R.a), AVG(R.b), MIN(R.s), MAX(R.a) FROM {from_where}"
            ))
            .unwrap();
        let nulls = vec![Value::Null; 4];
        let want: Vec<Value> = [Value::Int(0), Value::Int(0)].into_iter().chain(nulls).collect();
        assert_eq!(r.rows, vec![want], "{from_where}");
        let grouped = db
            .query(&format!("SELECT R.b, COUNT(*) FROM {from_where} GROUP BY R.b"))
            .unwrap();
        assert!(grouped.rows.is_empty(), "{from_where}");
        let limited = db
            .query(&format!("SELECT COUNT(*) FROM {from_where} LIMIT 0"))
            .unwrap();
        assert!(limited.rows.is_empty());
    }
}
