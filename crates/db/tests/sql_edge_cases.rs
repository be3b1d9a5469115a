//! Engine edge cases: empty relations, NULL-heavy data, limits, self-joins,
//! aliasing, and error paths — the corners a downstream user will hit first.

use cacheportal_db::{Database, DbError, Value};

fn empty_db() -> Database {
    let mut db = Database::new();
    db.execute("CREATE TABLE t (a INT, b FLOAT, s TEXT, INDEX(a), RANGE INDEX(b))")
        .unwrap();
    db
}

#[test]
fn queries_over_empty_tables() {
    let mut db = empty_db();
    assert!(db.query("SELECT * FROM t").unwrap().rows.is_empty());
    assert!(db
        .query("SELECT * FROM t WHERE a = 1 AND b < 2.0")
        .unwrap()
        .rows
        .is_empty());
    assert_eq!(
        db.query("SELECT COUNT(*), SUM(a), MIN(s) FROM t").unwrap().rows,
        vec![vec![Value::Int(0), Value::Null, Value::Null]]
    );
    assert!(db
        .query("SELECT a, COUNT(*) FROM t GROUP BY a")
        .unwrap()
        .rows
        .is_empty());
    // Joining two empty tables, and an empty with itself.
    db.execute("CREATE TABLE u (a INT)").unwrap();
    assert!(db
        .query("SELECT * FROM t, u WHERE t.a = u.a")
        .unwrap()
        .rows
        .is_empty());
    assert!(db
        .query("SELECT x.a FROM t x, t y WHERE x.a = y.a")
        .unwrap()
        .rows
        .is_empty());
}

#[test]
fn null_heavy_semantics() {
    let mut db = empty_db();
    db.execute("INSERT INTO t VALUES (NULL, NULL, NULL), (1, 1.5, 'x'), (NULL, 2.5, 'y')")
        .unwrap();
    // NULLs never satisfy comparisons…
    assert_eq!(db.query("SELECT * FROM t WHERE a = a").unwrap().rows.len(), 1);
    assert_eq!(db.query("SELECT * FROM t WHERE a <> 99").unwrap().rows.len(), 1);
    // …but IS NULL sees them.
    assert_eq!(
        db.query("SELECT * FROM t WHERE a IS NULL").unwrap().rows.len(),
        2
    );
    assert_eq!(
        db.query("SELECT * FROM t WHERE a IS NOT NULL").unwrap().rows.len(),
        1
    );
    // Aggregates skip NULLs; COUNT(col) vs COUNT(*).
    let r = db.query("SELECT COUNT(*), COUNT(a), AVG(b) FROM t").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(3));
    assert_eq!(r.rows[0][1], Value::Int(1));
    assert_eq!(r.rows[0][2], Value::Float(2.0));
    // NULL keys never hash-join.
    db.execute("CREATE TABLE u (a INT)").unwrap();
    db.execute("INSERT INTO u VALUES (NULL), (1)").unwrap();
    assert_eq!(
        db.query("SELECT * FROM t, u WHERE t.a = u.a").unwrap().rows.len(),
        1
    );
    // GROUP BY groups NULLs together (grouping, not predicate, semantics).
    let r = db.query("SELECT a, COUNT(*) FROM t GROUP BY a ORDER BY a").unwrap();
    assert_eq!(r.rows.len(), 2);
    assert_eq!(r.rows[0], vec![Value::Null, Value::Int(2)]);
}

#[test]
fn limit_and_distinct_corners() {
    let mut db = empty_db();
    db.execute("INSERT INTO t VALUES (1, 1.0, 'x'), (1, 1.0, 'x'), (2, 2.0, 'y')")
        .unwrap();
    assert!(db.query("SELECT * FROM t LIMIT 0").unwrap().rows.is_empty());
    assert_eq!(db.query("SELECT * FROM t LIMIT 99").unwrap().rows.len(), 3);
    assert_eq!(db.query("SELECT DISTINCT a, s FROM t").unwrap().rows.len(), 2);
    assert_eq!(
        db.query("SELECT DISTINCT a FROM t ORDER BY a DESC LIMIT 1")
            .unwrap()
            .rows,
        vec![vec![Value::Int(2)]]
    );
}

#[test]
fn order_by_unprojected_and_expression_keys() {
    let mut db = empty_db();
    db.execute("INSERT INTO t VALUES (3, 1.0, 'c'), (1, 3.0, 'a'), (2, 2.0, 'b')")
        .unwrap();
    // Sort key not in the projection.
    let r = db.query("SELECT s FROM t ORDER BY a").unwrap();
    let got: Vec<String> = r.rows.iter().map(|row| row[0].to_string()).collect();
    assert_eq!(got, vec!["a", "b", "c"]);
    // Expression sort key.
    let r = db.query("SELECT a FROM t ORDER BY (0 - a)").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(3));
    // Multiple keys with mixed direction.
    db.execute("INSERT INTO t VALUES (1, 9.0, 'z')").unwrap();
    let r = db.query("SELECT a, s FROM t ORDER BY a ASC, s DESC").unwrap();
    assert_eq!(r.rows[0], vec![Value::Int(1), Value::Str("z".into())]);
}

#[test]
fn self_join_with_range_predicates() {
    let mut db = empty_db();
    for (a, b) in [(1, 1.0), (2, 2.0), (3, 3.0)] {
        db.execute(&format!("INSERT INTO t VALUES ({a}, {b}, 's')")).unwrap();
    }
    // Pairs x < y: 3 of them.
    let r = db
        .query("SELECT x.a, y.a FROM t x, t y WHERE x.a < y.a ORDER BY x.a, y.a")
        .unwrap();
    assert_eq!(r.rows.len(), 3);
    assert_eq!(r.rows[0], vec![Value::Int(1), Value::Int(2)]);
    // Duplicate binding names must be rejected, aliased reuse allowed.
    assert!(db.query("SELECT * FROM t, t").is_err());
    assert!(db.query("SELECT * FROM t a, t b").is_ok());
}

#[test]
fn parameter_binding_corners() {
    let mut db = empty_db();
    db.execute("INSERT INTO t VALUES (1, 1.0, 'x')").unwrap();
    // Same parameter used twice.
    let r = db
        .query_with_params(
            "SELECT * FROM t WHERE a = $1 OR LENGTH(s) = $1",
            &[Value::Int(1)],
        )
        .unwrap();
    assert_eq!(r.rows.len(), 1);
    // `?` placeholders number left-to-right.
    let r = db
        .query_with_params(
            "SELECT * FROM t WHERE a = ? AND s = ?",
            &[Value::Int(1), "x".into()],
        )
        .unwrap();
    assert_eq!(r.rows.len(), 1);
    // NULL as a bound parameter: comparison yields no rows.
    let r = db
        .query_with_params("SELECT * FROM t WHERE a = $1", &[Value::Null])
        .unwrap();
    assert!(r.rows.is_empty());
    // Missing binding is a typed error.
    assert!(matches!(
        db.query_with_params("SELECT * FROM t WHERE a = $2", &[Value::Int(1)]),
        Err(DbError::UnboundParameter(2))
    ));
}

#[test]
fn update_and_delete_corners() {
    let mut db = empty_db();
    db.execute("INSERT INTO t VALUES (1, 1.0, 'x'), (2, 2.0, 'y')").unwrap();
    // UPDATE with no matches affects nothing and logs nothing new.
    let hw = db.high_water();
    assert_eq!(
        db.execute("UPDATE t SET a = 9 WHERE a = 42").unwrap().affected(),
        0
    );
    assert_eq!(db.high_water(), hw);
    // Self-referential assignment.
    db.execute("UPDATE t SET a = (a + a) WHERE a = 2").unwrap();
    assert_eq!(
        db.query("SELECT a FROM t ORDER BY a DESC").unwrap().rows[0][0],
        Value::Int(4)
    );
    // Setting a column to NULL.
    db.execute("UPDATE t SET s = NULL WHERE a = 1").unwrap();
    assert_eq!(
        db.query("SELECT COUNT(*) FROM t WHERE s IS NULL").unwrap().rows[0][0],
        Value::Int(1)
    );
    // DELETE everything twice.
    assert_eq!(db.execute("DELETE FROM t").unwrap().affected(), 2);
    assert_eq!(db.execute("DELETE FROM t").unwrap().affected(), 0);
}

#[test]
fn float_int_coercion_in_indexes_and_predicates() {
    let mut db = empty_db();
    db.execute("INSERT INTO t VALUES (1, 2.0, 'x')").unwrap();
    // Hash index on INT column probed with a float-equal value.
    assert_eq!(
        db.query("SELECT * FROM t WHERE a = 1.0").unwrap().rows.len(),
        1
    );
    // Range index on FLOAT column probed with int bounds.
    assert_eq!(
        db.query("SELECT * FROM t WHERE b BETWEEN 2 AND 2").unwrap().rows.len(),
        1
    );
    assert_eq!(
        db.query("SELECT * FROM t WHERE b > 1").unwrap().rows.len(),
        1
    );
}

#[test]
fn drop_and_recreate_table() {
    let mut db = empty_db();
    db.execute("INSERT INTO t VALUES (1, 1.0, 'x')").unwrap();
    db.execute("DROP TABLE t").unwrap();
    assert!(matches!(
        db.query("SELECT * FROM t"),
        Err(DbError::UnknownTable(_))
    ));
    // Recreate with a different schema.
    db.execute("CREATE TABLE t (only INT)").unwrap();
    db.execute("INSERT INTO t VALUES (7)").unwrap();
    assert_eq!(db.query("SELECT only FROM t").unwrap().rows.len(), 1);
}

#[test]
fn conjuncts_over_no_table_and_inverted_ranges() {
    let mut db = empty_db();
    db.execute("INSERT INTO t VALUES (1, 1.5, 'x'), (2, 2.5, 'y')")
        .unwrap();
    // A constant conjunct filters like any other (polling queries carry them).
    assert!(db.query("SELECT * FROM t WHERE 1 = 0").unwrap().rows.is_empty());
    let r = db.query("SELECT * FROM t WHERE 1 = 0 OR a = 2").unwrap();
    assert_eq!(r.rows.len(), 1);
    let r = db.query("SELECT * FROM t x, t y WHERE 2 > 1 AND x.a = y.a").unwrap();
    assert_eq!(r.rows.len(), 2);
    // An inverted BETWEEN on a range-indexed column is empty, not a panic.
    let r = db.query("SELECT * FROM t WHERE b BETWEEN 3.0 AND 1.0").unwrap();
    assert!(r.rows.is_empty());
}
