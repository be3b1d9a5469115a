//! Index invariance: which hash and range indexes exist may change how much
//! work a statement does, never what it returns. The same random tables are
//! built twice, with and without indexes; every SELECT must give the same
//! rows in the same order, and every UPDATE/DELETE/rollback the same table
//! contents (slot for slot) and the same update-log records.
//!
//! The engine is shared by the portal and by the oracles that check it, so a
//! row-order change would hide itself there; this is the independent check.

use cacheportal_db::{Database, Value};
use proptest::prelude::*;

/// `A(k, f, v)`, `B(k, f, w)`, `C(k, x)` and an always-empty `E(k)`. The
/// FLOAT columns hold Ints and Floats (cross-type join keys), every key
/// column holds NULLs and duplicates.
fn build(indexed: bool, a: &[[Value; 3]], b: &[[Value; 3]], c: &[[Value; 2]]) -> Database {
    let ix = |clauses: &'static str| if indexed { clauses } else { "" };
    let mut db = Database::new();
    for ddl in [
        format!(
            "CREATE TABLE A (k INT, f FLOAT, v INT{})",
            ix(", INDEX(k), INDEX(f), RANGE INDEX(v)")
        ),
        format!(
            "CREATE TABLE B (k INT, f FLOAT, w INT{})",
            ix(", INDEX(f), INDEX(k), RANGE INDEX(w)")
        ),
        format!(
            "CREATE TABLE C (k INT, x INT{})",
            ix(", INDEX(k), RANGE INDEX(k)")
        ),
        format!("CREATE TABLE E (k INT{})", ix(", INDEX(k)")),
    ] {
        db.execute(&ddl).unwrap();
    }
    for row in a {
        db.insert_row("A", row.to_vec()).unwrap();
    }
    for row in b {
        db.insert_row("B", row.to_vec()).unwrap();
    }
    for row in c {
        db.insert_row("C", row.to_vec()).unwrap();
    }
    db
}

fn int_key() -> impl Strategy<Value = Value> {
    prop_oneof![1 => Just(Value::Null), 6 => (0i64..5).prop_map(Value::Int)]
}

fn float_key() -> impl Strategy<Value = Value> {
    prop_oneof![
        1 => Just(Value::Null),
        3 => (0i64..4).prop_map(Value::Int),
        3 => (0i64..8).prop_map(|h| Value::Float(h as f64 / 2.0)),
    ]
}

fn rows3() -> impl Strategy<Value = Vec<[Value; 3]>> {
    prop::collection::vec(
        (int_key(), float_key(), int_key()).prop_map(|(k, f, v)| [k, f, v]),
        0..14,
    )
}

/// SELECTs over one, two and three tables; `l` and `m` are literals.
fn selects(l: i64, m: i64) -> Vec<String> {
    vec![
        format!("SELECT * FROM A WHERE k = {l}"),
        format!("SELECT * FROM A WHERE f = {l} AND v <> {m}"),
        format!("SELECT * FROM A WHERE v < {l}"),
        format!("SELECT * FROM A WHERE v BETWEEN {l} AND {m} AND k = {m}"),
        format!("SELECT * FROM C WHERE k >= {l}"),
        format!("SELECT * FROM A WHERE k = NULL OR {l} = {m}"),
        "SELECT * FROM A, B WHERE A.k = B.k".into(),
        // The /product shape: constant on one side of an equi-join.
        format!("SELECT * FROM A, B WHERE A.k = {l} AND A.k = B.k"),
        format!("SELECT * FROM A, B WHERE B.k = A.k AND {l} = B.k AND B.w > {m}"),
        // FROM order reversed; Int/Float cross-type keys.
        format!("SELECT * FROM B, A WHERE A.k = B.k AND A.v < {l}"),
        "SELECT * FROM A, B WHERE A.k = B.f".into(),
        format!("SELECT * FROM B, A WHERE A.f = B.f AND A.f = {l}.5"),
        // Three tables, constants crossing two equalities; empty inner side.
        format!("SELECT * FROM A, B, C WHERE A.k = B.k AND B.k = C.k AND A.v < {l}"),
        format!("SELECT * FROM C, B, A WHERE C.k = {l} AND C.k = B.k AND B.f = A.f"),
        "SELECT * FROM A, E WHERE A.k = E.k".into(),
        // Aliased self-join; a join with a residual conjunct; an aggregate.
        format!("SELECT * FROM A a1, A a2 WHERE a1.k = a2.k AND a1.v = {l}"),
        format!("SELECT * FROM A, C WHERE A.k = C.k AND (A.v = {l} OR C.x = {m})"),
        format!("SELECT A.k, COUNT(*) FROM A, B WHERE A.k = B.k AND B.w < {l} GROUP BY A.k"),
        format!("SELECT B.w FROM A, B WHERE A.k = B.k ORDER BY B.w LIMIT {m}"),
        // LIMIT without ORDER BY keeps storage order; with it, ties on the
        // key (v, f and k repeat) are settled by the whole row; DISTINCT
        // comes before the cut.
        format!("SELECT * FROM A WHERE k = {l} OR v > {m} LIMIT {m}"),
        format!("SELECT * FROM A, B WHERE A.f = B.f LIMIT {l}"),
        format!("SELECT v, k FROM A ORDER BY v DESC LIMIT {m}"),
        format!("SELECT DISTINCT k FROM A WHERE v < {l} ORDER BY k LIMIT {m}"),
        format!("SELECT DISTINCT f FROM B LIMIT {l}"),
        // Aggregates over an empty match.
        format!("SELECT COUNT(*), SUM(v), MIN(f), MAX(k), AVG(v) FROM A WHERE k = {l} AND v > 9"),
        "SELECT A.k, COUNT(*), SUM(A.v) FROM A, E WHERE A.k = E.k GROUP BY A.k".into(),
    ]
}

/// One DML step; `rollback` runs it (and a second delete) in a transaction
/// that is rolled back, which re-appends the deleted rows at new slots.
#[derive(Debug, Clone)]
struct Step {
    sql: String,
    rollback: bool,
}

fn step() -> impl Strategy<Value = Step> {
    let sql = (0usize..7, 0i64..5, 0i64..5).prop_map(|(shape, l, m)| match shape {
        0 => format!("UPDATE A SET v = {m} WHERE k = {l}"),
        1 => format!("UPDATE A SET k = {m}, f = {l} WHERE v < {l}"),
        2 => format!("UPDATE B SET f = {m}.5 WHERE f = {l}"),
        3 => format!("DELETE FROM B WHERE k = {l}"),
        4 => format!("DELETE FROM A WHERE v >= {l} AND f = {m}"),
        5 => format!("DELETE FROM C WHERE k BETWEEN {l} AND {m}"),
        _ => format!("UPDATE C SET x = x + 1 WHERE k = {l} OR x = {m}"),
    });
    (sql, 0u8..3).prop_map(|(sql, die)| Step {
        sql,
        rollback: die == 0,
    })
}

fn apply(db: &mut Database, step: &Step) -> usize {
    if !step.rollback {
        return db.execute(&step.sql).unwrap().affected();
    }
    let mut tx = db.begin();
    let n = tx.execute(&step.sql).unwrap().affected();
    tx.execute("DELETE FROM A WHERE k = 1").unwrap();
    tx.rollback().unwrap();
    n
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn results_do_not_depend_on_indexes(
        a in rows3(),
        b in rows3(),
        c in prop::collection::vec((int_key(), int_key()).prop_map(|(k, x)| [k, x]), 0..8),
        steps in prop::collection::vec(step(), 0..6),
        (l, m) in (0i64..5, 0i64..5),
    ) {
        let mut plain = build(false, &a, &b, &c);
        let mut indexed = build(true, &a, &b, &c);
        for s in &steps {
            prop_assert_eq!(apply(&mut plain, s), apply(&mut indexed, s), "{:?}", s);
        }
        prop_assert_eq!(plain.update_log().pull_since(0), indexed.update_log().pull_since(0));
        for table in ["A", "B", "C"] {
            let slots = |db: &Database| -> Vec<_> {
                db.catalog().get(table).unwrap().scan().map(|(rid, row)| (rid, row.clone())).collect()
            };
            prop_assert_eq!(slots(&plain), slots(&indexed), "table {}", table);
        }
        for sql in selects(l, m) {
            prop_assert_eq!(plain.query(&sql).unwrap(), indexed.query(&sql).unwrap(), "{}", sql);
        }
        // The index-free run must not have touched an index; the other must
        // have found a use for one.
        prop_assert_eq!(plain.stats().exec.index_probes, 0);
        prop_assert!(indexed.stats().exec.seq_scans < plain.stats().exec.seq_scans);
    }
}
