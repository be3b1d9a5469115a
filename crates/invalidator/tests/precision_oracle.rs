//! Invalidator-level property tests against a brute-force oracle: for every
//! registered query instance, recompute the result before and after a
//! random update batch.
//!
//! * **Safety**: if the result changed, the instance's pages MUST be named
//!   by the sync report (any policy).
//! * **Precision**: with the Exact policy and an insert-only batch, a named
//!   page's result MUST actually have changed (no over-invalidation).

use cacheportal_db::{Database, QueryResult};
use cacheportal_invalidator::{InvalidationPolicy, Invalidator, InvalidatorConfig};
use cacheportal_sniffer::QiUrlMap;
use cacheportal_web::PageKey;
use proptest::prelude::*;

/// Build the database; returns it with seeding already consumed.
fn build_db(r_rows: &[(i64, i64)], s_rows: &[(i64, i64)]) -> Database {
    let mut db = Database::new();
    db.execute("CREATE TABLE R (g INT, v INT, INDEX(g))").unwrap();
    db.execute("CREATE TABLE S (g INT, w INT, INDEX(g))").unwrap();
    for (g, v) in r_rows {
        db.insert_row("R", vec![(*g).into(), (*v).into()]).unwrap();
    }
    for (g, w) in s_rows {
        db.insert_row("S", vec![(*g).into(), (*w).into()]).unwrap();
    }
    db
}

/// The instance SQL shapes under test; `param` fills the `{}`.
fn instance_sql(kind: u8, param: i64) -> String {
    match kind % 4 {
        0 => format!("SELECT g, v FROM R WHERE g = {param} ORDER BY v"),
        1 => format!("SELECT g, w FROM S WHERE w < {param} ORDER BY g, w"),
        2 => format!(
            "SELECT R.v, S.w FROM R, S WHERE R.g = S.g AND R.v > {param} ORDER BY R.v, S.w"
        ),
        _ => format!("SELECT COUNT(*) FROM R WHERE v >= {param}"),
    }
}

#[derive(Debug, Clone)]
enum Update {
    InsertR(i64, i64),
    InsertS(i64, i64),
    DeleteRg(i64),
    DeleteSg(i64),
}

fn update_strategy() -> impl Strategy<Value = Update> {
    prop_oneof![
        (0i64..5, 0i64..20).prop_map(|(g, v)| Update::InsertR(g, v)),
        (0i64..5, 0i64..20).prop_map(|(g, w)| Update::InsertS(g, w)),
        (0i64..5).prop_map(Update::DeleteRg),
        (0i64..5).prop_map(Update::DeleteSg),
    ]
}

fn insert_only_strategy() -> impl Strategy<Value = Update> {
    prop_oneof![
        (0i64..5, 0i64..20).prop_map(|(g, v)| Update::InsertR(g, v)),
        (0i64..5, 0i64..20).prop_map(|(g, w)| Update::InsertS(g, w)),
    ]
}

fn apply(db: &mut Database, u: &Update) {
    match u {
        Update::InsertR(g, v) => {
            db.execute(&format!("INSERT INTO R VALUES ({g}, {v})")).unwrap();
        }
        Update::InsertS(g, w) => {
            db.execute(&format!("INSERT INTO S VALUES ({g}, {w})")).unwrap();
        }
        Update::DeleteRg(g) => {
            db.execute(&format!("DELETE FROM R WHERE g = {g}")).unwrap();
        }
        Update::DeleteSg(g) => {
            db.execute(&format!("DELETE FROM S WHERE g = {g}")).unwrap();
        }
    }
}

fn run_oracle(
    r_rows: Vec<(i64, i64)>,
    s_rows: Vec<(i64, i64)>,
    instances: Vec<(u8, i64)>,
    updates: Vec<Update>,
    policy: InvalidationPolicy,
    check_precision: bool,
) -> Result<(), TestCaseError> {
    let mut db = build_db(&r_rows, &s_rows);
    let map = QiUrlMap::new();
    let mut queries: Vec<(PageKey, String)> = Vec::new();
    for (i, (kind, param)) in instances.iter().enumerate() {
        let sql = instance_sql(*kind, *param);
        let page = PageKey::raw(format!("page{i}"));
        map.insert(&sql, page.clone(), "s".into());
        queries.push((page, sql));
    }
    let mut cfg = InvalidatorConfig::default();
    cfg.policy.default_policy = policy;
    let mut inv = Invalidator::new(cfg);
    inv.start_from(db.high_water());
    // Register everything (no updates yet).
    inv.run_sync_point(&db, &map).unwrap();

    // Snapshot, mutate, snapshot.
    let before: Vec<QueryResult> = queries
        .iter()
        .map(|(_, sql)| db.query(sql).unwrap())
        .collect();
    for u in &updates {
        apply(&mut db, u);
    }
    let report = inv.run_sync_point(&db, &map).unwrap();
    let after: Vec<QueryResult> = queries
        .iter()
        .map(|(_, sql)| db.query(sql).unwrap())
        .collect();

    for (i, (page, sql)) in queries.iter().enumerate() {
        let changed = before[i] != after[i];
        if changed {
            prop_assert!(
                report.pages.contains(page),
                "SAFETY violated under {policy:?}: result of {sql} changed but {page} not named"
            );
        } else if check_precision {
            prop_assert!(
                !report.pages.contains(page),
                "PRECISION violated: {sql} unchanged but {page} named (insert-only batch)"
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Safety for every policy under arbitrary insert/delete batches.
    #[test]
    fn changed_results_are_always_named(
        r_rows in prop::collection::vec((0i64..5, 0i64..20), 0..25),
        s_rows in prop::collection::vec((0i64..5, 0i64..20), 0..25),
        instances in prop::collection::vec((0u8..4, 0i64..20), 1..8),
        updates in prop::collection::vec(update_strategy(), 1..12),
        policy_pick in 0u8..3,
    ) {
        let policy = [
            InvalidationPolicy::Exact,
            InvalidationPolicy::Conservative,
            InvalidationPolicy::TableLevel,
        ][policy_pick as usize];
        run_oracle(r_rows, s_rows, instances, updates, policy, false)?;
    }

    /// Precision of Exact for insert-only batches: named ⇒ changed.
    #[test]
    fn exact_names_only_changed_results_for_inserts(
        r_rows in prop::collection::vec((0i64..5, 0i64..20), 0..25),
        s_rows in prop::collection::vec((0i64..5, 0i64..20), 0..25),
        instances in prop::collection::vec((0u8..4, 0i64..20), 1..8),
        updates in prop::collection::vec(insert_only_strategy(), 1..12),
    ) {
        run_oracle(
            r_rows,
            s_rows,
            instances,
            updates,
            InvalidationPolicy::Exact,
            true,
        )?;
    }
}
