//! Shape-aware verdict properties against a brute-force oracle, one suite
//! per query shape (TopK / Aggregate / LikeSeek / InList):
//!
//! * **Safety (zero staleness)**: recompute every registered instance before
//!   and after a random update batch; if the result changed, the sync
//!   report MUST name the instance's page. Shape rules are never allowed to
//!   produce a false NoImpact.
//! * **Precision (on ⊆ off)**: replay the same workload through two
//!   invalidators, shape rules on and off; the on-arm may only eject a
//!   subset of what the off-arm ejects.
//! * **Boundary crossing**: deterministic top-k cases — insert just below,
//!   at, and above the registered boundary.

use cacheportal_db::{Database, QueryResult};
use cacheportal_invalidator::{Invalidator, InvalidatorConfig};
use cacheportal_sniffer::QiUrlMap;
use cacheportal_web::PageKey;
use proptest::prelude::*;

fn build_db(rows: &[(i64, i64)]) -> Database {
    let mut db = Database::new();
    db.execute("CREATE TABLE R (g INT, v INT, s TEXT, INDEX(g))")
        .unwrap();
    for (g, v) in rows {
        db.execute(&format!("INSERT INTO R VALUES ({g}, {v}, 's{v}')"))
            .unwrap();
    }
    db
}

/// One registered instance per shape under test; `p` picks the parameter.
/// The last two are a TopK and an Aggregate type whose conjunct names a
/// column `R` lacks: they compile, then fail to analyse on every tuple.
fn instance_sql(kind: u8, p: i64) -> String {
    match kind % 7 {
        // TopK: bounded ordered page per group (k in 1..=3 from p).
        0 => format!(
            "SELECT g, v FROM R WHERE g = {} ORDER BY v DESC LIMIT {}",
            p % 5,
            1 + p.rem_euclid(3)
        ),
        // Grouped aggregate (deterministic order: GROUP BY ⊆ ORDER BY).
        1 => "SELECT g, COUNT(*), SUM(v) FROM R GROUP BY g ORDER BY g".to_string(),
        // Global aggregate over one group.
        2 => format!("SELECT COUNT(*), SUM(v) FROM R WHERE g = {}", p % 5),
        // LIKE with a literal prefix.
        3 => format!("SELECT g, v, s FROM R WHERE s LIKE 's{}%' ORDER BY g, v, s", p % 10),
        // IN-list over groups.
        4 => format!(
            "SELECT g, v FROM R WHERE g IN ({}, {}, 7) ORDER BY g, v",
            p % 5,
            (p + 2) % 5
        ),
        // TopK over a column that is not there.
        5 => format!("SELECT g, v FROM R WHERE gone = {} ORDER BY v DESC LIMIT 2", p % 5),
        // Aggregate, likewise.
        _ => format!("SELECT COUNT(*), SUM(v) FROM R WHERE gone = {}", p % 5),
    }
}

#[derive(Debug, Clone)]
enum Update {
    Insert(i64, i64),
    DeleteGroup(i64),
    /// Delete one exact row and reinsert it in the same batch: when the row
    /// existed exactly once this is value-preserving for every aggregate
    /// (net zero per group) — the workload that exercises the skip path.
    Touch(i64, i64),
}

fn update_strategy() -> impl Strategy<Value = Update> {
    prop_oneof![
        (0i64..5, 0i64..20).prop_map(|(g, v)| Update::Insert(g, v)),
        (0i64..5).prop_map(Update::DeleteGroup),
        (0i64..5, 0i64..20).prop_map(|(g, v)| Update::Touch(g, v)),
    ]
}

fn apply(db: &mut Database, u: &Update) {
    match u {
        Update::Insert(g, v) => {
            db.execute(&format!("INSERT INTO R VALUES ({g}, {v}, 's{v}')"))
                .unwrap();
        }
        Update::DeleteGroup(g) => {
            db.execute(&format!("DELETE FROM R WHERE g = {g}")).unwrap();
        }
        Update::Touch(g, v) => {
            db.execute(&format!("DELETE FROM R WHERE g = {g} AND v = {v}"))
                .unwrap();
            db.execute(&format!("INSERT INTO R VALUES ({g}, {v}, 's{v}')"))
                .unwrap();
        }
    }
}

fn new_invalidator(db: &Database, map: &QiUrlMap, shape_rules: bool) -> Invalidator {
    let config = InvalidatorConfig { shape_rules, ..InvalidatorConfig::default() };
    let mut inv = Invalidator::new(config);
    inv.start_from(db.high_water());
    inv.run_sync_point(db, map).unwrap();
    inv
}

/// Safety + precision for one shape class over randomized workloads. Both
/// arms consume the same database log through their own cursors.
fn run_shape_oracle(
    kind: u8,
    rows: Vec<(i64, i64)>,
    instances: Vec<i64>,
    batches: Vec<Vec<Update>>,
) -> Result<(), TestCaseError> {
    let mut db = build_db(&rows);
    let map = QiUrlMap::new();
    let mut queries: Vec<(PageKey, String)> = Vec::new();
    for (i, p) in instances.iter().enumerate() {
        let sql = instance_sql(kind, *p);
        let page = PageKey::raw(format!("page{i}"));
        map.insert(&sql, page.clone(), "s".into());
        queries.push((page, sql));
    }
    let mut inv_on = new_invalidator(&db, &map, true);
    let mut inv_off = new_invalidator(&db, &map, false);

    let table = |db: &Database| db.query("SELECT g, v, s FROM R ORDER BY g, v, s").unwrap();
    for batch in &batches {
        let before: Vec<Option<QueryResult>> =
            queries.iter().map(|(_, sql)| db.query(sql).ok()).collect();
        let table_before = table(&db);
        for u in batch {
            apply(&mut db, u);
        }
        let on = inv_on.run_sync_point(&db, &map).unwrap();
        let off = inv_off.run_sync_point(&db, &map).unwrap();
        let after: Vec<Option<QueryResult>> =
            queries.iter().map(|(_, sql)| db.query(sql).ok()).collect();
        let table_changed = table_before != table(&db);

        for (i, (page, sql)) in queries.iter().enumerate() {
            // A query that does not run cannot be recomputed: any change to
            // its table must eject its page.
            let changed = match (&before[i], &after[i]) {
                (Some(before), Some(after)) => before != after,
                _ => table_changed,
            };
            if changed {
                prop_assert!(
                    on.pages.contains(page),
                    "SAFETY violated (shape rules on): result of {sql} changed \
                     but {page} not named; batch {batch:?}"
                );
            }
        }
        for page in &on.pages {
            prop_assert!(
                off.pages.contains(page),
                "PRECISION violated: shape-on ejected {page} but shape-off \
                 kept it; batch {batch:?}"
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every shape class: verdicts are never falsely NoImpact, and the
    /// shape-aware arm never ejects more than the conventional arm.
    #[test]
    fn shape_verdicts_are_safe_and_subset_of_conventional(
        kind in 0u8..7,
        rows in prop::collection::vec((0i64..5, 0i64..20), 0..25),
        instances in prop::collection::vec(0i64..20, 1..6),
        batches in prop::collection::vec(
            prop::collection::vec(update_strategy(), 1..5),
            1..4,
        ),
    ) {
        run_shape_oracle(kind, rows, instances, batches)?;
    }
}

/// Deterministic top-k boundary crossing: insert just below, at, and above
/// the boundary, checking the verdict against the recompute oracle each
/// time.
#[test]
fn topk_boundary_crossing_below_at_above() {
    let mut db = build_db(&[(1, 40), (1, 30), (1, 5)]);
    let map = QiUrlMap::new();
    let sql = "SELECT g, v FROM R WHERE g = 1 ORDER BY v DESC LIMIT 2";
    let page = PageKey::raw("topk");
    map.insert(sql, page.clone(), "s".into());
    let mut inv = new_invalidator(&db, &map, true);

    // Just below the boundary (30): top-2 unchanged, page stays cached.
    let before = db.query(sql).unwrap();
    db.execute("INSERT INTO R VALUES (1, 29, 's29')").unwrap();
    let r = inv.run_sync_point(&db, &map).unwrap();
    assert_eq!(before, db.query(sql).unwrap(), "oracle: result unchanged");
    assert!(r.pages.is_empty(), "below-boundary insert must not eject");
    assert_eq!(r.shape_topk_skipped, 1);

    // At the boundary (ties conservative): ejected even though the engine
    // keeps the earlier row — a tie cannot be proven safe from the key.
    db.execute("INSERT INTO R VALUES (1, 30, 's30')").unwrap();
    let r = inv.run_sync_point(&db, &map).unwrap();
    assert!(r.pages.contains(&page), "tie with the boundary must eject");

    // Above the boundary: enters the top-2, result changes, must eject.
    let before = db.query(sql).unwrap();
    db.execute("INSERT INTO R VALUES (1, 50, 's50')").unwrap();
    let r = inv.run_sync_point(&db, &map).unwrap();
    assert_ne!(before, db.query(sql).unwrap(), "oracle: result changed");
    assert!(r.pages.contains(&page), "above-boundary insert must eject");
}

/// Fixed-seed precision regression (satellite): replay one workload per
/// shape with shape rules on vs off; the on-arm ejects a subset, with a
/// strict improvement on TopK and Aggregate (the shapes with decision
/// rules) and byte-identical ejects on LIKE/IN (index tiers only skip
/// work, never change verdicts).
#[test]
fn precision_regression_per_shape() {
    // (kind, instance params, workload): each workload contains at least
    // one update the shape rule can prove harmless.
    let shapes: [(u8, Vec<i64>, Vec<Update>, bool); 6] = [
        // TopK: k=2 over group 1; the (1,2) insert is far below the
        // boundary and the touch of (1,19) is invisible to the top-2.
        (0, vec![1], vec![Update::Insert(1, 2), Update::Insert(0, 3)], true),
        // Aggregates (grouped + global): a touch nets to zero.
        (1, vec![0], vec![Update::Touch(2, 10)], true),
        // LIKE: no shape verdict — arms must agree exactly.
        (3, vec![2, 12], vec![Update::Insert(2, 12), Update::DeleteGroup(4)], false),
        // IN-list: same.
        (4, vec![1, 3], vec![Update::Insert(1, 9), Update::DeleteGroup(3)], false),
        // TopK and Aggregate types that do not analyse: both arms eject
        // every instance as a bind failure.
        (5, vec![1], vec![Update::Insert(1, 2)], false),
        (6, vec![0, 2], vec![Update::Touch(2, 10)], false),
    ];
    for (kind, params, workload, expect_strict) in shapes {
        let mut db = build_db(&[(0, 7), (1, 40), (1, 30), (2, 10), (3, 9), (4, 1)]);
        let map = QiUrlMap::new();
        for (i, p) in params.iter().enumerate() {
            map.insert(
                &instance_sql(kind, *p),
                PageKey::raw(format!("k{kind}p{i}")),
                "s".into(),
            );
        }
        let mut inv_on = new_invalidator(&db, &map, true);
        let mut inv_off = new_invalidator(&db, &map, false);
        for u in &workload {
            apply(&mut db, u);
        }
        let on = inv_on.run_sync_point(&db, &map).unwrap();
        let off = inv_off.run_sync_point(&db, &map).unwrap();
        if kind >= 5 {
            assert_eq!(on.bind_failures, params.len() as u64, "shape {kind}: {:?}", on.verdicts);
            assert_eq!(on.pages.len(), params.len(), "shape {kind}");
        }
        assert!(
            on.pages.is_subset(&off.pages),
            "shape {kind}: on-arm must eject a subset (on {:?}, off {:?})",
            on.pages,
            off.pages
        );
        if expect_strict {
            assert!(
                on.pages.len() < off.pages.len(),
                "shape {kind}: expected a strict precision improvement \
                 (on {:?}, off {:?})",
                on.pages,
                off.pages
            );
        } else {
            assert_eq!(
                on.pages, off.pages,
                "shape {kind}: index-tier shapes must not change verdicts"
            );
        }
    }
}

/// A value-preserving aggregate batch is skipped, but the skipped pages are
/// reported in `netted_pages` so the orchestrator can guard-eject any of
/// them admitted mid-window (the endpoint-states proof does not cover pages
/// generated between the mutations that cancel out). With shape rules off
/// there is no netting shortcut and nothing to report.
#[test]
fn netted_aggregate_batches_are_reported_for_the_guard() {
    let mut db = build_db(&[(0, 5)]);
    let map = QiUrlMap::new();
    let sql = "SELECT COUNT(*), SUM(v) FROM R WHERE g = 0";
    let page = PageKey::raw("agg");
    map.insert(sql, page.clone(), "s".into());
    let mut inv_on = new_invalidator(&db, &map, true);
    let mut inv_off = new_invalidator(&db, &map, false);

    // Insert + delete of the same row inside one window: net zero per
    // group, so the aggregate rule keeps the page.
    db.execute("INSERT INTO R VALUES (0, 7, 's7')").unwrap();
    db.execute("DELETE FROM R WHERE g = 0 AND v = 7").unwrap();

    let on = inv_on.run_sync_point(&db, &map).unwrap();
    assert!(on.pages.is_empty(), "netted batch must not eject");
    assert_eq!(on.shape_agg_skipped, 1);
    assert!(
        on.netted_pages.contains(&page),
        "the kept page must be reported for the mid-window guard: {:?}",
        on.netted_pages
    );

    let off = inv_off.run_sync_point(&db, &map).unwrap();
    assert!(off.netted_pages.is_empty(), "no shortcut, nothing to guard");

    // A batch the rule must eject reports the page as ejected, not netted.
    db.execute("INSERT INTO R VALUES (0, 9, 's9')").unwrap();
    let on = inv_on.run_sync_point(&db, &map).unwrap();
    assert!(on.pages.contains(&page));
    assert!(on.netted_pages.is_empty(), "ejected pages are filtered out");
}
