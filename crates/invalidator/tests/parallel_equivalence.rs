//! Property tests for the sharded analysis pipeline: a sync point run with
//! `workers = 4` must produce *identical* invalidation outcomes to the
//! sequential path — same verdicts in the same order, same ejected pages,
//! and same poll statistics (the dedup cache guarantees exactly-once poll
//! execution across shards, so even Issued/FromCache attribution agrees).

use cacheportal_db::Database;
use cacheportal_invalidator::{
    InvalidationReport, Invalidator, InvalidatorConfig, PolicyConfig,
};
use cacheportal_sniffer::QiUrlMap;
use cacheportal_web::PageKey;
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Update {
    InsertR(i64, i64),
    InsertS(i64, i64),
    InsertT(i64, i64),
    DeleteRg(i64),
    DeleteSg(i64),
}

fn update_strategy() -> impl Strategy<Value = Update> {
    prop_oneof![
        (0i64..5, 0i64..20).prop_map(|(g, v)| Update::InsertR(g, v)),
        (0i64..5, 0i64..20).prop_map(|(g, w)| Update::InsertS(g, w)),
        (0i64..5, 0i64..20).prop_map(|(g, u)| Update::InsertT(g, u)),
        (0i64..5).prop_map(Update::DeleteRg),
        (0i64..5).prop_map(Update::DeleteSg),
    ]
}

/// The instance SQL shapes; joins force residual polling queries, which is
/// where the cross-shard dedup cache actually gets exercised. The last
/// names a column `S` lacks: it registers and compiles, then fails to
/// analyse on every tuple, which must be a `bind-failure` verdict at any
/// worker count.
fn instance_sql(kind: u8, param: i64) -> String {
    match kind % 5 {
        0 => format!("SELECT R.v, S.w FROM R, S WHERE R.g = S.g AND R.v < {param}"),
        1 => format!("SELECT S.w, T.u FROM S, T WHERE S.g = T.g AND S.w < {param}"),
        2 => format!("SELECT R.v, T.u FROM R, T WHERE R.g = T.g AND T.u < {param}"),
        3 => format!("SELECT g, v FROM R WHERE v >= {param} ORDER BY g, v"),
        _ => format!("SELECT R.v, S.w FROM R, S WHERE R.g = S.g AND S.gone < {param}"),
    }
}

fn build_db(rows: &[(i64, i64)]) -> Database {
    let mut db = Database::new();
    db.execute("CREATE TABLE R (g INT, v INT)").unwrap();
    db.execute("CREATE TABLE S (g INT, w INT)").unwrap();
    db.execute("CREATE TABLE T (g INT, u INT)").unwrap();
    for (g, v) in rows {
        db.execute(&format!("INSERT INTO R VALUES ({g}, {v})")).unwrap();
        db.execute(&format!("INSERT INTO S VALUES ({g}, {v})")).unwrap();
        db.execute(&format!("INSERT INTO T VALUES ({g}, {v})")).unwrap();
    }
    db
}

fn apply(db: &mut Database, u: &Update) {
    match u {
        Update::InsertR(g, v) => {
            db.execute(&format!("INSERT INTO R VALUES ({g}, {v})")).unwrap();
        }
        Update::InsertS(g, w) => {
            db.execute(&format!("INSERT INTO S VALUES ({g}, {w})")).unwrap();
        }
        Update::InsertT(g, u) => {
            db.execute(&format!("INSERT INTO T VALUES ({g}, {u})")).unwrap();
        }
        Update::DeleteRg(g) => {
            db.execute(&format!("DELETE FROM R WHERE g = {g}")).unwrap();
        }
        Update::DeleteSg(g) => {
            db.execute(&format!("DELETE FROM S WHERE g = {g}")).unwrap();
        }
    }
}

/// Replay the identical workload at the given worker count and return the
/// sync report for the update batch.
fn run_with_workers(
    rows: &[(i64, i64)],
    instances: &[(u8, i64)],
    updates: &[Update],
    workers: usize,
) -> InvalidationReport {
    let mut db = build_db(rows);
    let map = QiUrlMap::new();
    for (i, (kind, param)) in instances.iter().enumerate() {
        map.insert(
            &instance_sql(*kind, *param),
            PageKey::raw(format!("page{i}")),
            "s".into(),
        );
    }
    let mut inv = Invalidator::new(InvalidatorConfig {
        policy: PolicyConfig::default(),
        workers,
        ..InvalidatorConfig::default()
    });
    inv.start_from(db.high_water());
    inv.run_sync_point(&db, &map).unwrap();
    for u in updates {
        apply(&mut db, u);
    }
    inv.run_sync_point(&db, &map).unwrap()
}

/// Everything the equivalence guarantee covers, in comparable form.
fn digest(report: &InvalidationReport) -> (Vec<String>, Vec<String>, String) {
    let verdicts: Vec<String> = report
        .verdicts
        .iter()
        .map(|v| {
            let mut pages: Vec<&str> = v.pages.iter().map(|p| p.as_str()).collect();
            pages.sort_unstable();
            format!(
                "{}|{:?}|{}|{pages:?}",
                v.type_sql,
                v.params,
                v.cause.kind.as_str()
            )
        })
        .collect();
    let mut pages: Vec<String> = report
        .pages
        .iter()
        .map(|p| p.as_str().to_string())
        .collect();
    pages.sort_unstable();
    let counters = format!(
        "issued={} from_cache={} from_index={} guard={} invalidated={} checked={} tuples={} consumed={}",
        report.polls.issued,
        report.polls.from_cache,
        report.polls.from_index,
        report.polls.delete_guard_hits,
        report.invalidated_instances,
        report.checked_instances,
        report.tuples_analyzed,
        report.records_consumed,
    );
    (verdicts, pages, counters)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// workers=4 ≡ workers=1: same verdicts (same order), same ejected
    /// pages, same poll statistics, for arbitrary mixed update batches.
    #[test]
    fn sharded_analysis_matches_sequential(
        rows in prop::collection::vec((0i64..5, 0i64..20), 0..20),
        instances in prop::collection::vec((0u8..5, 0i64..20), 1..10),
        updates in prop::collection::vec(update_strategy(), 1..15),
    ) {
        let seq = run_with_workers(&rows, &instances, &updates, 1);
        let par = run_with_workers(&rows, &instances, &updates, 4);
        prop_assert_eq!(digest(&seq), digest(&par));
        // The parallel run reports its actual shard fan-out.
        prop_assert_eq!(seq.workers, 1);
        prop_assert!(par.workers >= 1);
    }
}

/// Deterministic regression: a fixed workload where every verdict kind the
/// dedup cache can produce (Issued, FromCache) appears, and instances that
/// fail to analyse, checked at every supported worker count — including
/// counts above the candidate-type count (clamped).
#[test]
fn all_worker_counts_agree_on_fixed_workload() {
    let rows: Vec<(i64, i64)> = (0..12).map(|i| (i % 5, i * 3 % 20)).collect();
    let instances: Vec<(u8, i64)> = (0..10).map(|i| (i as u8 % 5, (i * 5) as i64 % 20)).collect();
    let updates: Vec<Update> = vec![
        Update::InsertR(1, 4),
        Update::InsertS(1, 4),
        Update::InsertT(2, 7),
        Update::DeleteRg(3),
        Update::InsertR(1, 4), // duplicate tuple: exercises the dedup cache
        Update::DeleteSg(0),
        Update::InsertT(4, 1),
    ];
    let sequential = run_with_workers(&rows, &instances, &updates, 1);
    assert_eq!(sequential.bind_failures, 2, "both erroring instances are affected");
    let baseline = digest(&sequential);
    for workers in [2, 3, 4, 8, 16] {
        let report = run_with_workers(&rows, &instances, &updates, workers);
        assert_eq!(
            baseline,
            digest(&report),
            "workers={workers} diverged from the sequential path"
        );
    }
}
