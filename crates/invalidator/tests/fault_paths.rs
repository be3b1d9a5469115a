//! Fault-path equivalence for the parallel invalidator.
//!
//! A failing poll must degrade *conservatively* — the instance is assumed
//! affected ([`VerdictKind::PollFault`]) — and the degradation must be
//! deterministic across worker counts: fault decisions key on the poll's
//! structural key, not on shard scheduling, so `workers = 4` with a failing
//! poll on one shard produces exactly the verdicts of `workers = 1`. And a
//! fault may only *add* invalidations: no page ejected by a fault-free run
//! may survive under faults (never downgrade Invalidate → NoInvalidate).

use cacheportal_db::{Database, FaultPlan, FaultSpec};
use cacheportal_invalidator::{
    InvalidationReport, Invalidator, InvalidatorConfig, PolicyConfig, VerdictKind,
};
use cacheportal_sniffer::QiUrlMap;
use cacheportal_web::PageKey;
use std::collections::BTreeSet;

/// Join-heavy instance shapes: joins force residual polling queries, which
/// is the only site poll faults can hit.
fn instance_sql(kind: u8, param: i64) -> String {
    match kind % 3 {
        0 => format!("SELECT R.v, S.w FROM R, S WHERE R.g = S.g AND R.v < {param}"),
        1 => format!("SELECT S.w, T.u FROM S, T WHERE S.g = T.g AND S.w < {param}"),
        _ => format!("SELECT R.v, T.u FROM R, T WHERE R.g = T.g AND T.u < {param}"),
    }
}

fn build_db() -> Database {
    let mut db = Database::new();
    db.execute("CREATE TABLE R (g INT, v INT)").unwrap();
    db.execute("CREATE TABLE S (g INT, w INT)").unwrap();
    db.execute("CREATE TABLE T (g INT, u INT)").unwrap();
    for i in 0..12i64 {
        let (g, v) = (i % 5, i * 3 % 20);
        db.execute(&format!("INSERT INTO R VALUES ({g}, {v})")).unwrap();
        db.execute(&format!("INSERT INTO S VALUES ({g}, {v})")).unwrap();
        db.execute(&format!("INSERT INTO T VALUES ({g}, {v})")).unwrap();
    }
    db
}

/// Run the fixed workload at `workers` with the given fault plan and return
/// the update batch's report.
fn run(workers: usize, fault: FaultPlan) -> InvalidationReport {
    let mut db = build_db();
    let map = QiUrlMap::new();
    for i in 0..8u8 {
        map.insert(
            &instance_sql(i % 3, (i as i64 * 5) % 20),
            PageKey::raw(format!("page{i}")),
            "s".into(),
        );
    }
    let mut inv = Invalidator::new(InvalidatorConfig {
        policy: PolicyConfig::default(),
        workers,
        fault,
        ..InvalidatorConfig::default()
    });
    inv.start_from(db.high_water());
    inv.run_sync_point(&db, &map).unwrap();
    for sql in [
        "INSERT INTO R VALUES (1, 4)",
        "INSERT INTO S VALUES (2, 9)",
        "DELETE FROM T WHERE g = 3",
        "INSERT INTO T VALUES (4, 1)",
        "DELETE FROM S WHERE g = 0",
    ] {
        db.execute(sql).unwrap();
    }
    inv.run_sync_point(&db, &map).unwrap()
}

/// Everything the fault-equivalence guarantee covers.
fn digest(report: &InvalidationReport) -> (Vec<String>, Vec<String>, String) {
    let verdicts: Vec<String> = report
        .verdicts
        .iter()
        .map(|v| {
            let mut pages: Vec<&str> = v.pages.iter().map(|p| p.as_str()).collect();
            pages.sort_unstable();
            format!("{}|{:?}|{}|{pages:?}", v.type_sql, v.params, v.cause.kind.as_str())
        })
        .collect();
    let mut pages: Vec<String> = report.pages.iter().map(|p| p.as_str().to_string()).collect();
    pages.sort_unstable();
    let counters = format!(
        "issued={} from_cache={} faulted={} poll_faults={} invalidated={} checked={}",
        report.polls.issued,
        report.polls.from_cache,
        report.polls.faulted,
        report.poll_faults,
        report.invalidated_instances,
        report.checked_instances,
    );
    (verdicts, pages, counters)
}

fn half_error_plan() -> FaultPlan {
    FaultPlan::new(FaultSpec {
        seed: 11,
        poll_error: 0.5,
        ..FaultSpec::default()
    })
}

#[test]
fn faulted_run_actually_faults_and_reports_poll_fault_verdicts() {
    let report = run(1, half_error_plan());
    assert!(report.polls.faulted > 0, "p=0.5 over this workload must fault");
    assert!(report.poll_faults > 0);
    assert!(
        report
            .verdicts
            .iter()
            .any(|v| v.cause.kind == VerdictKind::PollFault),
        "a faulted poll must surface as a poll-fault verdict"
    );
    // Every poll-fault verdict names the failed poll in its detail.
    for v in &report.verdicts {
        if v.cause.kind == VerdictKind::PollFault {
            assert!(v.cause.detail.contains("conservative fallback"));
        }
    }
}

#[test]
fn workers4_with_failing_polls_matches_workers1() {
    let seq = run(1, half_error_plan());
    let par = run(4, half_error_plan());
    assert_eq!(
        digest(&seq),
        digest(&par),
        "fault decisions key on poll content, not shard scheduling"
    );
    for workers in [2, 3, 8] {
        assert_eq!(digest(&seq), digest(&run(workers, half_error_plan())));
    }
}

#[test]
fn faults_never_downgrade_invalidate_to_no_invalidate() {
    let clean = run(4, FaultPlan::none());
    for (seed, p_err, p_to) in [(11u64, 0.5, 0.0), (7, 0.0, 0.5), (23, 1.0, 0.0), (3, 0.3, 0.3)] {
        let faulted = run(
            4,
            FaultPlan::new(FaultSpec {
                seed,
                poll_error: p_err,
                poll_timeout: p_to,
                ..FaultSpec::default()
            }),
        );
        let clean_pages: BTreeSet<String> =
            clean.pages.iter().map(|p| p.as_str().to_string()).collect();
        let faulted_pages: BTreeSet<String> =
            faulted.pages.iter().map(|p| p.as_str().to_string()).collect();
        assert!(
            faulted_pages.is_superset(&clean_pages),
            "seed={seed}: faults dropped ejects {:?}",
            clean_pages.difference(&faulted_pages).collect::<Vec<_>>()
        );
    }
}

#[test]
fn every_poll_failing_still_completes_the_sync_point() {
    let report = run(
        4,
        FaultPlan::new(FaultSpec {
            seed: 1,
            poll_error: 1.0,
            ..FaultSpec::default()
        }),
    );
    assert_eq!(report.polls.issued, 0, "no poll can succeed at p=1.0");
    assert!(report.poll_faults > 0);
    // The run degraded to per-instance conservative ejects instead of
    // erroring out of run_sync_point.
    assert!(report.invalidated_instances > 0);
}

#[test]
fn timeout_faults_behave_like_errors_for_verdicts() {
    let errs = run(
        1,
        FaultPlan::new(FaultSpec {
            seed: 5,
            poll_error: 1.0,
            ..FaultSpec::default()
        }),
    );
    let timeouts = run(
        1,
        FaultPlan::new(FaultSpec {
            seed: 5,
            poll_timeout: 1.0,
            ..FaultSpec::default()
        }),
    );
    assert_eq!(digest(&errs), digest(&timeouts));
}
