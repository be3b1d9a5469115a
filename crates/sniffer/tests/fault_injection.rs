//! Sniffer behavior under injected log faults.
//!
//! The mapper's filing — under the page a record names or, without one, on
//! interval containment — is only safe if losses are *visible*: a dropped SELECT
//! record means some page may be cached with a missing dependency edge, and
//! the portal compensates by ejecting pages admitted in that window. These tests pin the contract the portal relies
//! on — `QueryLog::lost()` counts every drop, `MapperReport::lost` reports
//! the per-run delta exactly once, duplicates and reorders never lose or
//! invent associations, whichever way a record is filed.

use cacheportal_db::{FaultPlan, FaultSpec, Value};
use cacheportal_sniffer::{Mapper, QiUrlMap, QueryLog, RequestLog};
use cacheportal_web::{PageKey, RequestObserver, RequestRecord};
use std::sync::Arc;

fn request(id: u64, recv: u64, deliver: u64) -> RequestRecord {
    RequestRecord {
        servlet: "s".into(),
        page_key: PageKey::raw(format!("page{id}")),
        received: recv,
        delivered: deliver,
    }
}

fn setup() -> (Arc<RequestLog>, Arc<QueryLog>, Mapper) {
    let rl = Arc::new(RequestLog::new());
    let ql = QueryLog::new();
    let map = Arc::new(QiUrlMap::new());
    let mapper = Mapper::new(rl.clone(), ql.clone(), map);
    (rl, ql, mapper)
}

#[test]
fn dropped_records_are_counted_never_silently_skipped() {
    let (rl, ql, mut mapper) = setup();
    ql.set_fault_plan(FaultPlan::new(FaultSpec {
        sniffer_drop: 1.0,
        ..FaultSpec::default()
    }));
    rl.on_request(request(1, 0, 100));
    ql.record("SELECT * FROM Car", &[], true, 10, 20);
    ql.record("SELECT * FROM Car WHERE price < $1", &[Value::Int(5)], true, 30, 40);
    assert!(ql.is_empty(), "p=1.0 drops every record before buffering");
    assert_eq!(ql.lost(), 2);

    let rep = mapper.run_once();
    assert_eq!(rep.mapped, 0, "dropped records cannot map");
    assert_eq!(rep.lost, 2, "the mapper surfaces the loss to its caller");

    // The delta is reported exactly once.
    let rep2 = mapper.run_once();
    assert_eq!(rep2.lost, 0);
}

#[test]
fn partial_drop_still_maps_survivors() {
    let (rl, ql, mut mapper) = setup();
    // Seeded 50% drop: with 40 records, both outcomes occur.
    ql.set_fault_plan(FaultPlan::new(FaultSpec {
        seed: 7,
        sniffer_drop: 0.5,
        ..FaultSpec::default()
    }));
    rl.on_request(request(1, 0, 1_000));
    for i in 0..40 {
        ql.record(
            "SELECT * FROM Car WHERE price < $1",
            &[Value::Int(i)],
            true,
            10 + i as u64,
            11 + i as u64,
        );
    }
    let rep = mapper.run_once();
    assert!(rep.lost > 0, "some records dropped");
    assert!(rep.mapped > 0, "some records survived");
    assert_eq!(rep.mapped + rep.lost, 40, "every record accounted for");
}

#[test]
fn duplicated_records_map_to_the_same_dependency() {
    let (rl, ql, mut mapper) = setup();
    ql.set_fault_plan(FaultPlan::new(FaultSpec {
        sniffer_dup: 1.0,
        ..FaultSpec::default()
    }));
    rl.on_request(request(1, 0, 100));
    ql.record("SELECT * FROM Car", &[], true, 10, 20);
    assert_eq!(ql.len(), 2, "record duplicated in the log");
    assert_eq!(ql.duplicated(), 1);

    let rep = mapper.run_once();
    assert_eq!(rep.lost, 0, "duplication loses nothing");
    assert_eq!(rep.mapped, 2, "both copies map");
    // The QI/URL map dedups (same SQL, same page): no spurious entries.
    assert_eq!(mapper.map().len(), 1);
    assert_eq!(mapper.map().all()[0].page_key, PageKey::raw("page1"));
}

#[test]
fn reordered_log_produces_identical_map() {
    let build = |reorder: bool| {
        let (rl, ql, mut mapper) = setup();
        ql.set_fault_plan(FaultPlan::new(FaultSpec {
            sniffer_reorder: reorder,
            // An inert spec collapses to the no-op plan; keep a second
            // (never-firing) site active so `reorder=false` also exercises
            // the faulted code path.
            sniffer_drop: if reorder { 0.0 } else { f64::MIN_POSITIVE },
            ..FaultSpec::default()
        }));
        rl.on_request(request(1, 0, 50));
        rl.on_request(request(2, 60, 100));
        ql.record("SELECT * FROM Car WHERE price < $1", &[Value::Int(1)], true, 10, 20);
        ql.record("SELECT * FROM Car WHERE price < $1", &[Value::Int(2)], true, 70, 80);
        ql.record("SELECT maker FROM Car", &[], true, 30, 40);
        let rep = mapper.run_once();
        let mut entries: Vec<(String, String)> = mapper
            .map()
            .all()
            .iter()
            .map(|e| (e.sql.clone(), e.page_key.to_string()))
            .collect();
        entries.sort();
        (rep.mapped, entries)
    };
    let (mapped_inorder, inorder) = build(false);
    let (mapped_reordered, reordered) = build(true);
    assert_eq!(mapped_inorder, 3);
    assert_eq!(mapped_inorder, mapped_reordered);
    assert_eq!(inorder, reordered, "mapping is order-insensitive");
}

/// Records that name their page, from two requests whose windows overlap:
/// duplicated, reordered or partly dropped, what survives is filed under the
/// page it names and nowhere else.
#[test]
fn faults_never_move_a_named_record_to_a_neighbour() {
    let faults = [
        FaultSpec::default(),
        FaultSpec { sniffer_dup: 1.0, ..FaultSpec::default() },
        FaultSpec { sniffer_reorder: true, ..FaultSpec::default() },
        FaultSpec { seed: 7, sniffer_drop: 0.5, ..FaultSpec::default() },
    ];
    for spec in faults {
        let (rl, ql, mut mapper) = setup();
        ql.set_fault_plan(FaultPlan::new(spec.clone()));
        rl.on_request(request(1, 0, 1_000));
        rl.on_request(request(2, 5, 995));
        for i in 0..40u64 {
            let sql = "SELECT * FROM Car WHERE price < $1";
            let page = request(1 + i % 2, 0, 0).page_key;
            ql.record_for(&page, &"s".into(), sql, &[Value::Int(i as i64)], true);
        }
        let rep = mapper.run_once();
        let copies = if spec.sniffer_dup > 0.0 { 2 } else { 1 };
        assert_eq!(rep.mapped + copies * rep.lost, copies * 40, "{spec:?}");
        assert_eq!((rep.named, rep.ambiguous), (rep.mapped, 0), "{spec:?}");
        assert_eq!(rep.lost > 0, spec.sniffer_drop > 0.0, "{spec:?}");
        let rows = mapper.map().all();
        assert_eq!(rows.len() as u64, 40 - rep.lost, "{spec:?}: one row per surviving query");
        for row in rows {
            let price: u64 = row.sql.rsplit(' ').next().unwrap().parse().unwrap();
            assert_eq!(row.page_key, PageKey::raw(format!("page{}", 1 + price % 2)), "{spec:?}");
        }
    }
}

#[test]
fn drop_of_one_of_two_queries_leaves_partial_mapping() {
    // The scenario that makes "eject only unmapped pages" unsound: a page
    // issues two queries, one is dropped. The page still maps (via the
    // survivor), yet it is missing a dependency edge. The portal must treat
    // any nonzero `lost` as tainting every page admitted in the window.
    let (rl, ql, mut mapper) = setup();
    // seed chosen so exactly one of the two record ids (1, 2) drops.
    let mut seed = 0;
    loop {
        let probe = FaultPlan::new(FaultSpec {
            seed,
            sniffer_drop: 0.5,
            ..FaultSpec::default()
        });
        let d1 = probe.drop_query_record(1);
        let d2 = probe.drop_query_record(2);
        if d1 != d2 {
            break;
        }
        seed += 1;
    }
    ql.set_fault_plan(FaultPlan::new(FaultSpec {
        seed,
        sniffer_drop: 0.5,
        ..FaultSpec::default()
    }));
    rl.on_request(request(1, 0, 100));
    ql.record("SELECT * FROM Car", &[], true, 10, 20);
    ql.record("SELECT EPA FROM Mileage", &[], true, 30, 40);
    let rep = mapper.run_once();
    assert_eq!(rep.mapped, 1, "the surviving query still maps");
    assert_eq!(rep.lost, 1, "…but the loss is reported alongside it");
}

#[test]
fn inert_plan_changes_nothing() {
    let (rl, ql, mut mapper) = setup();
    ql.set_fault_plan(FaultPlan::none());
    rl.on_request(request(1, 0, 100));
    ql.record("SELECT * FROM Car", &[], true, 10, 20);
    let rep = mapper.run_once();
    assert_eq!(rep.mapped, 1);
    assert_eq!(rep.lost, 0);
    assert_eq!(ql.lost(), 0);
    assert_eq!(ql.duplicated(), 0);
}
