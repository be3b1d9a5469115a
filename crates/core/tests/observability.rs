//! Integration tests for the unified observability layer: one portal, real
//! traffic, and assertions against the combined `metrics_snapshot()`
//! document (acceptance: page-cache hit ratio, polls issued vs avoided,
//! over-invalidation count, commit→eject staleness quantiles).

use cacheportal::db::schema::ColType;
use cacheportal::db::Database;
use cacheportal::invalidator::{InvalidationPolicy, InvalidatorConfig};
use cacheportal::web::{HttpRequest, ParamSource, QueryTemplate, ServletSpec, SqlServlet};
use cacheportal::{CachePortal, Served};
use std::sync::Arc;

#[path = "../../db/tests/storefront/mod.rs"]
mod storefront;

fn example_db() -> Database {
    let mut db = Database::new();
    db.execute("CREATE TABLE Car (maker TEXT, model TEXT, price INT, INDEX(model))")
        .unwrap();
    db.execute("CREATE TABLE Mileage (model TEXT, EPA FLOAT, INDEX(model))")
        .unwrap();
    db.execute("INSERT INTO Car VALUES ('Toyota','Avalon',25000), ('Honda','Civic',18000)")
        .unwrap();
    db.execute("INSERT INTO Mileage VALUES ('Avalon', 28.0), ('Civic', 36.5)")
        .unwrap();
    db
}

fn search_servlet() -> Arc<dyn cacheportal::web::Servlet> {
    Arc::new(SqlServlet::new(
        ServletSpec::new("carSearch").with_key_get_params(&["maxprice"]),
        "Car search",
        vec![QueryTemplate::new(
            "SELECT Car.maker, Car.model, Car.price, Mileage.EPA FROM Car, Mileage \
             WHERE Car.model = Mileage.model AND Car.price < $1",
            vec![ParamSource::Get("maxprice".into(), ColType::Int)],
        )],
    ))
}

fn req(maxprice: i64) -> HttpRequest {
    HttpRequest::get(
        "shop.example.com",
        "/carSearch",
        &[("maxprice", &maxprice.to_string())],
    )
}

#[test]
fn snapshot_covers_acceptance_metrics() {
    let p = CachePortal::builder(example_db()).build().unwrap();
    p.register_servlet(search_servlet());

    // Traffic: one miss, one hit, one more miss on a second page.
    assert_eq!(p.request(&req(20000)).served, Served::Generated);
    assert_eq!(p.request(&req(20000)).served, Served::CacheHit);
    assert_eq!(p.request(&req(30000)).served, Served::Generated);
    p.sync_point().unwrap();

    // A committed mutation, a measurable pause, then the sync point that
    // ejects the affected page: the staleness window must cover the pause.
    p.advance_clock(500);
    p.update("INSERT INTO Mileage VALUES ('Camry', 30.0)").unwrap();
    p.update("INSERT INTO Car VALUES ('Toyota','Camry',22000)").unwrap();
    p.advance_clock(1_000);
    let report = p.sync_point().unwrap();
    assert_eq!(report.ejected, 1, "only the 30000 page is affected");

    let snap = p.metrics_snapshot();

    // Page-cache hit ratio: 1 hit / 3 keyed lookups.
    let ratio = snap.derived.page_cache_hit_ratio;
    assert!(ratio > 0.0 && ratio < 1.0, "ratio = {ratio}");
    assert_eq!(ratio, p.page_cache().stats().hit_ratio());
    let counters = &snap.metrics.counters;
    assert!(counters["cache.page.hits"] >= 1);
    assert!(counters["cache.page.misses"] >= 2);
    assert_eq!(counters["web.requests.total"], 3);

    // Polls issued vs avoided: the join insert needs a polling query for
    // the 30000 page, while the 20000 page is cleared by the local check.
    let issued = snap.derived.polls_issued;
    let avoided = snap.derived.polls_avoided;
    assert!(issued >= 1, "join inserts must poll (issued = {issued})");
    assert!(avoided >= 1, "local checks must avoid polls (avoided = {avoided})");

    // Commit→eject staleness histogram with quantiles.
    let window = &snap.staleness.commit_to_eject_micros;
    assert!(window.count >= 1);
    for (q, v) in [("p50", window.p50), ("p95", window.p95), ("p99", window.p99)] {
        assert!(v >= 1_000, "{q} = {v}, expected ≥ the 1000us pause");
    }
    assert!(window.max >= window.p50);

    // Trace captured the pipeline milestones.
    assert!(snap.trace.recorded > 0);

    // The document renders and reads back as JSON text.
    let text = serde_json::to_string_pretty(&snap).unwrap();
    let back: cacheportal::obs::Snapshot = serde_json::from_str(&text).unwrap();
    assert_eq!(back, snap, "snapshot must round-trip through JSON text");
}

#[test]
fn over_invalidation_audit_counts_false_ejects() {
    // Table-level policy: any Car update ejects every Car-reading page —
    // maximal over-invalidation, which the freshness-oracle audit exposes.
    let mut cfg = InvalidatorConfig::default();
    cfg.policy.default_policy = InvalidationPolicy::TableLevel;
    let p = CachePortal::builder(example_db())
        .invalidator_config(cfg)
        .build()
        .unwrap();
    p.register_servlet(search_servlet());
    p.set_invalidation_audit(true);

    p.request(&req(20000)); // Civic-only page
    p.sync_point().unwrap();

    // 90000 > any cached page's bound: the page is NOT stale, yet
    // table-level invalidation ejects it.
    p.update("INSERT INTO Car VALUES ('Bentley','Azure',90000)").unwrap();
    let report = p.sync_point().unwrap();
    assert_eq!(report.ejected, 1);

    let snap = p.metrics_snapshot();
    assert_eq!(snap.derived.over_invalidations, 1);
    assert_eq!(snap.derived.pages_ejected, 1);
    assert_eq!(snap.metrics.counters["invalidator.audited_sync_points"], 1);
}

#[test]
fn exact_policy_audit_reports_no_over_invalidation() {
    let p = CachePortal::builder(example_db()).build().unwrap();
    p.register_servlet(search_servlet());
    p.set_invalidation_audit(true);

    p.request(&req(20000));
    p.request(&req(30000));
    p.sync_point().unwrap();
    p.update("INSERT INTO Mileage VALUES ('Camry', 30.0)").unwrap();
    p.update("INSERT INTO Car VALUES ('Toyota','Camry',22000)").unwrap();
    let report = p.sync_point().unwrap();
    assert_eq!(report.ejected, 1);

    let snap = p.metrics_snapshot();
    assert_eq!(
        snap.derived.over_invalidations, 0,
        "the exact policy ejected only the genuinely stale page"
    );
}

#[test]
fn staleness_probe_ignores_rolled_back_transactions() {
    let p = CachePortal::builder(example_db()).build().unwrap();
    p.register_servlet(search_servlet());
    p.request(&req(30000));
    p.sync_point().unwrap();

    let baseline = p.obs().staleness.window_snapshot().count;
    let err: cacheportal::db::DbResult<()> = p.update_txn(|tx| {
        tx.execute("INSERT INTO Car VALUES ('Kia','Rio',12000)")?;
        Err(cacheportal::db::DbError::Unsupported("abort".into()))
    });
    assert!(err.is_err());
    assert_eq!(
        p.obs().staleness.pending_len(),
        0,
        "aborted records must not be stamped"
    );
    p.sync_point().unwrap();
    assert_eq!(
        p.obs().staleness.window_snapshot().count,
        baseline,
        "a sync with nothing consumed records no window"
    );
}


/// The benchmark storefront's 1 000 product pages and 100 catalog pages,
/// missed once each from `threads` threads, then attributed at a sync
/// point: the render cost the scorecards charge, rows and unattributed
/// bucket together, is the rows the database read for them — each page is
/// charged its own statements' rows, whatever the other thread runs
/// meanwhile. (A render cost read as a delta of the database's global
/// counters charged each concurrent miss the other's rows as well.)
#[test]
fn a_concurrent_miss_is_charged_only_its_own_rows() {
    for threads in [1, 2] {
        let p = CachePortal::builder(storefront::database(1)).build().unwrap();
        for (name, title, sql) in storefront::SERVLETS {
            let param = if name == "product" { "sku" } else { "category" };
            p.register_servlet(Arc::new(SqlServlet::new(
                ServletSpec::new(name).with_key_get_params(&[param]),
                title,
                vec![QueryTemplate::new(
                    sql,
                    vec![ParamSource::Get(param.into(), ColType::Int)],
                )],
            )));
        }
        let page = |servlet: &str, param: &str, value: usize| {
            HttpRequest::get("shop", &format!("/{servlet}"), &[(param, &value.to_string())])
        };
        let pages: Vec<HttpRequest> = (0..1000)
            .map(|sku| page("product", "sku", sku))
            .chain((0..storefront::CATEGORIES).map(|c| page("catalog", "category", c)))
            .collect();
        let before = p.db().read().stats().exec.rows_read();
        std::thread::scope(|s| {
            for t in 0..threads {
                let (p, pages) = (&p, &pages);
                s.spawn(move || {
                    for request in pages.iter().skip(t).step_by(threads) {
                        assert_eq!(p.request(request).served, Served::Generated);
                    }
                });
            }
        });
        let read = p.db().read().stats().exec.rows_read() - before;
        p.sync_point().unwrap();

        let doc = p.obs().scorecards.doc();
        assert_eq!(doc.pending_dropped, 0, "{threads} threads: every page was tallied");
        let rows: u64 = doc.scorecards.iter().map(|r| r.render_cost_units).sum();
        assert_eq!(
            rows + doc.unattributed.render_cost_units,
            read,
            "{threads} threads: render cost charged vs rows read"
        );
        assert_eq!(doc.scorecards.iter().map(|r| r.misses).sum::<u64>(), 1100);
    }
}
