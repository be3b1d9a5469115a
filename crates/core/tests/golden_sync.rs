//! Cross-commit pin of what one scripted run leaves on every deterministic
//! observability surface. The stability tests elsewhere compare two runs of
//! one binary; this one compares a run against files under `tests/golden/`,
//! so a change to the order or content of a sync point's spans, timeline
//! samples, counters, provenance records, scorecard rows or SLO observations
//! shows as a diff against what an earlier commit wrote.
//!
//! On a mismatch the rendering is written beside the golden file's name
//! under `$TMPDIR/cp-golden-actual/`; a deliberate change is re-pinned by
//! copying it over the golden file, with the reason in the commit.

use cacheportal::cache::{PageCache, PageCacheConfig};
use cacheportal::db::schema::ColType;
use cacheportal::db::{Database, FaultPlan, FaultSpec};
use cacheportal::web::{
    HttpRequest, PageKey, ParamSource, QueryTemplate, Servlet, ServletSpec, SqlServlet,
};
use cacheportal::{CachePortal, Served, SyncReport};
use serde::Serialize;
use std::path::PathBuf;
use std::sync::Arc;

/// Query records each node's log holds when the lossy window opens (misses
/// go to the two nodes in turn, one query each): the plan below drops the
/// record after them, which only node 0 gets to write.
const KEPT_PER_NODE: u64 = 7;

fn storefront() -> Database {
    let mut db = Database::new();
    db.execute(
        "CREATE TABLE products (sku INT, name TEXT, category INT, price INT, \
         INDEX(sku), INDEX(category))",
    )
    .unwrap();
    db.execute("CREATE TABLE inventory (sku INT, warehouse INT, stock INT, INDEX(sku))")
        .unwrap();
    for sku in 0..12i64 {
        db.execute(&format!(
            "INSERT INTO products VALUES ({sku},'Product {sku}',{},{})",
            sku % 3,
            100 + sku * 10
        ))
        .unwrap();
        db.execute(&format!("INSERT INTO inventory VALUES ({sku},{},{})", sku % 2, 50 + sku))
            .unwrap();
    }
    db
}

/// The benchmark's four query shapes: join, conjunctive, top-k, aggregate.
fn servlets() -> Vec<Arc<dyn Servlet>> {
    let one = |name: &str, param: &str, sql: &str| -> Arc<dyn Servlet> {
        Arc::new(SqlServlet::new(
            ServletSpec::new(name).with_key_get_params(&[param]),
            name,
            vec![QueryTemplate::new(sql, vec![ParamSource::Get(param.into(), ColType::Int)])],
        ))
    };
    vec![
        one(
            "product",
            "sku",
            "SELECT products.sku, products.name, products.price, inventory.warehouse, \
             inventory.stock FROM products, inventory \
             WHERE products.sku = $1 AND products.sku = inventory.sku",
        ),
        one(
            "catalog",
            "category",
            "SELECT sku, name, price FROM products WHERE category = $1 ORDER BY price, sku",
        ),
        one(
            "top",
            "category",
            "SELECT sku, name, price FROM products WHERE category = $1 \
             ORDER BY price DESC LIMIT 2",
        ),
        one(
            "stats",
            "category",
            "SELECT COUNT(*), SUM(price) FROM products WHERE category = $1",
        ),
    ]
}

fn get(servlet: &str, param: &str, value: i64) -> HttpRequest {
    HttpRequest::get("shop.example.com", &format!("/{servlet}"), &[(param, &value.to_string())])
}

/// A sniffer-drop plan that keeps the first `KEPT_PER_NODE` records of a
/// query log, loses the next one and keeps the four after it.
fn one_loss_plan() -> FaultPlan {
    let spec = (8..)
        .map(|seed| FaultSpec { seed, sniffer_drop: 0.1, ..FaultSpec::default() })
        .find(|spec| {
            let probe = FaultPlan::new(spec.clone());
            (1..=KEPT_PER_NODE + 5)
                .all(|id| probe.drop_query_record(id) == (id == KEPT_PER_NODE + 1))
        })
        .unwrap();
    FaultPlan::new(spec)
}

fn check(name: &str, doc: &impl Serialize, failures: &mut Vec<String>) {
    let actual = serde_json::to_string_pretty(doc).unwrap() + "\n";
    let golden = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name);
    if std::fs::read_to_string(&golden).ok().as_deref() == Some(actual.as_str()) {
        return;
    }
    let dir = std::env::temp_dir().join("cp-golden-actual");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join(name), actual).unwrap();
    failures.push(format!("{name} (this run's rendering: {})", dir.join(name).display()));
}

#[test]
fn scripted_run_matches_the_golden_renderings() {
    let dir = std::env::temp_dir().join(format!("cp-golden-journal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let p = CachePortal::builder(storefront())
        .nodes(2)
        .durable(&dir)
        .checkpoint_interval(3)
        .fault_plan(one_loss_plan())
        .build()
        .unwrap();
    for servlet in servlets() {
        p.register_servlet(servlet);
    }
    let edges: Vec<Arc<PageCache>> = (0..2)
        .map(|_| {
            let edge = Arc::new(PageCache::new(PageCacheConfig::default()));
            p.register_edge_cache(edge.clone());
            edge
        })
        .collect();
    let miss = |req: HttpRequest| assert_eq!(p.request(&req).served, Served::Generated);
    let hit = |req: HttpRequest| assert_eq!(p.request(&req).served, Served::CacheHit);
    let sync = |ejected: usize| -> SyncReport {
        let r = p.sync_point().unwrap();
        assert_eq!(r.ejected, ejected, "{r:?}");
        assert!(p.stale_pages().is_empty());
        r
    };

    // Window 1: admissions of every shape, two hits, first sync registers.
    for sku in [1, 2, 4, 7] {
        miss(get("product", "sku", sku));
    }
    for category in [0, 1] {
        miss(get("catalog", "category", category));
        miss(get("top", "category", category));
        miss(get("stats", "category", category));
    }
    hit(get("product", "sku", 1));
    hit(get("stats", "category", 1));
    let r = sync(0);
    assert_eq!((r.mapper.mapped, r.mapper.lost), (10, 0));

    // Window 2: an update the predicate index narrows (price of sku 4:
    // product 4, with one poll for its join partner, and category 1's
    // catalog, top-k and aggregate pages).
    p.advance_clock(100);
    p.update("UPDATE products SET price = 999 WHERE sku = 4").unwrap();
    p.advance_clock(40);
    let r = sync(4);
    assert_eq!((r.invalidation.index_skipped, r.invalidation.polls.issued), (6, 1));

    // Window 3: nothing committed.
    p.advance_clock(100);
    hit(get("product", "sku", 2));
    sync(0);

    // Window 4: an update on the join side without an indexable conjunct,
    // so every product instance is polled; re-admissions in the same window.
    miss(get("product", "sku", 4));
    miss(get("top", "category", 1));
    p.advance_clock(100);
    p.update("UPDATE inventory SET stock = 0 WHERE sku = 7").unwrap();
    p.advance_clock(25);
    let r = sync(1);
    assert!(r.invalidation.polls.issued >= 1, "{:?}", r.invalidation.polls);

    // Window 5: a cheap product enters and leaves each category. The top-k
    // boundary rule keeps both top pages and the aggregate netting rule keeps
    // category 0's statistics; category 1's, admitted between the insert and
    // the delete, is guard-ejected, and category 0's catalog goes as usual.
    p.advance_clock(100);
    p.update("INSERT INTO products VALUES (90,'Product 90',0,5)").unwrap();
    p.update("DELETE FROM products WHERE sku = 90").unwrap();
    p.update("INSERT INTO products VALUES (91,'Product 91',1,7)").unwrap();
    miss(get("stats", "category", 1));
    p.update("DELETE FROM products WHERE sku = 91").unwrap();
    p.advance_clock(10);
    let r = sync(2);
    assert_eq!((r.invalidation.shape_topk_skipped, r.invalidation.shape_agg_skipped), (2, 2));
    assert_eq!(r.netting_guard_ejected, 1);

    // Window 6: the sniffer loses one query record on node 0, so every page
    // admitted in the window goes.
    p.advance_clock(100);
    miss(get("catalog", "category", 2));
    miss(get("product", "sku", 7));
    let r = sync(2);
    assert_eq!((r.mapper.lost, r.fault_ejected), (1, 2));

    // Window 7: one more commit after the loss, ejecting across shapes.
    p.advance_clock(100);
    p.update("UPDATE products SET price = 500 WHERE sku = 3").unwrap();
    p.advance_clock(30);
    sync(2);
    for edge in &edges {
        assert_eq!(edge.len(), p.page_cache().len(), "edges mirror the origin");
    }

    let mut failures = Vec::new();
    let mut trace = p.obs().tracer.doc(1024);
    trace.stabilize();
    check("trace.json", &trace, &mut failures);
    check("timeline.json", &p.obs().timeline_doc(true), &mut failures);
    check("scorecards.json", &p.obs().scorecards.doc(), &mut failures);
    check("slo.json", &p.slo(true), &mut failures);
    check("flight.json", &p.flight_record("golden", true), &mut failures);
    // The registry without its wall-clock-carrying entries, as the stable
    // flight bundle has it.
    let mut registry = p.metrics_snapshot().metrics;
    registry.stabilize();
    check("metrics.json", &registry, &mut failures);
    let stats_page = PageKey::for_request(&get("stats", "category", 1), servlets()[3].spec());
    check("explain.json", &p.explain_invalidation(stats_page.as_str()), &mut failures);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(failures.is_empty(), "golden mismatch:\n  {}", failures.join("\n  "));
}
