//! What a request allocates, counted, with observability on as deployed:
//! a cache hit, a miss of each of the storefront's four servlets, and a
//! site's first sync point per page. The counts are allocator calls
//! (`alloc` + `realloc`), which repeat exactly from run to run where times
//! do not; DESIGN §3.1 holds the table beside "What a statement costs".
//!
//! A miss is counted at steady state: the first miss of each servlet
//! prepares its statement on the pooled connection, and tables that grow by
//! doubling (the admissions, the cache's map, a log stripe) allocate on the
//! miss that fills them, so each kind's count is the least of a run of
//! fresh pages. A hit and the first sync are counted as they come.

mod common;

#[path = "../../db/tests/storefront/mod.rs"]
mod storefront;

use cacheportal::cache::PageCacheConfig;
use cacheportal::db::schema::ColType;
use cacheportal::web::{HttpRequest, ParamSource, QueryTemplate, ServletSpec, SqlServlet};
use cacheportal::{CachePortal, Served};
use std::sync::Arc;

#[global_allocator]
static ALLOC: common::CountingAlloc = common::CountingAlloc;

const PAGES: usize = storefront::SKUS + 3 * storefront::CATEGORIES;

/// Allocations of a cache hit: its page key's text.
const HIT: usize = 1;
/// Allocations of a miss, in `storefront::SERVLETS` order.
const MISS: [usize; 4] = [14, 91, 31, 13];
/// Allocations of the first sync point over the whole site.
const FIRST_SYNC: usize = 4977;

fn portal() -> CachePortal {
    let portal = CachePortal::builder(storefront::database(1))
        .cache_config(PageCacheConfig {
            capacity: 2 * PAGES,
            ..PageCacheConfig::default()
        })
        .build()
        .unwrap();
    for (name, title, sql) in storefront::SERVLETS {
        portal.register_servlet(Arc::new(SqlServlet::new(
            ServletSpec::new(name).with_key_get_params(&[param(name)]),
            title,
            vec![QueryTemplate::new(
                sql,
                vec![ParamSource::Get(param(name).into(), ColType::Int)],
            )],
        )));
    }
    portal
}

fn param(servlet: &str) -> &'static str {
    if servlet == "product" {
        "sku"
    } else {
        "category"
    }
}

fn page(servlet: &str, value: usize) -> HttpRequest {
    HttpRequest::get(
        "shop",
        &format!("/{servlet}"),
        &[(param(servlet), &value.to_string())],
    )
}

/// Every page of the site.
fn site() -> Vec<HttpRequest> {
    let mut pages: Vec<HttpRequest> = (0..storefront::SKUS)
        .map(|sku| page("product", sku))
        .collect();
    for (servlet, _, _) in &storefront::SERVLETS[1..] {
        pages.extend((0..storefront::CATEGORIES).map(|c| page(servlet, c)));
    }
    pages
}

#[test]
fn a_request_allocates_its_counted_budget() {
    let portal = portal();
    let mut misses = [usize::MAX; 4];
    for (kind, (servlet, _, _)) in storefront::SERVLETS.iter().enumerate() {
        for value in 0..8 {
            let req = page(servlet, value);
            let (outcome, allocated) = common::measure(|| portal.request(&req));
            assert_eq!(outcome.served, Served::Generated);
            misses[kind] = misses[kind].min(allocated.calls);
        }
    }
    let hit = page("product", 3);
    let (outcome, hits) = common::measure(|| portal.request(&hit));
    assert_eq!(outcome.served, Served::CacheHit);
    drop(outcome);

    // A fresh site, every page missed once, then its first sync point.
    let portal = self::portal();
    let pages = site();
    for req in &pages {
        assert_eq!(portal.request(req).served, Served::Generated);
    }
    let (report, sync) = common::measure(|| portal.sync_point().unwrap());
    assert_eq!(report.invalidation.registered, PAGES as u64);

    println!("hit: {} allocations", hits.calls);
    for ((servlet, _, _), count) in storefront::SERVLETS.iter().zip(misses) {
        println!("{servlet} miss: {count} allocations");
    }
    println!(
        "first sync: {} allocations for {PAGES} pages ({:.2} per page)",
        sync.calls,
        sync.calls as f64 / PAGES as f64
    );
    assert_eq!(hits.calls, HIT, "allocations of a hit");
    assert_eq!(misses, MISS, "allocations of a miss, per servlet");
    assert_eq!(sync.calls, FIRST_SYNC, "allocations of the first sync");
}
