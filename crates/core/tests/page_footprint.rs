//! What a registered page costs, counted.
//!
//! The sniffer and the invalidator exist to keep one small row per (query
//! instance, URL). This test registers the benchmark's storefront — 4 300
//! pages, its four query shapes — through a portal, takes the QI/URL map and
//! the invalidator (registry and predicate index) out of it, and weighs what
//! dropping them frees: the bytes and blocks only they held, the page keys
//! and parameter vectors they share included. (When a page key was a
//! `String` that every structure copied, a row's text was kept in a buffer
//! of 256, and per-page lists and sets were heap blocks of their own, this
//! test read 1 289 bytes in 12 blocks per page; while a mapped row held its
//! bound text beside its typed form, 685 in 3; it reads 494 in 2.)
//!
//! It also pins what does *not* grow: a second pass over the same pages, the
//! page cache emptied, finds 4 300 rows the map already has — known by their
//! typed form as each query is logged, so no record of them is kept and the
//! mapper maps none, and the process holds no more than before (that pass
//! used to render all 4 300 to find them duplicates, and until the log
//! checked the map it logged, typed and mapped all 4 300) — a cache hit allocates its
//! key's text and nothing else (the body is a handle on the cached one, the
//! `Cache-Control` owner a borrowed literal, the key handed on as it is) —
//! and a page admitted at the origin and mirrored to two in-process edges
//! puts one body on the heap, not three.

mod common;

use cacheportal::cache::{PageCache, PageCacheConfig};
use cacheportal::db::schema::ColType;
use cacheportal::db::Database;
use cacheportal::invalidator::{Invalidator, InvalidatorConfig};
use cacheportal::web::{HttpRequest, PageKey, ParamSource, QueryTemplate, ServletSpec, SqlServlet};
use cacheportal::{CachePortal, Served};
use std::sync::Arc;

#[global_allocator]
static ALLOC: common::CountingAlloc = common::CountingAlloc;

const SKUS: usize = 4000;
const CATEGORIES: usize = 100;
const PAGES: usize = SKUS + 3 * CATEGORIES;

/// Bytes the map, the registry and the predicate index may hold per page.
const BYTES_PER_PAGE: usize = 540;
/// Heap blocks they may hold per page.
const BLOCKS_PER_PAGE: f64 = 3.0;
/// Allocations of the second pass over the site, every row known: 73 839
/// when each of its 4 300 queries was logged and then mapped, at least one
/// allocation per page fewer now.
const KNOWN_PASS_CALLS: usize = 73_839 - PAGES;
/// Pages of the mirrored pass: fewer than the slots a page cache allocates
/// up front, so what the pass leaves on the heap is bodies.
const MIRRORED: usize = 2000;

/// `portal_load`'s site: two tables, four servlets of one query each.
fn storefront() -> CachePortal {
    let mut db = Database::new();
    db.execute(
        "CREATE TABLE products (sku INT, name TEXT, category INT, price INT, \
         INDEX(sku), INDEX(category))",
    )
    .unwrap();
    db.execute("CREATE TABLE inventory (sku INT, warehouse INT, stock INT, INDEX(sku))")
        .unwrap();
    for chunk in (0..SKUS).collect::<Vec<_>>().chunks(200) {
        let rows = |row: &dyn Fn(usize) -> String| {
            chunk
                .iter()
                .map(|&sku| row(sku))
                .collect::<Vec<_>>()
                .join(",")
        };
        let products = rows(&|sku| {
            let (category, price) = (sku % CATEGORIES, 100 + sku * 7919 % 9900);
            format!("({sku},'Product {sku}',{category},{price})")
        });
        db.execute(&format!("INSERT INTO products VALUES {products}"))
            .unwrap();
        let inventory = rows(&|sku| format!("({sku},{},{})", sku % 8, sku * 31 % 500));
        db.execute(&format!("INSERT INTO inventory VALUES {inventory}"))
            .unwrap();
    }
    let portal = CachePortal::builder(db)
        .cache_config(PageCacheConfig {
            capacity: 2 * PAGES,
            ..PageCacheConfig::default()
        })
        .build()
        .unwrap();
    let servlets = [
        (
            "product",
            "sku",
            "SELECT products.sku, products.name, products.price, inventory.warehouse, \
             inventory.stock FROM products, inventory \
             WHERE products.sku = $1 AND products.sku = inventory.sku",
        ),
        (
            "catalog",
            "category",
            "SELECT sku, name, price FROM products WHERE category = $1 ORDER BY price, sku",
        ),
        (
            "top",
            "category",
            "SELECT sku, name, price FROM products WHERE category = $1 \
             ORDER BY price DESC LIMIT 10",
        ),
        (
            "stats",
            "category",
            "SELECT COUNT(*), SUM(price) FROM products WHERE category = $1",
        ),
    ];
    for (name, param, sql) in servlets {
        portal.register_servlet(Arc::new(SqlServlet::new(
            ServletSpec::new(name).with_key_get_params(&[param]),
            name,
            vec![QueryTemplate::new(
                sql,
                vec![ParamSource::Get(param.into(), ColType::Int)],
            )],
        )));
    }
    // The observers that keep a record per request or per sync point would
    // be weighed with the pass they watch.
    let obs = portal.obs();
    obs.tracer.set_enabled(false);
    obs.provenance.set_enabled(false);
    obs.scorecards.set_enabled(false);
    obs.slo.set_enabled(false);
    portal
}

fn requests() -> Vec<HttpRequest> {
    let page = |servlet: &str, param: &str, value: usize| {
        HttpRequest::get(
            "shop",
            &format!("/{servlet}"),
            &[(param, &value.to_string())],
        )
    };
    let mut requests: Vec<HttpRequest> = (0..SKUS).map(|sku| page("product", "sku", sku)).collect();
    for servlet in ["catalog", "top", "stats"] {
        requests.extend((0..CATEGORIES).map(|c| page(servlet, "category", c)));
    }
    requests
}

#[test]
fn a_registered_page_costs_under_540_bytes_and_3_blocks() {
    let portal = storefront();
    let requests = requests();
    assert_eq!(requests.len(), PAGES);

    // Every page once, one sync point: 4 300 rows, each filed under the page
    // its record names and stored typed.
    for req in &requests {
        assert_eq!(portal.request(req).served, Served::Generated);
    }
    let sync = portal.sync_point().unwrap();
    assert_eq!(
        (sync.mapper.mapped, sync.mapper.named),
        (PAGES as u64, PAGES as u64)
    );
    assert_eq!(sync.invalidation.registered, PAGES as u64);
    assert_eq!(portal.qi_url_map().len(), PAGES);

    // The same pages again, from an empty cache: every row is one the map
    // has, known as its query is logged. None is logged, mapped or
    // registered, and nothing is kept that was not kept before.
    let (sync, second_pass) = common::measure(|| {
        portal.page_cache().clear();
        for req in &requests {
            assert_eq!(portal.request(req).served, Served::Generated);
        }
        portal.sync_point().unwrap()
    });
    assert_eq!((sync.mapper.mapped, sync.mapper.known), (0, PAGES as u64));
    assert_eq!(sync.invalidation.registered, 0);
    assert_eq!(portal.qi_url_map().len(), PAGES);
    // What may differ is bookkeeping that does not follow the pages: the
    // sync point's timeline entry.
    println!(
        "a pass of {PAGES} duplicates: {} allocations, {} bytes left behind",
        second_pass.calls, second_pass.retained
    );
    assert!(
        second_pass.retained < 4096,
        "a pass of duplicates left {} bytes behind",
        second_pass.retained
    );
    assert!(
        second_pass.calls <= KNOWN_PASS_CALLS,
        "a pass of duplicates made {} allocations",
        second_pass.calls
    );

    // Hits: the key's text.
    let key = PageKey::raw("shop/product?g:sku=1");
    let (clone, cloned) = common::measure(|| key.clone());
    assert_eq!((cloned.calls, clone.as_str()), (0, key.as_str()));
    let (served, hits) = common::measure(|| {
        let served = requests.iter().filter(|req| {
            let outcome = portal.request(req);
            outcome.served == Served::CacheHit && outcome.key.is_some()
        });
        served.count()
    });
    assert_eq!(served, PAGES);
    assert_eq!(hits.calls, PAGES, "allocations of {PAGES} hits");

    // Misses mirrored to two in-process edges: the response, the origin and
    // both edges hold the one body the miss rendered.
    let edges: Vec<Arc<PageCache>> = (0..2)
        .map(|_| {
            Arc::new(PageCache::new(PageCacheConfig {
                capacity: 2 * PAGES,
                ..PageCacheConfig::default()
            }))
        })
        .collect();
    for edge in &edges {
        portal.register_edge_cache(edge.clone());
    }
    portal.page_cache().clear();
    let (bodies, mirrored) = common::measure(|| {
        let mut bodies = 0;
        for req in &requests[..MIRRORED] {
            let outcome = portal.request(req);
            assert_eq!(outcome.served, Served::Generated);
            assert_eq!(Arc::strong_count(&outcome.response.body), 4);
            bodies += outcome.response.body.len();
        }
        portal.sync_point().unwrap();
        bodies
    });
    assert!(edges.iter().all(|edge| edge.len() == MIRRORED));
    println!(
        "{MIRRORED} pages of {bodies} body bytes admitted at the origin and two edges: \
         {} bytes in {} blocks left on the heap",
        mirrored.retained, mirrored.retained_blocks
    );
    assert!(
        (mirrored.retained as usize) < bodies * 5 / 4,
        "{} bytes kept for {bodies} bytes of bodies",
        mirrored.retained
    );
    assert!(
        (mirrored.retained_blocks as usize) < MIRRORED + 64,
        "{} blocks kept for {MIRRORED} bodies",
        mirrored.retained_blocks
    );

    // Take the map and the invalidator out, let the rest of the portal go,
    // and weigh them.
    let map = portal.qi_url_map().clone();
    let invalidator = portal.with_invalidator(|inv| {
        std::mem::replace(inv, Invalidator::new(InvalidatorConfig::default()))
    });
    assert_eq!(invalidator.registry().total_instances(), PAGES);
    drop((portal, edges));
    let ((), freed_map) = common::measure(|| drop(map));
    let ((), freed_registry) = common::measure(|| drop(invalidator));
    let per_page = |n: isize| -n as f64 / PAGES as f64;
    println!(
        "per registered page: map {:.0} B / {:.2} blocks, then registry + predicate index \
         (and what they share) {:.0} B / {:.2} blocks",
        per_page(freed_map.retained),
        per_page(freed_map.retained_blocks),
        per_page(freed_registry.retained),
        per_page(freed_registry.retained_blocks),
    );
    let bytes = per_page(freed_map.retained + freed_registry.retained);
    let blocks = per_page(freed_map.retained_blocks + freed_registry.retained_blocks);
    println!("per registered page: {bytes:.0} bytes in {blocks:.2} blocks");
    assert!(bytes <= BYTES_PER_PAGE as f64, "{bytes:.0} bytes per page");
    assert!(blocks <= BLOCKS_PER_PAGE, "{blocks:.2} blocks per page");
}
