//! Concurrency integration test: the functional CachePortal system serves
//! requests, absorbs backend updates, and runs synchronization points from
//! multiple threads simultaneously without deadlock — and a final sync
//! point restores full freshness. And the admission rule under the same
//! contention: no page is cached whose generation a mapper run overlapped.
//! And attribution: however many threads miss at once, on one server or a
//! farm, every query is filed under the request that issued it and no other.
//! And the admission stamp without a race to win: a miss parked between its
//! queries and its request record while sync points run is not cached.

use cacheportal::db::schema::ColType;
use cacheportal::db::{Database, DbResult};
use cacheportal::web::{
    Connection, HttpRequest, ParamSource, QueryTemplate, Servlet, ServletSpec, SqlServlet,
};
use cacheportal::{CachePortal, Served};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

fn build_portal() -> CachePortal {
    build_portal_with_groups(8)
}

fn build_portal_with_groups(groups: i64) -> CachePortal {
    build_portal_serving(groups, Arc::new(items_servlet()))
}

fn build_portal_serving(groups: i64, servlet: Arc<dyn Servlet>) -> CachePortal {
    let mut db = Database::new();
    db.execute("CREATE TABLE items (grp INT, val INT, INDEX(grp))").unwrap();
    for i in 0..groups.max(200) {
        db.insert_row("items", vec![(i % groups).into(), i.into()])
            .unwrap();
    }
    let portal = CachePortal::builder(db).build().unwrap();
    portal.register_servlet(servlet);
    portal
}

fn items_servlet() -> SqlServlet {
    SqlServlet::new(
        ServletSpec::new("items").with_key_get_params(&["grp"]),
        "Items",
        vec![QueryTemplate::new(
            "SELECT grp, val FROM items WHERE grp = $1 ORDER BY val",
            vec![ParamSource::Get("grp".into(), ColType::Int)],
        )],
    )
}

#[test]
fn concurrent_requests_updates_and_syncs() {
    let portal = Arc::new(build_portal());
    let hits = AtomicU64::new(0);
    let served = AtomicU64::new(0);

    std::thread::scope(|scope| {
        // Four reader threads.
        for t in 0..4 {
            let portal = Arc::clone(&portal);
            let hits = &hits;
            let served = &served;
            scope.spawn(move || {
                for i in 0..150u64 {
                    let grp = ((i + t * 3) % 8).to_string();
                    let req = HttpRequest::get("h", "/items", &[("grp", &grp)]);
                    let out = portal.request(&req);
                    assert_eq!(out.response.status.code(), 200);
                    served.fetch_add(1, Ordering::Relaxed);
                    if out.served == Served::CacheHit {
                        hits.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
        // One writer thread.
        {
            let portal = Arc::clone(&portal);
            scope.spawn(move || {
                for i in 0..60i64 {
                    portal
                        .update(&format!("INSERT INTO items VALUES ({}, {})", i % 8, 1000 + i))
                        .unwrap();
                }
            });
        }
        // One synchronizer thread.
        {
            let portal = Arc::clone(&portal);
            scope.spawn(move || {
                for _ in 0..25 {
                    portal.sync_point().unwrap();
                    std::thread::yield_now();
                }
            });
        }
    });

    assert_eq!(served.load(Ordering::Relaxed), 600);
    // Mid-run hits may have been transiently stale (between update and
    // sync, by design); after the final sync point everything is fresh.
    portal.sync_point().unwrap();
    assert!(
        portal.stale_pages().is_empty(),
        "final sync point must restore freshness"
    );
    // The system made real use of the cache under contention.
    assert!(hits.load(Ordering::Relaxed) > 0);
}

#[test]
fn parallel_readers_share_cached_pages() {
    let portal = Arc::new(build_portal());
    // Warm a page, then hammer it from many threads: every request must be
    // a hit and byte-identical.
    let req = HttpRequest::get("h", "/items", &[("grp", "3")]);
    let warm = portal.request(&req).response.body;

    std::thread::scope(|scope| {
        for _ in 0..8 {
            let portal = Arc::clone(&portal);
            let req = req.clone();
            let warm = warm.clone();
            scope.spawn(move || {
                for _ in 0..100 {
                    let out = portal.request(&req);
                    assert_eq!(out.served, Served::CacheHit);
                    assert_eq!(out.response.body, warm);
                }
            });
        }
    });
    let stats = portal.page_cache().stats();
    assert_eq!(stats.hits, 800);
}

/// A page is admitted only if no sync point advanced the admission stamp,
/// and so no mapper drained the logs, between the start of its generation
/// and its admission. Without that rule this test finds, with no fault
/// injected, pages cached with no QI/URL row — a mapper run that falls into
/// a page's generation sees the page's query before its request record, and
/// gives the query to a concurrent request's window — and such a page is
/// never ejected: a handful per round of two readers missing on 400 pages
/// against back-to-back sync points.
#[test]
fn no_page_is_cached_whose_generation_a_mapper_run_overlapped() {
    const GROUPS: i64 = 400;
    const ROUNDS: usize = 60;
    let mut declined = 0;
    for round in 0..ROUNDS {
        let portal = build_portal_with_groups(GROUPS);
        let start = Barrier::new(3);
        let reading = AtomicBool::new(true);
        std::thread::scope(|scope| {
            let readers: Vec<_> = (0..2)
                .map(|t| {
                    let (portal, start) = (&portal, &start);
                    scope.spawn(move || {
                        start.wait();
                        for i in 0..GROUPS {
                            // One reader walks up, the other down.
                            let grp = if t == 0 { i } else { GROUPS - 1 - i };
                            let req = HttpRequest::get("h", "/items", &[("grp", &grp.to_string())]);
                            assert_eq!(portal.request(&req).response.status.code(), 200);
                        }
                    })
                })
                .collect();
            scope.spawn(|| {
                start.wait();
                while reading.load(Ordering::Relaxed) {
                    portal.sync_point().unwrap();
                }
            });
            for reader in readers {
                reader.join().unwrap();
            }
            reading.store(false, Ordering::Relaxed);
        });
        // Map what the last admissions logged; then every cached page must
        // have its rows.
        portal.sync_point().unwrap();
        let rowless: Vec<_> = (portal.page_cache().keys().into_iter())
            .filter(|key| portal.qi_url_map().entries_for_page(key).is_empty())
            .collect();
        assert!(rowless.is_empty(), "round {round}: cached with no QI/URL row: {rowless:?}");
        // And an update to every group ejects every page it changes.
        for grp in 0..GROUPS {
            portal
                .update(&format!("INSERT INTO items VALUES ({grp}, {})", 10_000 + grp))
                .unwrap();
        }
        portal.sync_point().unwrap();
        portal.sync_point().unwrap();
        let stale = portal.stale_pages();
        assert!(stale.is_empty(), "round {round}: stale after update + sync: {stale:?}");
        declined += (portal.obs().metrics).counter_value("cache.admission.declined_race");
    }
    println!("{declined} admissions declined over {ROUNDS} rounds");
}

/// The `items` servlet, except that its first generation parks after its
/// queries and before it returns: the queries are logged, the request record
/// is not. Only the first parks, since `stale_pages` regenerates through the
/// same servlet.
struct ParkOnce {
    inner: SqlServlet,
    park: Barrier,
    parked: AtomicBool,
}

impl Servlet for ParkOnce {
    fn spec(&self) -> &ServletSpec {
        self.inner.spec()
    }

    fn handle(&self, req: &HttpRequest, conn: &mut dyn Connection) -> DbResult<String> {
        let body = self.inner.handle(req, conn)?;
        if !self.parked.swap(true, Ordering::SeqCst) {
            self.park.wait(); // parked
            self.park.wait(); // released
        }
        Ok(body)
    }
}

/// Miss on `grp=1`, run `while_parked` with the miss parked, release it,
/// then run `after` and one sync point. The miss is served but declined, no
/// page is stale, and the next miss on the page is admitted.
fn parked_miss(while_parked: impl FnOnce(&CachePortal), after: impl FnOnce(&CachePortal)) {
    let servlet = Arc::new(ParkOnce {
        inner: items_servlet(),
        park: Barrier::new(2),
        parked: AtomicBool::new(false),
    });
    let portal = build_portal_serving(8, servlet.clone());
    let req = HttpRequest::get("h", "/items", &[("grp", "1")]);
    let served = std::thread::scope(|scope| {
        let miss = scope.spawn(|| portal.request(&req).served);
        servlet.park.wait();
        while_parked(&portal);
        servlet.park.wait();
        miss.join().unwrap()
    });
    assert_eq!(served, Served::Generated);
    after(&portal);
    portal.sync_point().unwrap();
    let stale = portal.stale_pages();
    assert!(stale.is_empty(), "stale: {stale:?}");
    let declined = || (portal.obs().metrics).counter_value("cache.admission.declined_race");
    assert_eq!(declined(), 1);
    assert_eq!(portal.request(&req).served, Served::Generated);
    assert_eq!(portal.request(&req).served, Served::CacheHit);
    assert_eq!(declined(), 1);
}

/// A sync point consumes an update to the page while it is generated: the
/// page does not reflect it, and the sync that consumed it could not eject
/// a page it had not mapped.
#[test]
fn a_miss_parked_across_a_consuming_sync_is_not_cached() {
    parked_miss(
        |portal| {
            portal.update("INSERT INTO items VALUES (1, 999)").unwrap();
            portal.sync_point().unwrap();
        },
        |_| {},
    );
}

/// Three sync points run while the page is generated and consume nothing,
/// but their mappers see its queries without its request record: they retain
/// them, then drop them after two runs. Cached, the page would never have its
/// rows, so a later update to it would not eject it.
#[test]
fn a_miss_parked_across_three_mapper_runs_is_not_cached() {
    parked_miss(
        |portal| {
            for _ in 0..3 {
                portal.sync_point().unwrap();
            }
        },
        |portal| {
            portal.update("INSERT INTO items VALUES (1, 999)").unwrap();
        },
    );
}

/// `portal_load`'s storefront: 4 000 product pages and 100 each of three
/// category pages, one query per page.
const STOREFRONT: [(&str, &str, usize, &str); 4] = [
    (
        "product",
        "sku",
        4000,
        "SELECT products.sku, products.name, products.price, inventory.warehouse, \
         inventory.stock FROM products, inventory \
         WHERE products.sku = $1 AND products.sku = inventory.sku",
    ),
    (
        "catalog",
        "category",
        100,
        "SELECT sku, name, price FROM products WHERE category = $1 ORDER BY price, sku",
    ),
    (
        "top",
        "category",
        100,
        "SELECT sku, name, price FROM products WHERE category = $1 ORDER BY price DESC LIMIT 10",
    ),
    (
        "stats",
        "category",
        100,
        "SELECT COUNT(*), SUM(price) FROM products WHERE category = $1",
    ),
];

fn storefront(nodes: usize) -> CachePortal {
    let mut db = Database::new();
    db.execute(
        "CREATE TABLE products (sku INT, name TEXT, category INT, price INT, \
         INDEX(sku), INDEX(category))",
    )
    .unwrap();
    db.execute("CREATE TABLE inventory (sku INT, warehouse INT, stock INT, INDEX(sku))")
        .unwrap();
    for sku in 0..4000i64 {
        let product = vec![sku.into(), format!("Product {sku}").into(), (sku % 100).into(), (100 + sku).into()];
        db.insert_row("products", product).unwrap();
        db.insert_row("inventory", vec![sku.into(), (sku % 8).into(), (sku % 500).into()])
            .unwrap();
    }
    let portal = CachePortal::builder(db)
        .nodes(nodes)
        .cache_config(cacheportal::cache::PageCacheConfig {
            capacity: 8600,
            ..Default::default()
        })
        .build()
        .unwrap();
    for (name, param, _, sql) in STOREFRONT {
        portal.register_servlet(Arc::new(SqlServlet::new(
            ServletSpec::new(name).with_key_get_params(&[param]),
            name,
            vec![QueryTemplate::new(sql, vec![ParamSource::Get(param.into(), ColType::Int)])],
        )));
    }
    portal
}

/// Every page of the storefront missed once, from `threads` threads at a
/// time, then one sync point: the map holds exactly one row per page, and
/// each row's instance is the one its page's servlet issued for its page.
/// Joined on interval containment this counted 4 980–7 245 rows on two
/// threads: a query was filed under every request it overlapped.
fn prefill_maps_one_row_per_page(nodes: usize, threads: usize) {
    let portal = storefront(nodes);
    // (request, the page it makes, the query instance that page depends on)
    let mut pages = Vec::new();
    for (name, param, count, sql) in STOREFRONT {
        for value in 0..count {
            let req = HttpRequest::get("shop", &format!("/{name}"), &[(param, &value.to_string())]);
            let page = format!("shop/{name}?g:{param}={value}");
            pages.push((req, page, sql.replace("$1", &value.to_string())));
        }
    }
    let start = Barrier::new(threads);
    std::thread::scope(|scope| {
        for t in 0..threads {
            let (portal, pages, start) = (&portal, &pages, &start);
            scope.spawn(move || {
                start.wait();
                for (req, _, _) in pages.iter().skip(t).step_by(threads) {
                    assert_eq!(portal.request(req).served, Served::Generated);
                }
            });
        }
    });
    let sync = portal.sync_point().unwrap();
    let at = format!("{nodes} node(s), {threads} thread(s)");
    let mapper = sync.mapper;
    assert_eq!(
        (mapper.mapped, mapper.by_id, mapper.ambiguous, mapper.retained),
        (pages.len() as u64, pages.len() as u64, 0, 0),
        "{at}"
    );
    assert_eq!(sync.invalidation.registered, pages.len() as u64, "{at}");
    let mut rows: Vec<(String, String)> = (portal.qi_url_map().all().into_iter())
        .map(|row| (row.page_key.to_string(), row.sql))
        .collect();
    rows.sort();
    let mut want: Vec<(String, String)> = (pages.into_iter()).map(|(_, page, sql)| (page, sql)).collect();
    want.sort();
    assert!(rows == want, "{at}: rows differ from one per page, each under its own page");
    if nodes > 1 {
        let loads = portal.node_loads();
        assert!(loads.iter().all(|&served| served > 0), "{at}: {loads:?}");
    }
}

#[test]
fn concurrent_misses_map_exactly_one_row_per_page() {
    for threads in [1, 2, 4] {
        prefill_maps_one_row_per_page(1, threads);
    }
}

/// The same on a farm: every node numbers its requests from 1, so the ids
/// of different nodes coincide all the time — and never meet, each node's
/// mapper joining that node's two logs.
#[test]
fn concurrent_misses_on_a_farm_map_exactly_one_row_per_page() {
    prefill_maps_one_row_per_page(3, 4);
}
