//! A page generated again whose QI/URL rows the map already holds: the query
//! log keeps no record of its queries (they are counted known), the mapper
//! maps nothing, and an update that changes the page still ejects it — the
//! rows were registered when they were first mapped, and a row is never
//! removed from the map (DESIGN §3.4).

use cacheportal::db::schema::ColType;
use cacheportal::db::Database;
use cacheportal::sniffer::MapperReport;
use cacheportal::web::{HttpRequest, ParamSource, QueryTemplate, ServletSpec, SqlServlet};
use cacheportal::{CachePortal, Served};
use std::sync::Arc;

fn portal() -> CachePortal {
    let mut db = Database::new();
    db.execute("CREATE TABLE Car (maker TEXT, model TEXT, price INT)").unwrap();
    db.execute("INSERT INTO Car VALUES ('Toyota','Avalon',25000), ('Honda','Civic',18000)")
        .unwrap();
    let portal = CachePortal::builder(db).build().unwrap();
    portal.register_servlet(Arc::new(SqlServlet::new(
        ServletSpec::new("cars").with_key_get_params(&["maxprice"]),
        "Cars",
        vec![QueryTemplate::new(
            "SELECT maker, model FROM Car WHERE price < $1",
            vec![ParamSource::Get("maxprice".into(), ColType::Int)],
        )],
    )));
    portal
}

fn cars_under(maxprice: i64) -> HttpRequest {
    HttpRequest::get("shop", "/cars", &[("maxprice", &maxprice.to_string())])
}

#[test]
fn a_page_generated_again_from_known_rows_logs_nothing_and_is_still_ejected() {
    let p = portal();
    let page = p.request(&cars_under(20000)).key.expect("a routed page");
    let first = p.sync_point().unwrap();
    assert_eq!((first.mapper.mapped, first.mapper.known), (1, 0));
    assert_eq!(first.invalidation.registered, 1);

    // Evicted, then generated again: its one query's row is known.
    assert_eq!(p.page_cache().invalidate([&page]), 1);
    let again = p.request(&cars_under(20000));
    assert_eq!(again.served, Served::Generated);
    let sync = p.sync_point().unwrap();
    assert_eq!((sync.mapper.mapped, sync.mapper.known), (0, 1));
    // No query record reached the mapper: the log stayed empty.
    let only_known = MapperReport {
        known: 1,
        elapsed_micros: sync.mapper.elapsed_micros,
        ..MapperReport::default()
    };
    assert_eq!(sync.mapper, only_known);
    assert_eq!(sync.invalidation.registered, 0);
    assert!(p.page_cache().contains(&page), "the page is cached again");

    // An update that changes the page ejects it, from the row registered
    // at the first sync point.
    p.update("INSERT INTO Car VALUES ('Kia','Rio',12000)").unwrap();
    let sync = p.sync_point().unwrap();
    assert_eq!(sync.ejected, 1);
    assert!(!p.page_cache().contains(&page));
    assert!(p.stale_pages().is_empty());
    let regenerated = p.request(&cars_under(20000));
    assert_eq!(regenerated.served, Served::Generated);
    assert!(regenerated.response.body.contains("Rio"));
}
