//! Quickstart: cache a database-driven page, update the database, and watch
//! CachePortal invalidate exactly that page at the next synchronization
//! point.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use cacheportal::{CachePortal, Served};
use cacheportal::db::schema::ColType;
use cacheportal::db::Database;
use cacheportal::web::{HttpRequest, ParamSource, QueryTemplate, ServletSpec, SqlServlet};
use std::sync::Arc;

fn main() {
    // 1. A database-driven site: the paper's Example 4.1 schema.
    let mut db = Database::new();
    db.execute("CREATE TABLE Car (maker TEXT, model TEXT, price INT)").unwrap();
    db.execute("CREATE TABLE Mileage (model TEXT, EPA FLOAT)").unwrap();
    db.execute(
        "INSERT INTO Car VALUES ('Toyota','Avalon',25000), ('Honda','Civic',18000)",
    )
    .unwrap();
    db.execute("INSERT INTO Mileage VALUES ('Avalon', 28.0), ('Civic', 36.5)").unwrap();

    // 2. Wire the CachePortal deployment (web cache + sniffer + invalidator).
    let portal = CachePortal::builder(db).build().unwrap();
    portal.register_servlet(Arc::new(SqlServlet::new(
        ServletSpec::new("carSearch").with_key_get_params(&["maxprice"]),
        "Cars under your budget",
        vec![QueryTemplate::new(
            "SELECT Car.maker, Car.model, Car.price, Mileage.EPA FROM Car, Mileage \
             WHERE Car.model = Mileage.model AND Car.price < $1",
            vec![ParamSource::Get("maxprice".into(), ColType::Int)],
        )],
    )));

    let req = HttpRequest::get("shop.example.com", "/carSearch", &[("maxprice", "20000")]);

    // 3. First request generates the page; the second is a cache hit.
    let first = portal.request(&req);
    println!("first request : {:?}", first.served);
    let second = portal.request(&req);
    println!("second request: {:?}", second.served);
    assert_eq!(second.served, Served::CacheHit);

    // Let the sniffer map the page to its query instance.
    portal.sync_point().unwrap();

    // 4. An irrelevant update (price above every cached bound): no ejection.
    portal.update("INSERT INTO Car VALUES ('Bentley','Azure',300000)").unwrap();
    let report = portal.sync_point().unwrap();
    println!("irrelevant update ejected {} page(s)", report.ejected);
    assert_eq!(portal.request(&req).served, Served::CacheHit);

    // 5. A relevant update: a cheap car with mileage data.
    portal.update("INSERT INTO Mileage VALUES ('Rio', 33.0)").unwrap();
    portal.update("INSERT INTO Car VALUES ('Kia','Rio',12000)").unwrap();
    let report = portal.sync_point().unwrap();
    println!(
        "relevant update ejected {} page(s), issued {} polling query(ies)",
        report.ejected, report.invalidation.polls.issued
    );

    let fresh = portal.request(&req);
    println!("after sync    : {:?}", fresh.served);
    assert_eq!(fresh.served, Served::Generated);
    assert!(fresh.response.body.contains("Rio"));
    println!("\nfresh page now lists the Kia Rio:\n{}", fresh.response.body);

    // The oracle agrees no cached page is stale.
    assert!(portal.stale_pages().is_empty());
    println!("freshness oracle: no stale pages ✓");

    // 6. Why was the page ejected? The provenance log kept the whole chain:
    //    consumed LSN range → per-table ΔR groups → matched query type with
    //    bound parameters → verdict → QI rows → URL.
    let ejected_url = &portal.obs().provenance.recent(1)[0].url;
    let chain = portal.explain_invalidation(ejected_url);
    println!("\nwhy was {ejected_url} ejected?");
    let m = &chain.matches[0];
    println!("  update log LSNs {}..={}", m.lsn_first, m.lsn_last);
    let c = &m.causes[0];
    println!("  matched type : {}", c.type_sql);
    println!("  bound params : {:?}", c.params);
    println!("  verdict      : {} ({})", c.verdict, c.detail);
    for row in chain.qi_map.iter().flatten() {
        println!("  qi row       : {}", row.sql);
    }
}
