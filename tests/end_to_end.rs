//! End-to-end integration tests across all crates: the paper's Example 4.1
//! deployment driven through real HTTP requests, the sniffer, and the
//! invalidator.

use cacheportal::db::schema::ColType;
use cacheportal::db::Database;
use cacheportal::invalidator::{InvalidationPolicy, QueryTypeId};
use cacheportal::web::{HttpRequest, ParamSource, QueryTemplate, ServletSpec, SqlServlet};
use cacheportal::{CachePortal, Served};
use std::sync::Arc;

fn example_db() -> Database {
    let mut db = Database::new();
    db.execute("CREATE TABLE Car (maker TEXT, model TEXT, price INT, INDEX(model))").unwrap();
    db.execute("CREATE TABLE Mileage (model TEXT, EPA FLOAT, INDEX(model))").unwrap();
    db.execute(
        "INSERT INTO Car VALUES ('Toyota','Avalon',25000), ('Honda','Civic',18000), \
         ('Mitsubishi','Eclipse',20000)",
    )
    .unwrap();
    db.execute("INSERT INTO Mileage VALUES ('Avalon', 28.0), ('Civic', 36.5)").unwrap();
    db
}

fn join_servlet() -> Arc<dyn cacheportal::web::Servlet> {
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

fn portal() -> CachePortal {
    let p = CachePortal::builder(example_db()).build().unwrap();
    p.register_servlet(join_servlet());
    p
}

fn search(maxprice: i64) -> HttpRequest {
    HttpRequest::get("shop", "/carSearch", &[("maxprice", &maxprice.to_string())])
}

#[test]
fn paper_example_4_1_through_http() {
    let p = portal();
    // URL1 ~ Query1 (price < 20000).
    let url1 = search(20000);
    assert_eq!(p.request(&url1).served, Served::Generated);
    p.sync_point().unwrap();

    // Insert (Mitsubishi, Eclipse, 20000): does not satisfy the condition —
    // decided without polling, page survives.
    p.update("INSERT INTO Car VALUES ('Mitsubishi','Eclipse',20000)").unwrap();
    let r = p.sync_point().unwrap();
    assert_eq!(r.ejected, 0);
    assert_eq!(r.invalidation.polls.issued, 0);
    assert_eq!(p.request(&url1).served, Served::CacheHit);

    // Insert (Toyota, Avalon, 15000): satisfies price and the PollQuery
    // over Mileage finds 'Avalon' — URL1 must be invalidated.
    p.update("INSERT INTO Car VALUES ('Toyota','Avalon',15000)").unwrap();
    let r = p.sync_point().unwrap();
    assert_eq!(r.ejected, 1);
    assert_eq!(r.invalidation.polls.issued, 1);
    let regenerated = p.request(&url1);
    assert_eq!(regenerated.served, Served::Generated);
    assert!(regenerated.response.body.contains("15000"));
}

#[test]
fn cache_identity_ignores_param_order_and_noise() {
    let p = portal();
    let a = HttpRequest::get("shop", "/carSearch", &[("maxprice", "20000"), ("utm", "x")]);
    let b = HttpRequest::get("shop", "/carSearch", &[("utm", "y"), ("maxprice", "20000")]);
    assert_eq!(p.request(&a).served, Served::Generated);
    assert_eq!(
        p.request(&b).served,
        Served::CacheHit,
        "same key params → same cached page"
    );
}

#[test]
fn multi_page_selective_invalidation() {
    let p = portal();
    let pages: Vec<HttpRequest> = [19000, 21000, 26000, 40000].iter().map(|m| search(*m)).collect();
    for req in &pages {
        p.request(req);
    }
    p.sync_point().unwrap();
    assert_eq!(p.page_cache().len(), 4);

    // (Kia, Rio, 20000) with mileage: affects bounds > 20000 only.
    p.update("INSERT INTO Mileage VALUES ('Rio', 33.0)").unwrap();
    p.update("INSERT INTO Car VALUES ('Kia','Rio',20000)").unwrap();
    let r = p.sync_point().unwrap();
    assert_eq!(r.ejected, 3, "21000, 26000, 40000 pages (Mileage insert also checked)");
    assert_eq!(p.request(&pages[0]).served, Served::CacheHit);
    for req in &pages[1..] {
        assert_eq!(p.request(req).served, Served::Generated);
    }
    assert!(p.stale_pages().is_empty());
}

#[test]
fn deletes_and_updates_invalidate() {
    let p = portal();
    let url = search(30000);
    let before = p.request(&url);
    assert!(before.response.body.contains("Avalon"));
    p.sync_point().unwrap();

    p.update("UPDATE Car SET price = 31000 WHERE model = 'Avalon'").unwrap();
    p.sync_point().unwrap();
    let after = p.request(&url);
    assert_eq!(after.served, Served::Generated);
    assert!(!after.response.body.contains("Avalon"), "page reflects the price move");

    p.sync_point().unwrap();
    p.update("DELETE FROM Mileage WHERE model = 'Civic'").unwrap();
    p.sync_point().unwrap();
    let after = p.request(&url);
    assert!(!after.response.body.contains("Civic"));
    assert!(p.stale_pages().is_empty());
}

#[test]
fn conservative_policy_end_to_end_is_safe_but_coarser() {
    let exact = portal();
    let cons = portal();
    for p in [&exact, &cons] {
        p.request(&search(20000));
        p.sync_point().unwrap();
    }
    cons.set_policy(QueryTypeId(0), InvalidationPolicy::Conservative);

    // A car passing the price bound but with no Mileage partner: exact
    // polls and keeps the page; conservative ejects it.
    for p in [&exact, &cons] {
        p.update("INSERT INTO Car VALUES ('Dodge','Viper',15000)").unwrap();
    }
    let re = exact.sync_point().unwrap();
    let rc = cons.sync_point().unwrap();
    assert_eq!(re.ejected, 0);
    assert_eq!(rc.ejected, 1);
    assert_eq!(re.invalidation.polls.issued, 1);
    assert_eq!(rc.invalidation.polls.issued, 0);
    assert!(exact.stale_pages().is_empty());
    assert!(cons.stale_pages().is_empty());
}

#[test]
fn two_servlets_do_not_cross_invalidate() {
    let p = portal();
    p.register_servlet(Arc::new(SqlServlet::new(
        ServletSpec::new("mileageOnly").with_key_get_params(&["model"]),
        "Mileage lookup",
        vec![QueryTemplate::new(
            "SELECT EPA FROM Mileage WHERE model = $1",
            vec![ParamSource::Get("model".into(), ColType::Str)],
        )],
    )));
    let car_page = search(20000);
    let mileage_page = HttpRequest::get("shop", "/mileageOnly", &[("model", "Civic")]);
    p.request(&car_page);
    p.request(&mileage_page);
    p.sync_point().unwrap();

    // A Car-only update that misses the join cannot touch the mileage page.
    p.update("INSERT INTO Car VALUES ('Lada','Niva',90000)").unwrap();
    p.sync_point().unwrap();
    assert_eq!(p.request(&mileage_page).served, Served::CacheHit);
    assert_eq!(p.request(&car_page).served, Served::CacheHit);

    // A Mileage update for Civic touches both (join + direct lookup).
    p.update("UPDATE Mileage SET EPA = 37.5 WHERE model = 'Civic'").unwrap();
    let r = p.sync_point().unwrap();
    assert_eq!(r.ejected, 2);
    assert!(p.stale_pages().is_empty());
}

/// A schema change that leaves a registered instance unable to analyse must
/// not cost the window's other verdicts: the instance is a `bind-failure`
/// verdict and its page goes, and the unrelated Car page that the same
/// batch changed goes with its ordinary verdict, in the same sync point.
#[test]
fn an_instance_that_no_longer_analyses_is_ejected_with_the_rest_of_its_window() {
    let p = CachePortal::builder(example_db()).build().unwrap();
    p.register_servlet(Arc::new(SqlServlet::new(
        ServletSpec::new("car").with_key_get_params(&["m"]),
        "Car",
        vec![QueryTemplate::new(
            "SELECT maker, price FROM Car WHERE model = $1",
            vec![ParamSource::Get("m".into(), ColType::Str)],
        )],
    )));
    p.register_servlet(Arc::new(SqlServlet::new(
        ServletSpec::new("thrifty").with_key_get_params(&["epa"]),
        "Thrifty models",
        vec![QueryTemplate::new(
            "SELECT model FROM Mileage WHERE EPA > $1",
            vec![ParamSource::Get("epa".into(), ColType::Float)],
        )],
    )));
    let car = HttpRequest::get("shop", "/car", &[("m", "Civic")]);
    let thrifty = HttpRequest::get("shop", "/thrifty", &[("epa", "30")]);
    assert_eq!(p.request(&car).served, Served::Generated);
    assert_eq!(p.request(&thrifty).served, Served::Generated);
    p.sync_point().unwrap();
    assert_eq!(p.page_cache().len(), 2);

    // Mileage comes back without `EPA`: the thrifty type still compiles
    // (its table exists) and then fails on every Mileage tuple.
    p.update("DROP TABLE Mileage").unwrap();
    p.update("CREATE TABLE Mileage (model TEXT, mpg FLOAT)").unwrap();
    p.update("INSERT INTO Mileage VALUES ('Civic', 36.5)").unwrap();
    p.update("UPDATE Car SET price = 99999 WHERE model = 'Civic'").unwrap();

    let r = p.sync_point().expect("a sync point does not fail on analysis");
    assert_eq!(r.ejected, 2, "both pages go in the window that changed them");
    assert_eq!(r.invalidation.bind_failures, 1);
    assert!(p.stale_pages().is_empty());

    let verdict = |url: &str| {
        let doc = p.explain_invalidation(url);
        assert_eq!(doc.matches.len(), 1, "{url}: {doc:?}");
        doc.matches[0].causes[0].clone()
    };
    let mileage = verdict("shop/thrifty?g:epa=30");
    assert_eq!(mileage.verdict, "bind-failure");
    assert!(mileage.detail.contains("EPA"), "{}", mileage.detail);
    assert_eq!(verdict("shop/car?g:m=Civic").verdict, "local-predicate");

    let regenerated = p.request(&car);
    assert_eq!(regenerated.served, Served::Generated);
    assert!(regenerated.response.body.contains("99999"));
}

#[test]
fn qi_url_map_grows_only_with_new_pages() {
    let p = portal();
    p.request(&search(20000));
    p.sync_point().unwrap();
    let rows = p.qi_url_map().len();
    // Re-requesting the same (cached) page adds nothing.
    p.request(&search(20000));
    p.sync_point().unwrap();
    assert_eq!(p.qi_url_map().len(), rows);
    // A new page adds one row.
    p.request(&search(22000));
    p.sync_point().unwrap();
    assert_eq!(p.qi_url_map().len(), rows + 1);
}
