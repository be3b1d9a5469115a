//! End-to-end breaker visibility: a portal whose DBMS flaps (bursty poll
//! failures) must trip the per-query-type circuit breaker, degrade to the
//! paper's no-polling conservative policy without stalling a sync point,
//! report the state in `/metrics` counters/gauges and as a `503` from
//! `/healthz` — and close the breaker again once the burst passes.

use cacheportal::db::schema::ColType;
use cacheportal::db::{Database, FaultPlan, FaultSpec};
use cacheportal::obs::HealthSnapshot;
use cacheportal::web::{HttpRequest, ParamSource, QueryTemplate, ServletSpec, SqlServlet};
use cacheportal::CachePortal;
use std::sync::Arc;

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

/// What `/healthz` would answer now.
fn health(p: &CachePortal) -> HealthSnapshot {
    p.obs().health.snapshot(&p.obs().metrics)
}

fn counter(p: &CachePortal, name: &str) -> u64 {
    p.metrics_snapshot().metrics.counters.get(name).copied().unwrap_or(0)
}

fn gauge(p: &CachePortal, name: &str) -> i64 {
    p.metrics_snapshot().metrics.gauges.get(name).copied().unwrap_or(0)
}

/// A portal over a DBMS whose polls flap: epochs (= sync ordinals) 0..6
/// fault every poll, 7..13 are clean, then the window would wrap — the
/// tests stay within one period.
fn flapping_portal() -> (CachePortal, HttpRequest) {
    let spec = FaultSpec {
        seed: 7,
        poll_flap_period: 14,
        poll_flap_burst: 7,
        ..FaultSpec::default()
    };
    let portal = CachePortal::builder(example_db())
        .fault_plan(FaultPlan::new(spec))
        .build()
        .unwrap();
    portal.register_servlet(Arc::new(SqlServlet::new(
        ServletSpec::new("carSearch").with_key_get_params(&["maxprice"]),
        "Car search",
        vec![QueryTemplate::new(
            "SELECT Car.maker, Car.model, Car.price, Mileage.EPA FROM Car, Mileage \
             WHERE Car.model = Mileage.model AND Car.price < $1",
            vec![ParamSource::Get("maxprice".into(), ColType::Int)],
        )],
    )));
    let req = HttpRequest::get("shop.example.com", "/carSearch", &[("maxprice", "30000")]);
    (portal, req)
}

/// Drive `syncs` record-consuming sync points, each after a request for
/// the page and an update under its maxprice: the Car-side predicate passes
/// locally, but deciding the join needs a residual poll on Mileage — the
/// site the flap faults.
fn drive(portal: &CachePortal, req: &HttpRequest, price: &mut i64, syncs: usize) {
    for _ in 0..syncs {
        portal.request(req);
        portal
            .update(&format!("INSERT INTO Car VALUES ('Kia','Rio',{price})"))
            .unwrap();
        *price += 1;
        portal.sync_point().unwrap();
    }
}

#[test]
fn poll_flap_opens_breaker_surfaces_health_and_closes_again() {
    let (portal, req) = flapping_portal();

    // Healthy at rest.
    assert_eq!(health(&portal).to_response().status, 200);

    // Drive sync points through the faulty burst: each one polls (join
    // residue), every attempt faults, and the cumulative faults trip the
    // breaker. No sync point may stall or error out.
    let mut price = 20000;
    drive(&portal, &req, &mut price, 7);
    assert!(counter(&portal, "invalidator.polls.faulted") > 0, "burst never faulted a poll");
    assert!(counter(&portal, "invalidator.breaker.opened") >= 1, "breaker never opened");
    assert!(gauge(&portal, "invalidator.breaker.open_types") >= 1, "no type shows open");
    assert!(
        counter(&portal, "invalidator.breaker.degraded_verdicts") >= 1,
        "open breaker must produce breaker-degraded verdicts"
    );

    // Open breaker => /healthz is a 503 naming the breaker.
    let resp = health(&portal).to_response();
    assert_eq!(resp.status, 503, "open breaker must unhealth the portal: {}", resp.body);
    assert!(resp.body.contains("breaker-open"), "reason names the breaker: {}", resp.body);

    // The burst is over: clean sync points age the cooldown, half-open
    // re-probes, and a clean probe closes the breaker.
    drive(&portal, &req, &mut price, 6);
    assert!(counter(&portal, "invalidator.breaker.half_opened") >= 1, "breaker never probed");
    assert!(counter(&portal, "invalidator.breaker.closed") >= 1, "breaker never closed");
    assert_eq!(gauge(&portal, "invalidator.breaker.open_types"), 0);
    assert_eq!(gauge(&portal, "invalidator.breaker.half_open_types"), 0);

    // Closed breaker => healthy again, and the oracle stayed clean the
    // whole time (degradation may over-eject, never under-eject).
    let resp = health(&portal).to_response();
    assert_eq!(resp.status, 200, "closed breaker must restore health: {}", resp.body);
    assert_eq!(resp.body, "ok\n");
    assert!(portal.stale_pages().is_empty());
}

#[test]
fn reason_gauges_follow_healthz_with_the_slo_engine_off() {
    let (portal, req) = flapping_portal();
    portal.obs().slo.set_enabled(false);
    let reason = "health.reason.breaker-open";
    let mut price = 20000;
    drive(&portal, &req, &mut price, 7);
    let resp = health(&portal).to_response();
    assert_eq!(resp.status, 503, "open breaker must unhealth the portal: {}", resp.body);
    assert!(gauge(&portal, reason) >= 1, "{reason} reads 0 while /healthz says: {}", resp.body);
    assert_eq!(
        gauge(&portal, reason),
        gauge(&portal, "invalidator.breaker.open_types"),
        "the gauge counts what /healthz counts"
    );
    drive(&portal, &req, &mut price, 6);
    assert_eq!(health(&portal).to_response().status, 200);
    assert_eq!(gauge(&portal, reason), 0);
}
