//! End-to-end freshness-SLO breach drill: a portal whose staleness windows
//! blow past the shipped 1 s objective must fire the multi-window
//! burn-rate alert, flip `/healthz` to 503 with the canonical
//! `slo-fast-burn` reason, automatically capture a black-box flight record
//! whose causal chains resolve against its own trace section, and — once
//! the windows age past the long lookback and clean syncs resume — resolve
//! the alert and restore health. The `stable=1` bundle rendering must be
//! byte-identical across two portals driven through the same workload. A
//! cold start, every request a miss, fires nothing.

use cacheportal::db::schema::ColType;
use cacheportal::db::Database;
use cacheportal::obs::{verify_flight_record, FlightBundle, HealthSnapshot};
use cacheportal::web::{HttpRequest, ParamSource, QueryTemplate, ServletSpec, SqlServlet, Status};
use cacheportal::CachePortal;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// What `/healthz` would answer now.
fn health(p: &CachePortal) -> HealthSnapshot {
    p.obs().health.snapshot(&p.obs().metrics)
}

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn temp_dir() -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "cp-slo-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&d).unwrap();
    d
}

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

/// A staleness window five times the 1 s objective, in logical µs.
const STALE: u64 = 5_000_000;

fn portal_with(flight_dir: &std::path::Path) -> CachePortal {
    let portal = CachePortal::builder(example_db())
        .flight_dir(flight_dir.to_path_buf())
        .build()
        .unwrap();
    portal.register_servlet(Arc::new(SqlServlet::new(
        ServletSpec::new("carSearch").with_key_get_params(&["maxprice"]),
        "Car search",
        vec![QueryTemplate::new(
            "SELECT Car.maker, Car.model, Car.price FROM Car WHERE Car.price < $1",
            vec![ParamSource::Get("maxprice".into(), ColType::Int)],
        )],
    )));
    portal
}

/// One cache-filling request + invalidating update + sync. With
/// `stale_micros > 0`, the clock advances between commit and sync so the
/// closed staleness window measures that long.
fn cycle(portal: &CachePortal, price: &mut i64, stale_micros: u64) {
    let req = HttpRequest::get("shop.example.com", "/carSearch", &[("maxprice", "30000")]);
    portal.request(&req);
    portal
        .update(&format!("INSERT INTO Car VALUES ('Kia','Rio',{price})"))
        .unwrap();
    *price += 1;
    if stale_micros > 0 {
        portal.advance_clock(stale_micros);
    }
    portal.sync_point().unwrap();
}

/// The scripted drill: clean baseline, then windows 5× over threshold.
fn run_breach_workload(portal: &CachePortal) {
    let mut price = 20_000i64;
    for _ in 0..8 {
        cycle(portal, &mut price, 0);
    }
    for _ in 0..4 {
        cycle(portal, &mut price, STALE);
    }
}

fn http_get(addr: &str, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(stream, "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n").unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let code: u16 = raw.split_whitespace().nth(1).unwrap().parse().unwrap();
    let body = raw.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    (code, body)
}

#[test]
fn breach_fires_dumps_black_box_and_resolves() {
    let dir = temp_dir();
    let portal = portal_with(&dir);
    let mut price = 20_000i64;
    assert_eq!(health(&portal).to_response().status, 200, "healthy at rest");

    // Clean baseline: windows close in a few logical µs, well under the
    // 1 s objective. Nothing fires.
    for _ in 0..8 {
        cycle(&portal, &mut price, 0);
    }
    let (fast, slow) = portal.obs().slo.firing_counts();
    assert_eq!((fast, slow), (0, 0), "baseline must stay healthy");
    assert_eq!(health(&portal).to_response().status, 200);

    // Breach: four windows of 5 s each — 5× the objective. The bad
    // fraction (4 bad / 12 total) burns the 1% budget at ~33×, over both
    // the fast pair's 14.4× and the slow pair's 6× thresholds.
    for _ in 0..4 {
        cycle(&portal, &mut price, STALE);
    }
    let (fast, slow) = portal.obs().slo.firing_counts();
    assert!(fast >= 1, "fast pair must fire on a breached staleness objective");
    assert!(slow >= 1, "slow pair must fire too (lower threshold)");
    let fired: Vec<_> = portal.obs().slo.alerts_recent(16);
    assert!(
        fired.iter().any(|a| a.objective == "staleness-p99" && a.state == "firing"),
        "alert log must record the staleness-p99 firing transition"
    );
    let firing = fired.iter().filter(|a| a.state == "firing").count();
    assert!(firing >= 2, "both burn pairs' firing transitions are logged: {firing}");

    // The breach degraded /healthz to 503 with the canonical reason code,
    // over real HTTP.
    let server = portal.serve_admin("127.0.0.1:0").unwrap();
    let addr = server.addr().to_string();
    let (code, body) = http_get(&addr, "/healthz");
    assert_eq!(code, 503, "fast-burn alert must unhealth the portal: {body}");
    assert!(body.contains("slo-fast-burn"), "reason names the burn: {body}");

    // /slo tells the same story with the same reason codes as context.
    let (code, body) = http_get(&addr, "/slo");
    assert_eq!(code, 200);
    assert!(body.contains("\"staleness-p99\""));
    assert!(body.contains("slo-fast-burn"), "/slo context must carry the reason: {body}");

    // The black box flew itself: each newly fired alert captured a bundle,
    // and the armed flight directory has the atomic on-disk copies.
    assert!(portal.obs().recorder.recorded() >= 1, "breach must auto-capture a bundle");
    let mut dumps: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            let name = p.file_name().unwrap().to_string_lossy().to_string();
            name.starts_with("flightrecord-") && name.ends_with(".json")
        })
        .collect();
    dumps.sort();
    assert!(!dumps.is_empty(), "armed flight dir must hold at least one dump");
    let raw = std::fs::read_to_string(&dumps[0]).unwrap();
    let bundle: FlightBundle = serde_json::from_str(&raw).unwrap();
    assert_eq!(bundle.schema, "cacheportal.flightrecord.v1");
    assert!(
        bundle.reason.starts_with("slo-breach:staleness-p99:"),
        "auto-dump reason names the breached objective"
    );
    // Bundle-local coherence: provenance trace ids resolve against the
    // bundle's own trace section, all the way to a sync.point root.
    let verified = verify_flight_record(&bundle).expect("bundle chains must resolve");
    assert!(verified > 0, "the breach window ejected pages, so chains must exist");
    // ... and the live portal's full-fidelity chains agree.
    assert!(portal.obs().verify_causal_chains().unwrap() > 0);

    // A retained bundle is served as the text it was recorded as.
    assert!(dumps[0].ends_with("flightrecord-000000.json"));
    let (code, body) = http_get(&addr, "/flightrecord?seq=0");
    assert_eq!(code, 200);
    assert_eq!(body, raw, "GET /flightrecord?seq=0 against the dump of capture 0");

    // The index endpoint lists the captures.
    let (code, body) = http_get(&addr, "/flightrecord");
    assert_eq!(code, 200);
    assert!(body.contains("cacheportal.flightrecord.v1.index"));
    assert!(body.contains("slo-breach:staleness-p99"));
    drop(server);

    // The JSONL export carries the alert transitions and the captures.
    let mut jsonl = Vec::new();
    portal.export_jsonl(&mut jsonl).unwrap();
    let jsonl = String::from_utf8(jsonl).unwrap();
    assert!(jsonl.contains("\"kind\":\"alert\""), "export carries alert lines");
    assert!(jsonl.contains("\"kind\":\"flightrecord\""), "export carries flight-record lines");

    // Resolution: age the windows past the 6h long lookback, then resume
    // clean syncs. The burn drops to zero in every window and the alerts
    // resolve; /healthz recovers to the exact healthy contract.
    portal.advance_clock(7 * 3600 * 1_000_000);
    for _ in 0..4 {
        cycle(&portal, &mut price, 0);
    }
    let (fast, slow) = portal.obs().slo.firing_counts();
    assert_eq!((fast, slow), (0, 0), "aged windows must resolve every alert");
    let alerts = portal.obs().slo.alerts_recent(32);
    assert!(
        alerts.iter().any(|a| a.objective == "staleness-p99" && a.state == "resolved"),
        "alert log must record the resolved transition"
    );
    let resolved = alerts.iter().filter(|a| a.state == "resolved").count();
    assert!(resolved >= 2, "both burn pairs' resolved transitions are logged: {resolved}");
    let resp = health(&portal).to_response();
    assert_eq!((resp.status, resp.body.as_str()), (200, "ok\n"));
    assert!(portal.stale_pages().is_empty());
}

#[test]
fn stable_flight_record_is_byte_identical_across_runs() {
    // Two separate portals, same scripted workload (including
    // the breach): their stable bundle renderings must match byte for byte
    // — the determinism contract that makes dumps diffable across runs.
    let mut bodies = Vec::new();
    for _ in 0..2 {
        let dir = temp_dir();
        let portal = portal_with(&dir);
        run_breach_workload(&portal);
        let server = portal.serve_admin("127.0.0.1:0").unwrap();
        let addr = server.addr().to_string();
        let (code, body) = http_get(&addr, "/flightrecord?dump=1&stable=1");
        assert_eq!(code, 200);
        assert!(body.contains("cacheportal.flightrecord.v1"));
        assert!(body.contains("\"stable\": true"));
        bodies.push(body);
    }
    assert_eq!(bodies[0], bodies[1], "stable=1 bundles must be byte-identical");

    // The stable rendering is still a coherent black box: its provenance
    // tail resolves against its own (duration-zeroed) trace section.
    let bundle: FlightBundle = serde_json::from_str(&bodies[0]).unwrap();
    assert!(verify_flight_record(&bundle).expect("stable bundle chains must resolve") > 0);
}

#[test]
fn a_cold_start_fires_no_alert() {
    // Every request of a fresh portal misses: the hit-rate objective sees
    // only bad events, but a bad fraction of 1 burns its 50% budget at 2×,
    // under both pairs' thresholds. The first sync closes no staleness
    // window. Nothing fires, nothing is captured, and the portal is healthy.
    let dir = temp_dir();
    let portal = portal_with(&dir);
    for maxprice in 0..36 {
        let price = (18_000 + 500 * maxprice).to_string();
        let req = HttpRequest::get("shop.example.com", "/carSearch", &[("maxprice", &price)]);
        assert_eq!(portal.request(&req).response.status, Status::Ok);
    }
    portal.sync_point().unwrap();

    let slo = portal.slo(true);
    let hits = slo.objectives.iter().find(|o| o.id == "hit-rate").unwrap();
    assert_eq!((hits.good, hits.bad), (0, 36), "every request missed");
    assert!(slo.objectives.iter().all(|o| !o.firing), "{slo:?}");
    assert_eq!(slo.alerts.recorded, 0, "no alert transition is logged");
    assert_eq!(portal.obs().recorder.recorded(), 0, "no flight record is captured");
    let resp = health(&portal).to_response();
    assert_eq!((resp.status, resp.body.as_str()), (200, "ok\n"));
}
