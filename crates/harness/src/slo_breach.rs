//! Canary-style SLO-breach drill: deliberately violate the freshness
//! contract against a deterministically tight policy and prove the whole
//! alerting/black-box pipeline end to end — the burn-rate alert fires,
//! `/healthz` degrades to 503 with the canonical `slo-fast-burn` reason,
//! the flight recorder captures a bundle whose causal chains resolve
//! against its own trace section, the JSONL export carries the alert
//! transitions, and once the windows age out the alert resolves and
//! health recovers. Run twice from scratch, the `stable=1` bundle must be
//! byte-identical — the determinism contract that makes black boxes
//! diffable across machines.

use cacheportal::db::schema::ColType;
use cacheportal::db::Database;
use cacheportal::obs::{verify_flight_record, Objective, SloKind, SloPolicy};
use cacheportal::web::{HttpRequest, ParamSource, QueryTemplate, ServletSpec, SqlServlet};
use cacheportal::CachePortal;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// What the drill proved, for the CLI to print.
#[derive(Debug, Default, Clone)]
pub struct DrillReport {
    /// Alert transitions that fired during the breach.
    pub fired: u64,
    /// Alert transitions that resolved after the windows aged out.
    pub resolved: u64,
    /// Flight records captured automatically by the breach.
    pub auto_dumps: u64,
    /// Causal chains verified inside the captured bundle.
    pub chains_verified: u64,
    /// Size of the byte-stable bundle rendering.
    pub stable_bytes: usize,
}

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn scratch_dir() -> PathBuf {
    std::env::temp_dir().join(format!(
        "cp-slo-drill-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Any staleness window over 50 logical µs is a bad event — guaranteed to
/// breach under the scripted workload, guaranteed quiet under a clean one.
/// Deterministic objectives only, so the stable bundle tells the full story.
fn tight_policy() -> SloPolicy {
    SloPolicy {
        objectives: vec![
            Objective::new(SloKind::StalenessP99, 50, 0.99, true),
            Objective::new(SloKind::PollErrors, 0, 0.99, true),
        ],
        ..SloPolicy::default()
    }
}

fn build_portal(flight_dir: &std::path::Path) -> CachePortal {
    let mut db = Database::new();
    db.execute("CREATE TABLE Car (maker TEXT, model TEXT, price INT, INDEX(model))")
        .unwrap();
    db.execute("INSERT INTO Car VALUES ('Toyota','Avalon',25000), ('Honda','Civic',18000)")
        .unwrap();
    let portal = CachePortal::builder(db)
        .slo_policy(tight_policy())
        .flight_dir(flight_dir.to_path_buf())
        .build()
        .expect("portal build");
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

/// One cache-filling request + invalidating update + sync; with
/// `stale_micros > 0` the clock advances between commit and sync so the
/// closed staleness window measures that long.
fn cycle(portal: &CachePortal, price: &mut i64, stale_micros: u64) -> Result<(), String> {
    let req = HttpRequest::get("shop.example.com", "/carSearch", &[("maxprice", "30000")]);
    portal.request(&req);
    portal
        .update(&format!("INSERT INTO Car VALUES ('Kia','Rio',{price})"))
        .map_err(|e| format!("update failed: {e}"))?;
    *price += 1;
    if stale_micros > 0 {
        portal.advance_clock(stale_micros);
    }
    portal.sync_point().map_err(|e| format!("sync failed: {e}"))?;
    Ok(())
}

/// Clean baseline then four windows 100× over the objective.
fn run_breach(portal: &CachePortal) -> Result<(), String> {
    let mut price = 20_000i64;
    for _ in 0..8 {
        cycle(portal, &mut price, 0)?;
    }
    for _ in 0..4 {
        cycle(portal, &mut price, 5_000)?;
    }
    Ok(())
}

fn check(cond: bool, what: &str) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(format!("drill assertion failed: {what}"))
    }
}

/// Run the full drill. Every failure is a `Err(what)` rather than a panic
/// so the CLI exits nonzero with a message instead of a backtrace.
pub fn run_drill() -> Result<DrillReport, String> {
    let mut report = DrillReport::default();

    // Two identical portals, same scripted breach: their stable bundles
    // must match byte for byte.
    let mut stable_bundles: Vec<String> = Vec::new();
    let mut dirs = Vec::new();
    for _ in 0..2 {
        let dir = scratch_dir();
        let portal = build_portal(&dir);
        dirs.push(dir);
        check(
            portal.obs().health.snapshot().to_response().status == 200,
            "portal healthy at rest",
        )?;
        run_breach(&portal)?;
        let bundle = portal.flight_record("drill", true);
        stable_bundles
            .push(serde_json::to_string_pretty(&bundle).map_err(|e| format!("render: {e}"))?);
        if stable_bundles.len() == 2 {
            // Second portal: walk the whole contract on this instance.
            verify_contract(&portal, &mut report)?;
        }
    }
    check(
        stable_bundles[0] == stable_bundles[1],
        "stable=1 bundles byte-identical across identical runs",
    )?;
    report.stable_bytes = stable_bundles[0].len();
    for dir in dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
    Ok(report)
}

fn verify_contract(portal: &CachePortal, report: &mut DrillReport) -> Result<(), String> {
    // The breach fired the fast (page) pair and degraded /healthz.
    let (fast, slow) = portal.obs().slo.firing_counts();
    check(fast >= 1, "fast burn pair firing after breach")?;
    check(slow >= 1, "slow burn pair firing after breach")?;
    let resp = portal.obs().health.snapshot().to_response();
    check(resp.status == 503, "healthz 503 while fast burn fires")?;
    check(resp.body.contains("slo-fast-burn"), "healthz names slo-fast-burn")?;
    report.fired = portal
        .obs()
        .slo
        .alerts_recent(64)
        .iter()
        .filter(|a| a.state == "firing")
        .count() as u64;
    check(report.fired >= 2, "alert log recorded the firing transitions")?;

    // The black box flew itself and the bundle is self-resolving.
    report.auto_dumps = portal.obs().recorder.recorded();
    check(report.auto_dumps >= 1, "breach auto-captured a flight record")?;
    let bundle = portal
        .obs()
        .recorder
        .latest()
        .ok_or_else(|| "flight recorder ring holds the capture".to_string())?;
    check(
        bundle.schema == "cacheportal.flightrecord.v1",
        "bundle carries the versioned schema marker",
    )?;
    report.chains_verified = verify_flight_record(&bundle)?;
    check(report.chains_verified > 0, "bundle-local causal chains verified")?;
    portal.verify_causal_chains().map_err(|e| format!("live chains: {e}"))?;

    // The JSONL export stream carries the alert transitions.
    let mut buf = Vec::new();
    portal.export_jsonl(&mut buf).map_err(|e| format!("export: {e}"))?;
    let jsonl = String::from_utf8_lossy(&buf);
    check(jsonl.contains("\"kind\":\"alert\""), "export carries alert lines")?;
    check(
        jsonl.contains("\"kind\":\"flightrecord\""),
        "export carries flight-record index lines",
    )?;

    // Age the windows past the 6h lookback, resume clean syncs: the alerts
    // resolve and health recovers to the exact healthy contract.
    portal.advance_clock(7 * 3600 * 1_000_000);
    let mut price = 90_000i64;
    for _ in 0..4 {
        cycle(portal, &mut price, 0)?;
    }
    let (fast, slow) = portal.obs().slo.firing_counts();
    check(fast == 0 && slow == 0, "alerts resolved after windows aged out")?;
    report.resolved = portal
        .obs()
        .slo
        .alerts_recent(64)
        .iter()
        .filter(|a| a.state == "resolved")
        .count() as u64;
    check(report.resolved >= 2, "alert log recorded the resolved transitions")?;
    let resp = portal.obs().health.snapshot().to_response();
    check(resp.status == 200 && resp.body == "ok\n", "healthz recovered to ok")?;
    Ok(())
}
