//! End-to-end causal lifecycle tracing: every eject the provenance ring
//! retains must resolve through the trace ring to the sync-point phase that
//! ejected it and onward to the `update.commit` trace root(s) whose LSNs it
//! consumed — and the deterministic observability surfaces (`/timeline`
//! with `stable=1`, `/scorecards`) must render byte-identically for the
//! same fixed workload.

use cacheportal::db::schema::ColType;
use cacheportal::db::Database;
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

fn search_servlet() -> Arc<dyn cacheportal::web::Servlet> {
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

fn req(maxprice: i64) -> HttpRequest {
    HttpRequest::get(
        "shop.example.com",
        "/carSearch",
        &[("maxprice", &maxprice.to_string())],
    )
}

fn portal() -> CachePortal {
    let p = CachePortal::builder(example_db()).build().unwrap();
    p.register_servlet(search_servlet());
    p
}

/// A fixed workload: cache two pages, commit updates that hit them across
/// two sync windows, and re-cache in between so multiple ejects accumulate.
fn run_workload(p: &CachePortal) {
    p.request(&req(20000)); // page A: Civic only
    p.request(&req(30000)); // page B: Civic + Avalon
    p.request(&req(30000)); // cache hit on page B
    p.sync_point().unwrap();

    p.update("INSERT INTO Mileage VALUES ('Camry', 30.0)").unwrap();
    p.update("INSERT INTO Car VALUES ('Toyota','Camry',22000)").unwrap();
    p.sync_point().unwrap();

    p.request(&req(30000)); // re-cache page B
    p.sync_point().unwrap();
    p.update("UPDATE Car SET price = 17000 WHERE model = 'Avalon'").unwrap();
    p.sync_point().unwrap();
}

/// Acceptance: every eject carries a resolvable causal chain — the record's
/// parent span is the `sync.phase.eject` span of its sync point, the chain
/// roots at that sync's `sync.point` trace root, and the commit index names
/// at least one `update.commit` trace root covering the consumed LSN range.
#[test]
fn every_eject_resolves_to_commit_and_sync_roots() {
    let p = portal();
    run_workload(&p);

    let records = p.obs().provenance.recent(usize::MAX);
    assert!(records.len() >= 2, "the workload ejects across two windows");

    // The portal-level check verifies every record...
    let verified = p.obs().verify_causal_chains().expect("all chains resolve");
    assert_eq!(verified, records.len() as u64, "no record skipped as untraced");

    // ...and the raw rings agree with it hop by hop.
    for rec in &records {
        assert_ne!(rec.trace_id, 0, "eject of {} is untraced", rec.url);
        assert_ne!(rec.span_id, 0);
        let chain = p.obs().tracer.resolve_chain(rec.trace_id, rec.parent_span);
        assert_eq!(chain.first().map(|e| &*e.name), Some("sync.phase.eject"));
        let root = chain.last().unwrap();
        assert_eq!(root.name, "sync.point");
        assert_eq!(root.parent_span, 0, "sync.point is a trace root");
        assert_eq!(root.trace_id, rec.trace_id, "one trace per lifecycle");

        let roots = p.obs().commits.roots_covering(rec.lsn_first, rec.lsn_last);
        assert!(!roots.is_empty(), "no commit root covers {}..={}", rec.lsn_first, rec.lsn_last);
        for commit in &roots {
            let ev = p
                .obs()
                .tracer
                .find_span(commit.trace_id, commit.span_id)
                .expect("commit root still buffered");
            assert_eq!(ev.name, "update.commit");
            assert_eq!(ev.parent_span, 0, "commits root their own traces");
            assert_ne!(ev.trace_id, rec.trace_id, "commit and sync are distinct lifecycles");
        }
    }
}

/// The sync-point timeline mirrors the trace: one entry per sync point,
/// each carrying the `sync.point` root's causal identity and the canonical
/// stage vector.
#[test]
fn timeline_entries_carry_the_sync_roots_identity() {
    let p = portal();
    run_workload(&p);

    let entries = p.obs().timeline.recent(usize::MAX);
    assert_eq!(entries.len(), 4, "one timeline entry per sync point");
    for t in &entries {
        assert_ne!(t.trace_id, 0);
        let root = p.obs().tracer.find_span(t.trace_id, t.span_id).unwrap();
        assert_eq!(root.name, "sync.point");
        let stages: Vec<&str> = t.stages.iter().map(|s| &*s.name).collect();
        assert_eq!(
            stages,
            ["mapper", "registration", "delta", "index", "analysis", "eject", "persist"]
        );
    }
    // The windows that ejected pages show eject work; LSN ranges are real.
    let busy: Vec<_> = entries.iter().filter(|t| t.ejected > 0).collect();
    assert!(busy.len() >= 2);
    for t in busy {
        assert!(t.records > 0);
        assert!(t.lsn_last >= t.lsn_first);
        let eject = t.stages.iter().find(|s| s.name == "eject").unwrap();
        assert_eq!(eject.work, t.ejected);
    }
}

/// Acceptance: `/timeline?stable=1` and `/scorecards` are byte-identical
/// across two runs of the same fixed workload (wall-clock never leaks into
/// them; ids, work units, and the modeled poll-wait stage are driven by the
/// deterministic logical clock and counters).
#[test]
fn stable_surfaces_are_byte_identical_for_a_fixed_workload() {
    let render = || {
        let p = portal();
        run_workload(&p);
        (
            serde_json::to_string(&p.obs().timeline_doc(true)).unwrap(),
            serde_json::to_string(&p.obs().scorecards.doc()).unwrap(),
        )
    };
    let (timeline_a, scorecards_a) = render();
    let (timeline_b, scorecards_b) = render();
    assert_eq!(timeline_a, timeline_b, "stable timeline must not carry wall-clock");
    assert_eq!(scorecards_a, scorecards_b, "scorecards must be deterministic");

    // And the scorecards actually contain the workload's signal: the join
    // query type with hits, misses, render cost, and invalidation churn.
    let cards = p_scorecards().scorecards;
    assert_eq!(cards.len(), 1, "one registered query type");
    let card = &cards[0];
    assert!(card.sql.to_lowercase().contains("from car, mileage"));
    assert!(card.hits >= 1, "page B was served from cache");
    assert!(card.misses >= 2, "both pages generated");
    assert!(card.render_cost_units > 0, "rows scanned attributed");
    assert!(card.invalidations >= 1);
    assert!(card.pages_ejected >= 1);
}

fn p_scorecards() -> cacheportal::obs::ScorecardsDoc {
    let p = portal();
    run_workload(&p);
    p.obs().scorecards.doc()
}
