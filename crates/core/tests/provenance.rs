//! Integration tests for invalidation provenance: every page eject must be
//! explainable after the fact as a full causal chain — consumed update-log
//! LSN range → per-table ΔR groups → matched query type (with bound
//! parameters) → verdict → QI rows → ejected URL — and the live surfaces
//! (`/metrics`, `/explain`, JSONL export) must agree with the in-process
//! snapshot.

use cacheportal::cache::{PageCache, PageCacheConfig};
use cacheportal::db::schema::ColType;
use cacheportal::db::Database;
use cacheportal::obs::{
    Explanation, FlightBundle, FlightIndexDoc, ScorecardsDoc, SloDoc, TimelineDoc, TraceDoc,
};
use cacheportal::web::{HttpRequest, ParamSource, QueryTemplate, ServletSpec, SqlServlet};
use cacheportal::CachePortal;
use std::io::{Read as _, Write as _};
use std::net::TcpStream;
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

/// Acceptance: after the end-to-end pipeline runs, *every* eject the
/// provenance ring retains resolves through `explain_invalidation(url)` to
/// the full LSN → ΔR → query-type → verdict → QI → URL chain.
#[test]
fn every_eject_is_explained_with_the_full_chain() {
    let p = portal();
    p.request(&req(20000)); // page A: Civic only
    let out_b = p.request(&req(30000)); // page B: Civic + Avalon
    let url_b = out_b.key.unwrap().as_str().to_string();
    p.sync_point().unwrap();

    // Affects only page B (new 22000 car joins its result).
    p.update("INSERT INTO Mileage VALUES ('Camry', 30.0)").unwrap();
    p.update("INSERT INTO Car VALUES ('Toyota','Camry',22000)").unwrap();
    let r1 = p.sync_point().unwrap();
    assert_eq!(r1.ejected, 1);

    // Re-cache page B, then hit it again with a different update.
    p.request(&req(30000));
    p.sync_point().unwrap();
    p.update("UPDATE Car SET price = 21000 WHERE model = 'Avalon'").unwrap();
    let r2 = p.sync_point().unwrap();
    assert!(r2.ejected >= 1);

    let records = p.obs().provenance.recent(usize::MAX);
    assert!(records.len() >= 2, "two sync points ejected pages");

    for rec in &records {
        let doc = p.explain_invalidation(&rec.url);
        assert!(!doc.matches.is_empty(), "no explanation for {}", rec.url);
        let m = doc
            .matches
            .iter()
            .find(|m| m.seq == rec.seq)
            .expect("the record itself is among the matches");

        // LSN range: present and ordered.
        assert!(m.lsn_first <= m.lsn_last);

        // ΔR groups: at least one table with a non-empty delta.
        assert!(!m.deltas.is_empty());
        for d in &m.deltas {
            assert!(!d.table.is_empty());
            assert!(d.inserted + d.deleted > 0);
        }

        // Query type + verdict: the matched instance names the join and a
        // concrete decision procedure.
        assert!(!m.causes.is_empty(), "eject of {} has no cause", rec.url);
        for c in &m.causes {
            assert!(c.type_sql.to_lowercase().contains("from car, mileage"));
            assert!(!c.params.is_empty());
            assert!(
                [
                    "local-predicate",
                    "polling-query",
                    "poll-cache",
                    "maintained-index",
                    "delete-guard",
                    "budget-degraded",
                    "conservative",
                    "table-level",
                    "bind-failure",
                    "poll-fault",
                ]
                .contains(&c.verdict.as_str()),
                "unknown verdict {}",
                c.verdict
            );
            assert!(!c.detail.is_empty());
        }

        // URL + residency: the chain ends at the page itself.
        assert_eq!(m.url, rec.url);
        assert!(m.resident, "cached pages were resident");

        // QI rows: the sniffer half of the chain.
        let qi = doc.qi_map.as_ref().unwrap();
        assert!(!qi.is_empty(), "{} has no QI rows", rec.url);
        for row in qi {
            assert!(row.sql.to_lowercase().contains("select"));
            assert_eq!(row.servlet, "carSearch");
        }
    }

    // Both syncs in this test ejected page B specifically.
    let b = p.explain_invalidation(&url_b);
    assert_eq!(b.matches.len(), 2);
    assert!(!b.truncated);
}

#[test]
fn explain_update_resolves_any_lsn_in_the_consumed_batch() {
    let p = portal();
    p.request(&req(30000));
    p.sync_point().unwrap();

    let lsn_before = {
        let db = p.db().read();
        db.high_water()
    };
    p.update("INSERT INTO Mileage VALUES ('Camry', 30.0)").unwrap();
    p.update("INSERT INTO Car VALUES ('Toyota','Camry',22000)").unwrap();
    p.sync_point().unwrap();

    // Both committed LSNs fall in the same consumed batch: either explains
    // the eject.
    for lsn in [lsn_before, lsn_before + 1] {
        let doc = p.obs().provenance.explain_lsn(lsn);
        assert_eq!(doc.matches.len(), 1, "lsn {lsn} must resolve to the eject");
        assert!(doc.matches[0].url.contains("carSearch"));
    }
    // An LSN never consumed resolves to nothing — and says the ring is
    // intact, so "nothing" means "no eject", not "evidence rotated out".
    let miss = p.obs().provenance.explain_lsn(999_999);
    assert!(miss.matches.is_empty());
    assert!(!miss.truncated);
}

/// Acceptance: `/metrics` is valid Prometheus text exposition and its
/// counters agree with `metrics_snapshot()`.
#[test]
fn prometheus_exposition_matches_the_snapshot() {
    let p = portal();
    p.request(&req(20000));
    p.request(&req(20000));
    p.sync_point().unwrap();
    p.update("INSERT INTO Car VALUES ('Kia','Rio',12000)").unwrap();
    p.sync_point().unwrap();

    let snap = p.metrics_snapshot();
    let text = p.obs().metrics.render_prometheus();

    // Well-formed: every non-comment line is `name[{labels}] value`.
    for line in text.lines().filter(|l| !l.starts_with('#') && !l.is_empty()) {
        let (name, value) = line.rsplit_once(' ').unwrap();
        assert!(name.starts_with("cacheportal_"), "bad metric name in {line}");
        assert!(value.parse::<f64>().is_ok(), "bad value in {line}");
    }

    // Every snapshot counter appears with the same value.
    let counters = &snap.metrics.counters;
    assert!(!counters.is_empty());
    for (dotted, v) in counters {
        let expect = format!("{}_total {v}", cacheportal::obs::prometheus_name(dotted));
        assert!(
            text.lines().any(|l| l == expect),
            "snapshot counter {dotted} not in exposition as `{expect}`"
        );
    }
}

#[test]
fn admin_endpoint_serves_metrics_and_explanations() {
    let p = portal();
    p.request(&req(30000));
    p.sync_point().unwrap();
    p.update("UPDATE Car SET price = 21000 WHERE model = 'Avalon'").unwrap();
    p.sync_point().unwrap();
    let url = p.obs().provenance.recent(1)[0].url.clone();

    let server = p.serve_admin("127.0.0.1:0").unwrap();
    let addr = server.addr().to_string();

    let (code, body) = http_get(&addr, "/healthz");
    assert_eq!((code, body.as_str()), (200, "ok\n"));

    let (code, body) = http_get(&addr, "/metrics");
    assert_eq!(code, 200);
    assert!(body.lines().any(|l| l.starts_with("cacheportal_web_requests_total_total ")));
    assert!(body.contains("cacheportal_invalidator_pages_ejected_total 1"));

    let encoded: String = url
        .bytes()
        .map(|b| {
            if b.is_ascii_alphanumeric() {
                (b as char).to_string()
            } else {
                format!("%{b:02X}")
            }
        })
        .collect();
    let doc: Explanation = round_trip(&addr, &format!("/explain?url={encoded}"));
    assert_eq!(doc.matches[0].url, url);
    assert!(!doc.qi_map.unwrap().is_empty());
    assert_eq!(doc.matches, p.explain_invalidation(&url).matches);

    let doc: Explanation = round_trip(&addr, "/explain?lsn=4");
    assert_eq!(doc.matches[0].url, url);
    assert_eq!(doc, p.obs().provenance.explain_lsn(4));

    // Every other JSON route is its document type, byte for byte, and the
    // accessor of the same name answers what the route does.
    let trace: TraceDoc = round_trip(&addr, "/trace");
    assert_eq!(trace, p.obs().tracer.doc(256));
    assert!(trace.recent.iter().any(|e| e.name == "sync.phase.eject" && e.trace_id != 0));
    let timeline: TimelineDoc = round_trip(&addr, "/timeline");
    assert_eq!(timeline, p.obs().timeline_doc(false));
    assert!(timeline.sync_points.iter().all(|t| !t.stages.is_empty()));
    assert_eq!(round_trip::<TimelineDoc>(&addr, "/timeline?stable=1"), p.obs().timeline_doc(true));
    let scorecards: ScorecardsDoc = round_trip(&addr, "/scorecards");
    assert_eq!(scorecards, p.obs().scorecards.doc());
    assert!(scorecards.scorecards[0].render_cost_units > 0);
    assert_eq!(round_trip::<SloDoc>(&addr, "/slo"), p.slo(false));
    let slo: SloDoc = round_trip(&addr, "/slo?stable=1");
    assert!(slo.stable && slo.objectives.iter().any(|o| o.id == "staleness-p99"));
    let bus: cacheportal::bus::BusDoc = round_trip(&addr, "/bus");
    assert_eq!((bus.schema.as_str(), bus.edges.len()), ("cacheportal.bus.v1", 0));
    let stable: FlightBundle = round_trip(&addr, "/flightrecord?dump=1&stable=1");
    assert_eq!(stable, p.flight_record("on-demand", true));
    let full: FlightBundle = round_trip(&addr, "/flightrecord?dump=1");
    assert!(full.metrics.histograms.is_some() && !full.stable);
    let kept: FlightBundle = round_trip(&addr, "/flightrecord?seq=1");
    assert_eq!(kept, full);
    let index: FlightIndexDoc = round_trip(&addr, "/flightrecord");
    assert_eq!(index.schema, "cacheportal.flightrecord.v1.index");
    assert_eq!(index.dumps.iter().map(|d| d.seq).collect::<Vec<_>>(), vec![0, 1]);

    let (code, _) = http_get(&addr, "/explain");
    assert_eq!(code, 400);

    // A partitioned edge shows on /healthz as a degradation, not an outage
    // (the control edge keeps the delivery objective inside its budget), and
    // clears once the link heals and the edge has caught up.
    let edges: Vec<Arc<PageCache>> = (0..2)
        .map(|_| {
            let edge = Arc::new(PageCache::new(PageCacheConfig::default()));
            p.register_edge_cache(edge.clone());
            edge
        })
        .collect();
    let (control, drilled) = (0, 1);
    p.request(&req(30000));
    p.sync_point().unwrap();
    assert_eq!(edges[drilled].len(), 1, "admissions mirror to the edges");
    p.partition_edge(drilled, true);
    for price in [22000, 23000] {
        p.advance_clock(1_000);
        p.update(&format!("UPDATE Car SET price = {price} WHERE model = 'Avalon'")).unwrap();
        p.sync_point().unwrap();
        p.request(&req(30000));
    }
    assert!(edges[drilled].is_empty(), "an edge that misses a round ejects itself");
    assert_eq!(edges[control].len(), 1);
    assert!(p.bus().edge_rows()[drilled].partitioned);
    let (code, body) = http_get(&addr, "/healthz");
    assert!(code == 200 && body.contains("edge-partitioned"), "{code} {body}");
    p.partition_edge(drilled, false);
    p.advance_clock(1_000);
    p.sync_point().unwrap();
    let row = &p.bus().edge_rows()[drilled];
    assert!(!row.partitioned && !row.degraded && row.lag == 0, "{row:?}");
    let (code, body) = http_get(&addr, "/healthz");
    assert!(code == 200 && !body.contains("edge-partitioned"), "{code} {body}");

    server.shutdown();
}

/// Regression: a rolled-back transaction must leave no provenance — its log
/// records are rewound before any sync point can consume them.
#[test]
fn rolled_back_transactions_leave_no_provenance() {
    let p = portal();
    p.request(&req(30000));
    p.sync_point().unwrap();

    let err: cacheportal::db::DbResult<()> = p.update_txn(|tx| {
        tx.execute("INSERT INTO Mileage VALUES ('Rio', 33.0)")?;
        tx.execute("INSERT INTO Car VALUES ('Kia','Rio',12000)")?;
        Err(cacheportal::db::DbError::Unsupported("business rule".into()))
    });
    assert!(err.is_err());
    p.sync_point().unwrap();

    assert_eq!(p.obs().provenance.recorded(), 0, "no eject, no record");
    let doc = p.explain_invalidation(p.request(&req(30000)).key.unwrap().as_str());
    assert!(doc.matches.is_empty());
    assert!(!doc.truncated);

    // The same statements committed do produce the full chain.
    p.update_txn(|tx| {
        tx.execute("INSERT INTO Mileage VALUES ('Rio', 33.0)")?;
        tx.execute("INSERT INTO Car VALUES ('Kia','Rio',12000)")?;
        Ok(())
    })
    .unwrap();
    p.sync_point().unwrap();
    assert_eq!(p.obs().provenance.recorded(), 1);
    let rec = &p.obs().provenance.recent(1)[0];
    assert_eq!(rec.lsn_last - rec.lsn_first + 1, 2, "one batch, two records");
}

#[test]
fn snapshot_surfaces_ring_overflow_instead_of_hiding_it() {
    let p = portal();
    // Overflow both bounded rings well past their default capacities.
    for i in 0..1_200u64 {
        p.obs().tracer.event("test", "spam", i, "x");
    }
    for i in 0..600u64 {
        p.obs().provenance.record(cacheportal::obs::EjectRecord {
            seq: 0,
            sync_seq: 0,
            ts: i,
            lsn_first: i,
            lsn_last: i,
            deltas: vec![],
            url: format!("/p{i}").into(),
            resident: false,
            causes: vec![],
            trace_id: 0,
            span_id: 0,
            parent_span: 0,
        });
    }
    let snap = p.metrics_snapshot();
    assert!(snap.trace.dropped > 0);
    assert!(snap.provenance.dropped > 0);
    assert_eq!(snap.provenance.recorded, 600);

    // Evicted evidence is flagged, not silently absent.
    let doc = p.explain_invalidation("/p0");
    assert!(doc.matches.is_empty());
    assert!(doc.truncated);
    assert!(doc.dropped_records > 0);
}

#[test]
fn jsonl_export_streams_without_duplicates() {
    let p = portal();
    p.request(&req(30000));
    p.sync_point().unwrap();

    let mut buf = Vec::new();
    let stats = p.export_jsonl(&mut buf).unwrap();
    assert!(stats.trace_events > 0);
    assert_eq!(stats.eject_records, 0, "nothing ejected yet");

    p.update("UPDATE Car SET price = 21000 WHERE model = 'Avalon'").unwrap();
    p.sync_point().unwrap();
    let mut buf2 = Vec::new();
    let stats2 = p.export_jsonl(&mut buf2).unwrap();
    assert_eq!(stats2.eject_records, 1);

    // Every line is valid standalone JSON with a kind tag; the second batch
    // repeats nothing from the first.
    let parse = |buf: &[u8]| -> Vec<serde_json::Value> {
        std::str::from_utf8(buf)
            .unwrap()
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect()
    };
    let first = parse(&buf);
    let second = parse(&buf2);
    for line in first.iter().chain(&second) {
        assert!(matches!(
            line["kind"].as_str(),
            Some("trace") | Some("eject") | Some("scorecard")
        ));
    }
    let max_trace_seq_first = first
        .iter()
        .filter(|l| l["kind"].as_str() == Some("trace"))
        .filter_map(|l| l["seq"].as_u64())
        .max()
        .unwrap();
    let min_trace_seq_second = second
        .iter()
        .filter(|l| l["kind"].as_str() == Some("trace"))
        .filter_map(|l| l["seq"].as_u64())
        .min()
        .unwrap();
    assert!(min_trace_seq_second > max_trace_seq_first);
    assert!(second.iter().any(|l| l["kind"].as_str() == Some("eject")
        && l["url"].as_str().unwrap().contains("carSearch")));
}

/// Regression: a burst over two tables must leave eject provenance
/// complete — every [`EjectRecord`] carries the LSN range, non-empty ΔR
/// groups, and at least one verdict cause.
#[test]
fn burst_analysis_keeps_eject_provenance_complete() {
    let p = CachePortal::builder(example_db()).build().unwrap();
    p.register_servlet(search_servlet());
    p.request(&req(20000));
    p.request(&req(30000));
    p.sync_point().unwrap();

    p.update("INSERT INTO Mileage VALUES ('Camry', 30.0)").unwrap();
    p.update("INSERT INTO Car VALUES ('Toyota','Camry',22000)").unwrap();
    p.update("UPDATE Car SET price = 17500 WHERE model = 'Civic'").unwrap();
    let r = p.sync_point().unwrap();
    assert!(r.ejected >= 1, "the burst invalidates at least one page");

    let records = p.obs().provenance.recent(usize::MAX);
    assert!(!records.is_empty());
    for rec in &records {
        assert!(rec.lsn_first <= rec.lsn_last);
        assert!(!rec.deltas.is_empty(), "{} lost its ΔR groups", rec.url);
        assert!(!rec.causes.is_empty(), "{} lost its causes", rec.url);
    }
}

/// A failing polling query must degrade conservatively *and leave a trail*:
/// the eject's provenance names the fault as its verdict, so an operator can
/// distinguish "page invalidated because the DBMS said so" from "page
/// invalidated because we could not ask".
#[test]
fn poll_fault_ejects_carry_poll_fault_provenance() {
    // No maintained indexes: the residual polling query must go to the
    // DBMS, which is the only site poll faults can hit.
    let mut db = Database::new();
    db.execute("CREATE TABLE Car (maker TEXT, model TEXT, price INT)").unwrap();
    db.execute("CREATE TABLE Mileage (model TEXT, EPA FLOAT)").unwrap();
    db.execute("INSERT INTO Car VALUES ('Toyota','Avalon',25000), ('Honda','Civic',18000)")
        .unwrap();
    db.execute("INSERT INTO Mileage VALUES ('Avalon', 28.0), ('Civic', 36.5)")
        .unwrap();

    let p = CachePortal::builder(db)
        .fault_plan(cacheportal::db::FaultPlan::new(cacheportal::db::FaultSpec {
            seed: 9,
            poll_error: 1.0,
            ..cacheportal::db::FaultSpec::default()
        }))
        .build()
        .unwrap();
    p.register_servlet(search_servlet());
    let out = p.request(&req(30000));
    let url = out.key.unwrap().as_str().to_string();
    p.sync_point().unwrap();

    p.update("INSERT INTO Mileage VALUES ('Camry', 30.0)").unwrap();
    p.update("INSERT INTO Car VALUES ('Toyota','Camry',22000)").unwrap();
    let r = p.sync_point().unwrap();
    assert!(r.ejected >= 1, "conservative fallback must still eject");
    assert!(r.invalidation.poll_faults > 0, "p=1.0 must fault the poll");

    let doc = p.explain_invalidation(&url);
    assert!(!doc.matches.is_empty(), "faulted eject left no provenance");
    let fault_causes: Vec<_> = doc
        .matches
        .iter()
        .flat_map(|m| &m.causes)
        .filter(|c| c.verdict == "poll-fault")
        .collect();
    assert!(!fault_causes.is_empty(), "no cause carries the poll-fault verdict");
    for c in &fault_causes {
        let detail = &c.detail;
        assert!(
            detail.contains("conservative fallback"),
            "detail must explain the degradation: {detail}"
        );
        assert!(detail.contains("poll"), "detail must name the failed poll: {detail}");
    }

    // The fault is also visible on the metrics surface.
    let m = &p.obs().metrics;
    assert!(m.counter_value("invalidator.polls.faulted") > 0);
    assert!(m.counter_value("invalidator.poll_fault_verdicts") > 0);
}

/// GET a JSON route: the body must read as the route's document type and
/// that document must render back to the very bytes that were served.
fn round_trip<T: serde::Serialize + serde::Deserialize>(addr: &str, path: &str) -> T {
    let (code, body) = http_get(addr, path);
    assert_eq!(code, 200, "{path}: {body}");
    let doc: T = serde_json::from_str(&body).unwrap_or_else(|e| panic!("{path}: {e}"));
    assert_eq!(serde_json::to_string_pretty(&doc).unwrap(), body, "{path}");
    doc
}

/// Minimal blocking HTTP/1.1 GET against the admin server.
fn http_get(addr: &str, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(stream, "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n").unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let code: u16 = raw.split_whitespace().nth(1).unwrap().parse().unwrap();
    let body = raw.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    (code, body)
}
