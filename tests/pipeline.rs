//! Pipeline integration: request/query logs → mapper → QI/URL map →
//! invalidator registry, built by hand from the substrate crates (no
//! `CachePortal` facade) — proving the components compose the way the
//! paper's Figure 7 wires them.

use cacheportal_db::schema::ColType;
use cacheportal_db::{Database, Value};
use cacheportal_invalidator::{Invalidator, InvalidatorConfig};
use cacheportal_sniffer::{LoggedConnection, Mapper, MapperReport, QiUrlMap, QueryLog, RequestLog};
use cacheportal_web::{
    shared, AppServer, AppServerConfig, Clock, ConnectionFactory, ConnectionPool, DbConnection,
    FnServlet, HttpRequest, ManualClock, ParamSource, QueryTemplate, ServletSpec, SqlServlet,
};
use std::sync::{Arc, Mutex, MutexGuard};

/// Assemble Figure 7 by hand.
struct Deployment {
    db: cacheportal_web::SharedDb,
    app: Arc<AppServer>,
    requests: Arc<RequestLog>,
    map: Arc<QiUrlMap>,
    mapper: Mapper,
    invalidator: Invalidator,
}

fn deploy() -> Deployment {
    let mut db = Database::new();
    db.execute("CREATE TABLE Car (maker TEXT, model TEXT, price INT)").unwrap();
    db.execute("INSERT INTO Car VALUES ('Honda','Civic',18000)").unwrap();
    let high_water = db.high_water();
    let db = shared(db);

    let clock = ManualClock::new();
    let query_log = QueryLog::new();
    let factory: ConnectionFactory = {
        let db = db.clone();
        let log = query_log.clone();
        let clock: Arc<dyn Clock> = clock.clone();
        Arc::new(move || {
            Box::new(LoggedConnection::new(
                DbConnection::new(db.clone()),
                log.clone(),
                clock.clone(),
            ))
        })
    };
    let app = Arc::new(AppServer::new(
        ConnectionPool::new(factory, 4),
        clock,
        AppServerConfig {
            rewrite_cache_control: true,
            cache_owner: "cacheportal".into(),
        },
    ));
    let request_log = Arc::new(RequestLog::new());
    app.set_observer(request_log.clone());
    app.register(Arc::new(SqlServlet::new(
        ServletSpec::new("cars").with_key_get_params(&["maxprice"]),
        "Cars",
        vec![QueryTemplate::new(
            "SELECT * FROM Car WHERE price < $1",
            vec![ParamSource::Get("maxprice".into(), ColType::Int)],
        )],
    )));

    let map = Arc::new(QiUrlMap::new());
    let mapper = Mapper::new(request_log.clone(), query_log, map.clone());
    let mut invalidator = Invalidator::new(InvalidatorConfig::default());
    invalidator.start_from(high_water);
    Deployment {
        db,
        app,
        requests: request_log,
        map,
        mapper,
        invalidator,
    }
}

#[test]
fn logs_flow_into_map_and_registry() {
    let mut d = deploy();
    // Two requests with different bounds → two instances of one type.
    for bound in ["20000", "30000"] {
        let resp = d
            .app
            .handle(&HttpRequest::get("h", "/cars", &[("maxprice", bound)]));
        assert_eq!(resp.status.code(), 200);
    }
    let report = d.mapper.run_once();
    assert_eq!((report.mapped, report.named), (2, 2), "the logger's records name their page");
    assert_eq!(d.map.len(), 2);
    // Map rows show bound SQL text.
    let rows = d.map.all();
    assert!(rows[0].sql.contains("price < 20000"));

    let inv_report = {
        let db = d.db.write();
        d.invalidator.run_sync_point(&db, &d.map).unwrap()
    };
    assert_eq!(inv_report.registered, 2);
    let reg = d.invalidator.registry();
    assert_eq!(reg.types().len(), 1, "one query type discovered");
    assert_eq!(reg.total_instances(), 2);
    assert_eq!(reg.get(reg.types()[0].id).n_params, 1);
}

#[test]
fn update_through_pipeline_names_the_right_page() {
    let mut d = deploy();
    d.app
        .handle(&HttpRequest::get("h", "/cars", &[("maxprice", "20000")]));
    d.app
        .handle(&HttpRequest::get("h", "/cars", &[("maxprice", "15000")]));
    d.mapper.run_once();
    {
        let db = d.db.write();
        d.invalidator.run_sync_point(&db, &d.map).unwrap();
    }

    // 17000 affects the 20000 page but not the 15000 page.
    d.db
        .write()
        .execute("INSERT INTO Car VALUES ('Kia','Rio',17000)")
        .unwrap();
    let report = {
        let db = d.db.write();
        d.invalidator.run_sync_point(&db, &d.map).unwrap()
    };
    assert_eq!(report.pages.len(), 1);
    let page = report.pages.iter().next().unwrap();
    assert!(
        page.as_str().contains("maxprice=20000"),
        "wrong page named: {page}"
    );
}

#[test]
fn pool_wrapping_catches_queries_from_every_connection() {
    let d = deploy();
    // Saturate the pool so multiple distinct connections serve requests.
    for i in 0..10 {
        d.app.handle(&HttpRequest::get(
            "h",
            "/cars",
            &[("maxprice", &format!("{}", 10000 + i))],
        ));
    }
    let mut mapper = d.mapper;
    let report = mapper.run_once();
    assert_eq!(report.mapped, 10, "every query logged regardless of connection");
}

#[test]
fn non_select_statements_never_reach_the_map() {
    let mut d = deploy();
    // A servlet that also writes (e.g. a page-view counter).
    d.app.register(Arc::new(CountingServlet));
    d.app.handle(&HttpRequest::get("h", "/counting", &[]));
    let report = d.mapper.run_once();
    assert_eq!(report.non_select, 1);
    assert_eq!(report.mapped, 1, "only the SELECT is mapped");
}

/// A request that fails after it has queried logs its queries and no
/// request record. Served from inside another request — its queries fall
/// into that request's window, where interval containment filed them under
/// the outer page — they are filed under the failed request's own page:
/// rows of a page that is never cached, which can only over-invalidate.
#[test]
fn a_failed_requests_queries_are_filed_under_no_neighbour() {
    let mut d = deploy();
    d.app.register(Arc::new(FnServlet::new(ServletSpec::new("failing"), |_req, conn| {
        conn.query("SELECT maker FROM Car", &[])?;
        Err(cacheportal_db::DbError::Unsupported("fails after its query".into()))
    })));
    let app = Arc::downgrade(&d.app);
    d.app.register(Arc::new(FnServlet::new(ServletSpec::new("outer"), move |_req, conn| {
        let app = app.upgrade().expect("the server outlives its requests");
        let inner = app.handle(&HttpRequest::get("h", "/failing", &[]));
        assert_eq!(inner.status.code(), 500);
        let r = conn.query("SELECT COUNT(*) FROM Car", &[])?;
        Ok(format!("<html><body>{}</body></html>", r.rows[0][0]))
    })));
    assert_eq!(d.app.handle(&HttpRequest::get("h", "/outer", &[])).status.code(), 200);

    let report = d.mapper.run_once();
    assert_eq!((report.mapped, report.named, report.retained), (2, 2, 0));
    let rows: Vec<_> = (d.map.all().into_iter())
        .map(|row| (row.sql, row.page_key.to_string(), row.servlet.to_string()))
        .collect();
    let row = |sql: &str, page: &str, servlet: &str| (sql.into(), page.into(), servlet.into());
    assert_eq!(
        rows,
        [
            row("SELECT maker FROM Car", "h/failing?", "failing"),
            row("SELECT COUNT(*) FROM Car", "h/outer?", "outer"),
        ]
    );
    // Nothing waits for a request record that never comes.
    let next = d.mapper.run_once();
    assert_eq!(next, MapperReport { elapsed_micros: next.elapsed_micros, ..MapperReport::default() });
}

/// The count of statements logged outside any request is process-wide:
/// a test that logs one and a test that expects no request record kept do
/// not run at once.
static OUTSIDE_A_REQUEST: Mutex<()> = Mutex::new(());

fn no_other_statement_outside_a_request() -> MutexGuard<'static, ()> {
    OUTSIDE_A_REQUEST.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Every query of a plain servlet names its page, so no request record is
/// kept: nothing would read its window.
#[test]
fn plain_requests_keep_no_request_record() {
    let _alone = no_other_statement_outside_a_request();
    let mut d = deploy();
    for bound in 0..20 {
        let req = HttpRequest::get("h", "/cars", &[("maxprice", &bound.to_string())]);
        assert_eq!(d.app.handle(&req).status.code(), 200);
    }
    assert_eq!(d.requests.len(), 0);
    let report = d.mapper.run_once();
    assert_eq!((report.mapped, report.named), (20, 20));
}

/// A servlet that hands its connection to another thread queries outside
/// the request's scope: the record names no page and is joined, as in the
/// paper, to the window that contains it — the request's, which is kept
/// because that statement was logged while it was served.
#[test]
fn a_query_from_another_thread_falls_back_to_interval_containment() {
    let _alone = no_other_statement_outside_a_request();
    let mut d = deploy();
    d.app.register(Arc::new(FnServlet::new(ServletSpec::new("threaded"), |_req, conn| {
        let r = std::thread::scope(|scope| {
            let worker = scope.spawn(|| conn.query("SELECT COUNT(*) FROM Car", &[]));
            worker.join().expect("the worker returns")
        })?;
        Ok(format!("<html><body>{}</body></html>", r.rows[0][0]))
    })));
    assert_eq!(d.app.handle(&HttpRequest::get("h", "/threaded", &[])).status.code(), 200);
    assert_eq!(d.requests.len(), 1, "the threaded request's window is kept");
    let report = d.mapper.run_once();
    assert_eq!((report.mapped, report.named, report.ambiguous), (1, 0, 0));
    assert_eq!(&*d.map.all()[0].servlet, "threaded");
}

struct CountingServlet;

impl cacheportal_web::Servlet for CountingServlet {
    fn spec(&self) -> &ServletSpec {
        static SPEC: std::sync::OnceLock<ServletSpec> = std::sync::OnceLock::new();
        SPEC.get_or_init(|| ServletSpec::new("counting"))
    }

    fn handle(
        &self,
        _req: &HttpRequest,
        conn: &mut dyn cacheportal_web::Connection,
    ) -> cacheportal_db::DbResult<String> {
        conn.execute("INSERT INTO Car VALUES ('x','y',1)", &[])?;
        let r = conn.query("SELECT COUNT(*) FROM Car", &[])?;
        Ok(format!("<html><body>{}</body></html>", r.rows[0][0]))
    }
}

#[test]
fn mapper_handles_interleaved_timestamps_from_concurrent_requests() {
    // Hand-crafted overlapping windows (as under real concurrency): queries
    // must map to at least their true request (conservatively to both).
    let rl = Arc::new(RequestLog::new());
    let ql = QueryLog::new();
    let map = Arc::new(QiUrlMap::new());
    use cacheportal_web::{PageKey, RequestObserver, RequestRecord};
    rl.on_request(RequestRecord {
        servlet: "s".into(),
        page_key: PageKey::raw("A"),
        received: 0,
        delivered: 100,
    });
    rl.on_request(RequestRecord {
        servlet: "s".into(),
        page_key: PageKey::raw("B"),
        received: 10,
        delivered: 60,
    });
    ql.record("SELECT * FROM Car WHERE price < $1", &[Value::Int(1)], true, 20, 30);
    ql.record("SELECT * FROM Car WHERE price < $1", &[Value::Int(2)], true, 70, 90);
    let mut mapper = Mapper::new(rl, ql, map.clone());
    let report = mapper.run_once();
    // First query overlaps both windows (2 mappings); second only request 1.
    assert_eq!(report.mapped, 3);
    assert_eq!(report.ambiguous, 1);
    let rows = map.all();
    let a_rows = rows.iter().filter(|r| r.page_key == PageKey::raw("A")).count();
    let b_rows = rows.iter().filter(|r| r.page_key == PageKey::raw("B")).count();
    assert_eq!((a_rows, b_rows), (2, 1));
}
