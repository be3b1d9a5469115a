//! The application server: routes requests to servlets, manages the
//! connection pool, runs the request-logger wrapper, and rewrites
//! cache-control directives for CachePortal-compliant caches (§3.1).

use crate::clock::{Clock, Micros};
use crate::connection::ConnectionPool;
use crate::http::{CacheControl, HttpRequest, HttpResponse, Owner};
use crate::scope::{unscoped_statements, RequestScope};
use crate::servlet::Servlet;
use crate::url::PageKey;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// What the request logger records per request: the page it produced and
/// the window it was served in. §3.1's request, cookie and POST strings are
/// what the page key is computed from.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct RequestRecord {
    /// Servlet that served the request (a clone of its spec's name).
    pub servlet: Arc<str>,
    /// Canonical page key (host + path + key params).
    pub page_key: PageKey,
    /// Receive timestamp.
    pub received: Micros,
    /// Delivery timestamp.
    pub delivered: Micros,
}

/// Observer interface implemented by the sniffer's request logger.
pub trait RequestObserver: Send + Sync {
    /// Called once per successfully served request.
    fn on_request(&self, record: RequestRecord);

    /// Called by [`AppServer::serve`] once per successfully served request
    /// instead of [`on_request`](RequestObserver::on_request):
    /// `overlapped` says whether a statement was logged outside any
    /// request's scope while the servlet ran ([`unscoped_statements`]
    /// moved). By default the record is passed on to `on_request` either
    /// way.
    fn on_served(&self, record: RequestRecord, overlapped: bool) {
        let _ = overlapped;
        self.on_request(record);
    }
}

/// Application server configuration.
#[derive(Debug, Clone)]
pub struct AppServerConfig {
    /// When true (CachePortal deployment), cacheable dynamic pages are
    /// tagged `private, owner="cacheportal"` instead of `no-cache`.
    pub rewrite_cache_control: bool,
    /// Owner string used in the rewritten directive.
    pub cache_owner: String,
}

impl Default for AppServerConfig {
    fn default() -> Self {
        AppServerConfig {
            rewrite_cache_control: false,
            cache_owner: "cacheportal".to_string(),
        }
    }
}

/// The application server.
pub struct AppServer {
    /// Servlets by route; a route's text is shared with whoever asks for it
    /// through [`AppServer::route`].
    routes: RwLock<HashMap<Arc<str>, Arc<dyn Servlet>>>,
    pool: Arc<ConnectionPool>,
    clock: Arc<dyn Clock>,
    /// Set once; read without a lock on every request.
    observer: OnceLock<Arc<dyn RequestObserver>>,
    /// The owner a cacheable response names, `AppServerConfig::cache_owner`
    /// made once and shared; `None` when the server leaves `no-cache` as it
    /// is.
    owner: Option<Owner>,
    /// Requests routed to servlets so far.
    routed: AtomicU64,
}

impl AppServer {
    /// Create an application server over a connection pool.
    pub fn new(pool: Arc<ConnectionPool>, clock: Arc<dyn Clock>, config: AppServerConfig) -> Self {
        AppServer {
            routes: RwLock::new(HashMap::new()),
            pool,
            clock,
            observer: OnceLock::new(),
            owner: config.rewrite_cache_control.then(|| config.cache_owner.into()),
            routed: AtomicU64::new(0),
        }
    }

    /// Register a servlet at `/{spec.name}`.
    pub fn register(&self, servlet: Arc<dyn Servlet>) {
        let path = format!("/{}", servlet.spec().name);
        self.routes.write().insert(path.into(), servlet);
    }

    /// Install the request observer (the sniffer's request logger). The
    /// paper's design is non-invasive: this wrapper is the only touch point.
    ///
    /// # Panics
    /// When an observer is installed already: a server has one.
    pub fn set_observer(&self, obs: Arc<dyn RequestObserver>) {
        assert!(self.observer.set(obs).is_ok(), "an application server takes one observer");
    }

    /// Look up the servlet for a request path.
    pub fn servlet_for(&self, path: &str) -> Option<Arc<dyn Servlet>> {
        self.routes.read().get(path).cloned()
    }

    /// The route matching `path` — its text, equal to `path`, and its
    /// servlet — for a front that shares the path's text rather than copy
    /// it.
    pub fn route(&self, path: &str) -> Option<(Arc<str>, Arc<dyn Servlet>)> {
        let routes = self.routes.read();
        let (route, servlet) = routes.get_key_value(path)?;
        Some((route.clone(), servlet.clone()))
    }

    /// Registered servlets (deployment introspection).
    pub fn servlets(&self) -> Vec<Arc<dyn Servlet>> {
        self.routes.read().values().cloned().collect()
    }

    /// Total requests routed to servlets.
    pub fn requests_served(&self) -> u64 {
        self.routed.load(Ordering::Relaxed)
    }

    /// The connection pool this server draws from (checkout counters and
    /// wait-time statistics live there).
    pub fn pool(&self) -> &Arc<ConnectionPool> {
        &self.pool
    }

    /// Handle one request end-to-end: route, execute, log, tag.
    pub fn handle(&self, req: &HttpRequest) -> HttpResponse {
        let Some(servlet) = self.servlet_for(&req.path) else {
            return HttpResponse::not_found();
        };
        self.serve(req, &*servlet, &PageKey::for_request(req, servlet.spec()))
    }

    /// [`AppServer::handle`] for a front that has routed `req` to `servlet`
    /// itself and, to look the page up in its cache, already built the page
    /// key: `page_key` hands that key over.
    pub fn serve(
        &self,
        req: &HttpRequest,
        servlet: &dyn Servlet,
        page_key: &PageKey,
    ) -> HttpResponse {
        // The page key and the servlet's name are held where the query
        // logger finds them: every statement the servlet issues on this
        // thread is logged for this page.
        self.routed.fetch_add(1, Ordering::Relaxed);
        let spec = servlet.spec();
        let unscoped = unscoped_statements();
        let received = self.clock.tick();
        let outcome = {
            let _scope = RequestScope::enter(page_key.clone(), spec.name.clone());
            let mut conn = self.pool.checkout();
            servlet.handle(req, &mut conn)
        };
        let overlapped = unscoped_statements() != unscoped;
        let delivered = self.clock.tick();

        let body = match outcome {
            Ok(body) => body,
            Err(e) => return HttpResponse::server_error(&e.to_string()),
        };

        // Request-logger wrapper: record after successful delivery.
        if let Some(obs) = self.observer.get() {
            let record = RequestRecord {
                servlet: spec.name.clone(),
                page_key: page_key.clone(),
                received,
                delivered,
            };
            obs.on_served(record, overlapped);
        }

        // §3.1: translate `no-cache` into the owner-restricted directive so
        // CachePortal-compliant caches may store the page.
        let cache_control = match &self.owner {
            Some(owner) if spec.cacheable => CacheControl::PrivateOwner(owner.clone()),
            _ => CacheControl::NoCache,
        };
        HttpResponse::ok(body, cache_control)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;
    use crate::connection::{shared, ConnectionFactory, DbConnection};
    use crate::scope::with_current_page;
    use crate::servlet::{FnServlet, ParamSource, QueryTemplate, ServletSpec, SqlServlet};
    use cacheportal_db::schema::ColType;
    use cacheportal_db::Database;
    use parking_lot::Mutex;

    fn app(rewrite: bool) -> (AppServer, Arc<ManualClock>) {
        let mut db = Database::new();
        db.execute("CREATE TABLE Car (maker TEXT, model TEXT, price INT)")
            .unwrap();
        db.execute("INSERT INTO Car VALUES ('Toyota','Avalon',25000)")
            .unwrap();
        let sdb = shared(db);
        let factory: ConnectionFactory =
            Arc::new(move || Box::new(DbConnection::new(sdb.clone())));
        let clock = ManualClock::new();
        let app = AppServer::new(
            ConnectionPool::new(factory, 4),
            clock.clone(),
            AppServerConfig {
                rewrite_cache_control: rewrite,
                ..Default::default()
            },
        );
        app.register(Arc::new(SqlServlet::new(
            ServletSpec::new("cars").with_key_get_params(&["maxprice"]),
            "Cars",
            vec![QueryTemplate::new(
                "SELECT * FROM Car WHERE price <= $1",
                vec![ParamSource::Get("maxprice".into(), ColType::Int)],
            )],
        )));
        (app, clock)
    }

    struct Capture(Mutex<Vec<RequestRecord>>);
    impl RequestObserver for Capture {
        fn on_request(&self, r: RequestRecord) {
            self.0.lock().push(r);
        }
    }

    #[test]
    fn routes_and_renders() {
        let (app, _) = app(false);
        let resp = app.handle(&HttpRequest::get("h", "/cars", &[("maxprice", "30000")]));
        assert_eq!(resp.status.code(), 200);
        assert!(resp.body.contains("Avalon"));
        assert_eq!(resp.cache_control, CacheControl::NoCache);
        assert_eq!(app.requests_served(), 1);
    }

    #[test]
    fn unknown_route_404() {
        let (app, _) = app(false);
        let resp = app.handle(&HttpRequest::get("h", "/nope", &[]));
        assert_eq!(resp.status.code(), 404);
    }

    #[test]
    fn servlet_error_becomes_500() {
        let (app, _) = app(false);
        let resp = app.handle(&HttpRequest::get("h", "/cars", &[])); // missing param
        assert_eq!(resp.status.code(), 500);
    }

    #[test]
    fn cacheportal_mode_rewrites_directive() {
        let (app, _) = app(true);
        let resp = app.handle(&HttpRequest::get("h", "/cars", &[("maxprice", "30000")]));
        assert_eq!(
            resp.cache_control,
            CacheControl::PrivateOwner("cacheportal".into())
        );
    }

    #[test]
    fn observer_gets_timestamps_and_key() {
        let (app, clock) = app(false);
        let cap = Arc::new(Capture(Mutex::new(Vec::new())));
        app.set_observer(cap.clone());
        clock.set(100);
        app.handle(&HttpRequest::get("h", "/cars", &[("maxprice", "30000")]));
        let recs = cap.0.lock();
        assert_eq!(recs.len(), 1);
        let r = &recs[0];
        assert!(r.received > 100 && r.delivered > r.received);
        assert_eq!(&*r.servlet, "cars");
        assert!(r.page_key.as_str().contains("maxprice=30000"));
    }

    /// The page this thread is generating, and on which servlet.
    fn current_page() -> Option<(String, String)> {
        with_current_page(|now| now.map(|(page, servlet)| (page.to_string(), servlet.to_string())))
    }

    /// A servlet that notes which page its thread is generating, then does
    /// what its `then` parameter says: fail, panic, or serve `/probe` again
    /// from inside itself.
    fn probe(app: &Arc<AppServer>, seen: &Arc<Mutex<Vec<String>>>) -> Arc<dyn Servlet> {
        let (inner, seen) = (Arc::downgrade(app), seen.clone());
        let spec = ServletSpec::new("probe").with_key_get_params(&["then"]);
        Arc::new(FnServlet::new(spec, move |req, _conn| {
            let page = || current_page().expect("a servlet runs in its request's scope");
            seen.lock().push(page().0);
            assert_eq!(page().1, "probe");
            match req.get_param("then") {
                Some("fail") => Err(cacheportal_db::DbError::Unsupported("probe".into())),
                Some("panic") => panic!("probe"),
                Some("nest") => {
                    let app = inner.upgrade().expect("the server outlives its requests");
                    let nested = app.handle(&HttpRequest::get("h", "/probe", &[("then", "")]));
                    seen.lock().push(page().0);
                    Ok(nested.body.to_string())
                }
                _ => Ok("ok".into()),
            }
        }))
    }

    #[test]
    fn request_scope_is_restored_after_error_panic_and_nested_serve() {
        let (app, _) = app(false);
        let app = Arc::new(app);
        let seen = Arc::new(Mutex::new(Vec::new()));
        app.register(probe(&app, &seen));
        let cap = Arc::new(Capture(Mutex::new(Vec::new())));
        app.set_observer(cap.clone());
        let get = |then: &str| app.handle(&HttpRequest::get("h", "/probe", &[("then", then)]));

        assert_eq!(get("fail").status.code(), 500);
        assert_eq!(current_page(), None, "after a servlet error");
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| get("panic")));
        assert!(unwound.is_err());
        assert_eq!(current_page(), None, "after a panic");
        assert_eq!(get("nest").status.code(), 200);
        assert_eq!(current_page(), None, "after a nested serve");
        assert_eq!(get("").status.code(), 200);

        // Each servlet ran in its own request's scope; the outer servlet of
        // the nested pair was back in its own after the inner returned.
        let page = |then: &str| format!("h/probe?g:then={then}");
        let seen = seen.lock().clone();
        assert_eq!(seen, [page("fail"), page("panic"), page("nest"), page(""), page("nest"), page("")]);
        // The logged pages are the ones the servlets saw; failures log nothing.
        let logged: Vec<String> = cap.0.lock().iter().map(|r| r.page_key.to_string()).collect();
        assert_eq!(logged, [page(""), page("nest"), page("")]);
        assert_eq!(app.requests_served(), 5);
    }

    /// An observer that keeps what `serve` says of each request's overlap.
    struct Overlaps(Mutex<Vec<(String, bool)>>);
    impl RequestObserver for Overlaps {
        fn on_request(&self, _: RequestRecord) {
            unreachable!("serve calls on_served");
        }
        fn on_served(&self, r: RequestRecord, overlapped: bool) {
            self.0.lock().push((r.servlet.to_string(), overlapped));
        }
    }

    #[test]
    fn serve_says_whether_a_statement_outside_any_scope_was_logged_meanwhile() {
        let (app, _) = app(false);
        let spec = ServletSpec::new("handoff");
        app.register(Arc::new(FnServlet::new(spec, |_req, _conn| {
            // What the driver wrapper does for a statement it logs on a
            // thread the servlet handed work to.
            std::thread::scope(|s| s.spawn(crate::note_unscoped_statement).join().unwrap());
            Ok("ok".into())
        })));
        let seen = Arc::new(Overlaps(Mutex::new(Vec::new())));
        app.set_observer(seen.clone());
        app.handle(&HttpRequest::get("h", "/cars", &[("maxprice", "30000")]));
        app.handle(&HttpRequest::get("h", "/handoff", &[]));
        let seen = seen.0.lock().clone();
        assert_eq!(seen, [("cars".to_string(), false), ("handoff".to_string(), true)]);
    }

    #[test]
    fn failed_requests_are_not_logged() {
        let (app, _) = app(false);
        let cap = Arc::new(Capture(Mutex::new(Vec::new())));
        app.set_observer(cap.clone());
        app.handle(&HttpRequest::get("h", "/cars", &[])); // 500
        assert!(cap.0.lock().is_empty());
    }
}
