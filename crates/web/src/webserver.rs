//! The web server front: serves static content directly, forwards dynamic
//! requests to the application server (paper Figure 5, arrows (1)-(2) and
//! (5)-(6)).

use crate::appserver::AppServer;
use crate::http::{CacheControl, HttpRequest, HttpResponse};
use crate::servlet::Servlet;
use crate::url::PageKey;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A web server node.
pub struct WebServer {
    app: Arc<AppServer>,
    static_pages: RwLock<HashMap<String, Arc<str>>>,
    hits_static: AtomicU64,
    hits_dynamic: AtomicU64,
}

impl WebServer {
    /// Create a web server fronting the application server.
    pub fn new(app: Arc<AppServer>) -> Self {
        WebServer {
            app,
            static_pages: RwLock::new(HashMap::new()),
            hits_static: AtomicU64::new(0),
            hits_dynamic: AtomicU64::new(0),
        }
    }

    /// Publish a static page at `path`.
    pub fn add_static(&self, path: &str, body: &str) {
        self.static_pages
            .write()
            .insert(path.to_string(), body.into());
    }

    /// The application server behind this web server.
    pub fn app(&self) -> &Arc<AppServer> {
        &self.app
    }

    /// Serve one request.
    pub fn handle(&self, req: &HttpRequest) -> HttpResponse {
        self.route(req, |app| app.handle(req))
    }

    /// [`WebServer::handle`] for a request the caller has routed to
    /// `servlet` and keyed as `page_key` (see [`AppServer::serve`]).
    pub fn serve(&self, req: &HttpRequest, servlet: &dyn Servlet, page_key: &PageKey) -> HttpResponse {
        self.route(req, |app| app.serve(req, servlet, || page_key.clone()))
    }

    /// A static page if there is one at the path, else what `dynamic` makes
    /// of the application server.
    fn route(&self, req: &HttpRequest, dynamic: impl FnOnce(&AppServer) -> HttpResponse) -> HttpResponse {
        if let Some(body) = self.static_pages.read().get(&req.path) {
            self.hits_static.fetch_add(1, Ordering::Relaxed);
            return HttpResponse::ok(body.clone(), CacheControl::Public);
        }
        self.hits_dynamic.fetch_add(1, Ordering::Relaxed);
        dynamic(&self.app)
    }

    /// (static, dynamic) request counters.
    pub fn counters(&self) -> (u64, u64) {
        (
            self.hits_static.load(Ordering::Relaxed),
            self.hits_dynamic.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::appserver::AppServerConfig;
    use crate::clock::ManualClock;
    use crate::connection::{shared, ConnectionFactory, ConnectionPool, DbConnection};
    use cacheportal_db::Database;

    fn server() -> WebServer {
        let db = shared(Database::new());
        let factory: ConnectionFactory =
            Arc::new(move || Box::new(DbConnection::new(db.clone())));
        let app = AppServer::new(
            ConnectionPool::new(factory, 2),
            ManualClock::new(),
            AppServerConfig::default(),
        );
        WebServer::new(Arc::new(app))
    }

    #[test]
    fn static_pages_are_public() {
        let ws = server();
        ws.add_static("/index.html", "<html>hello</html>");
        let resp = ws.handle(&HttpRequest::get("h", "/index.html", &[]));
        assert_eq!(resp.status.code(), 200);
        assert_eq!(resp.cache_control, CacheControl::Public);
        assert_eq!(ws.counters(), (1, 0));
    }

    #[test]
    fn dynamic_falls_through_to_app() {
        let ws = server();
        let resp = ws.handle(&HttpRequest::get("h", "/unknown", &[]));
        assert_eq!(resp.status.code(), 404);
        assert_eq!(ws.counters(), (0, 1));
    }
}
