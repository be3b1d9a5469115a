//! The web server front: forwards every request to the application server
//! (paper Figure 5, arrows (1)-(2) and (5)-(6)).

use crate::appserver::AppServer;
use crate::http::{HttpRequest, HttpResponse};
use crate::servlet::Servlet;
use crate::url::PageKey;
use std::sync::Arc;

/// A web server node.
pub struct WebServer {
    app: Arc<AppServer>,
}

impl WebServer {
    /// Create a web server fronting the application server.
    pub fn new(app: Arc<AppServer>) -> Self {
        WebServer { app }
    }

    /// The application server behind this web server.
    pub fn app(&self) -> &Arc<AppServer> {
        &self.app
    }

    /// Serve one request.
    pub fn handle(&self, req: &HttpRequest) -> HttpResponse {
        self.app.handle(req)
    }

    /// [`WebServer::handle`] for a request the caller has routed to
    /// `servlet` and keyed as `page_key` (see [`AppServer::serve`]).
    pub fn serve(&self, req: &HttpRequest, servlet: &dyn Servlet, page_key: &PageKey) -> HttpResponse {
        self.app.serve(req, servlet, page_key)
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
    fn dynamic_falls_through_to_app() {
        let ws = server();
        let resp = ws.handle(&HttpRequest::get("h", "/unknown", &[]));
        assert_eq!(resp.status.code(), 404);
    }
}
