#![warn(missing_docs)]

//! # cacheportal-web
//!
//! Web/application-server substrate for the CachePortal reproduction: an
//! HTTP request/response model with GET/POST/cookie parameters, cache-control
//! directives (including the `eject` and `private, owner="cacheportal"`
//! extensions from the paper), servlets with per-servlet cache-key specs, a
//! JDBC-style connection abstraction with pooling, and web/application
//! server components with the non-invasive logging seams the sniffer hooks.

pub mod appserver;
pub mod clock;
pub mod connection;
pub mod http;
pub mod inline;
pub mod render;
pub mod scope;
pub mod servlet;
pub mod url;
pub mod webserver;

pub use appserver::{AppServer, AppServerConfig, RequestObserver, RequestRecord};
pub use clock::{Clock, ManualClock, Micros, SystemClock};
pub use connection::{shared, Connection, ConnectionFactory, ConnectionPool, DbConnection, SharedDb};
pub use http::{CacheControl, HttpRequest, HttpResponse, Method, Owner, Status};
pub use inline::{push_tight, InlineVec};
pub use scope::{note_unscoped_statement, unscoped_statements, with_current_page, RequestScope};
pub use servlet::{FnServlet, ParamSource, QueryTemplate, Servlet, ServletSpec, SqlServlet};
pub use url::PageKey;
pub use webserver::WebServer;
