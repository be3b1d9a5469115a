#![warn(missing_docs)]

//! # cacheportal-sniffer
//!
//! The CachePortal **sniffer** (paper §3): three loosely coupled parts that
//! build the QI/URL map without touching servlets, the web server, or the
//! DBMS.
//!
//! * [`request_log::RequestLog`] — servlet-wrapper request logger.
//! * [`query_log::LoggedConnection`] — JDBC-wrapper query logger, which
//!   types each SELECT as it is logged and keeps no record of a row the
//!   map already holds.
//! * [`mapper::Mapper`] — files each query record under the page the query
//!   logger named on it or, for a record without one, joins the two logs on
//!   interval containment, producing the [`map::QiUrlMap`].

pub mod map;
pub mod mapper;
pub mod query_log;
pub mod request_log;

pub use map::{MapWriter, QiUrlEntry, QiUrlMap, Row, TemplateTexts, TypedInstance};
pub use mapper::{Mapper, MapperReport};
pub use query_log::{
    canonical_bound_sql, type_text, IssuedFor, LoggedConnection, QueryLog, QueryRecord,
};
pub use request_log::RequestLog;
