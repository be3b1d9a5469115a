#![warn(missing_docs)]

//! # cacheportal
//!
//! A from-scratch Rust reproduction of **CachePortal** — *"Enabling Dynamic
//! Content Caching for Database-Driven Web Sites"* (Candan, Li, Luo, Hsiung,
//! Agrawal; ACM SIGMOD 2001).
//!
//! CachePortal makes dynamically generated web pages cacheable by pairing a
//! **sniffer** (which learns, from request and query logs, which pages
//! depend on which query instances) with an **invalidator** (which watches
//! the database update log and ejects exactly the affected pages).
//!
//! This crate is the facade: [`CachePortal`] wires the database engine, a
//! farm of web/application servers ([`CachePortalBuilder::nodes`], one by
//! default) with a sniffer each, the page cache, and the invalidator into
//! one functional system.
//!
//! ```
//! use cacheportal::{CachePortal, Served};
//! use cacheportal::db::Database;
//! use cacheportal::web::{HttpRequest, ParamSource, QueryTemplate, ServletSpec, SqlServlet};
//! use cacheportal::db::schema::ColType;
//! use std::sync::Arc;
//!
//! let mut db = Database::new();
//! db.execute("CREATE TABLE Car (maker TEXT, model TEXT, price INT)").unwrap();
//! db.execute("INSERT INTO Car VALUES ('Honda','Civic',18000)").unwrap();
//!
//! let portal = CachePortal::builder(db).build().unwrap();
//! portal.register_servlet(Arc::new(SqlServlet::new(
//!     ServletSpec::new("cars").with_key_get_params(&["maxprice"]),
//!     "Cars",
//!     vec![QueryTemplate::new(
//!         "SELECT * FROM Car WHERE price < $1",
//!         vec![ParamSource::Get("maxprice".into(), ColType::Int)],
//!     )],
//! )));
//!
//! let req = HttpRequest::get("shop", "/cars", &[("maxprice", "20000")]);
//! assert_eq!(portal.request(&req).served, Served::Generated);
//! assert_eq!(portal.request(&req).served, Served::CacheHit);
//!
//! // A relevant update reaches the cache at the next sync point.
//! portal.update("INSERT INTO Car VALUES ('Kia','Rio',12000)").unwrap();
//! portal.sync_point().unwrap();
//! assert_eq!(portal.request(&req).served, Served::Generated);
//! assert!(portal.request(&req).response.body.contains("Rio"));
//! ```

pub mod durability;
pub mod system;

pub use durability::{
    CursorRecord, Durability, DurableRecord, Origin, OriginRecord, PersistOutcome, RecoveredState,
    SnapshotDoc,
};
pub use system::{
    CachePortal, CachePortalBuilder, Holder, Miss, PendingMiss, RecoveryStats, RequestOutcome,
    Served, StalePage, Staleness, SyncReport,
};

/// Re-export: the relational engine substrate.
pub use cacheportal_db as db;
/// Re-export: the HTTP/servlet substrate.
pub use cacheportal_web as web;
/// Re-export: the page cache.
pub use cacheportal_cache as cache;
/// Re-export: the sniffer.
pub use cacheportal_sniffer as sniffer;
/// Re-export: the invalidator.
pub use cacheportal_invalidator as invalidator;
/// Re-export: the observability layer (metrics, tracing, staleness probe).
pub use cacheportal_obs as obs;
/// Re-export: the networked invalidation bus (edge delivery, watermarks).
pub use cacheportal_bus as bus;
