#![warn(missing_docs)]

//! # cacheportal-db
//!
//! In-memory relational engine substrate for the CachePortal reproduction.
//!
//! The paper deployed Oracle 8i; the invalidator only needs three things from
//! the DBMS: (1) execute SQL queries, (2) answer polling queries, and
//! (3) expose an update log. This crate provides all three, with a SQL
//! subset (select-project-join, conjunctive predicates, aggregates,
//! `GROUP BY` / `ORDER BY` / `LIMIT`, DML, DDL), hash indexes, and honest
//! work accounting that the simulator maps to service times.
//!
//! ```
//! use cacheportal_db::engine::Database;
//!
//! let mut db = Database::new();
//! db.execute("CREATE TABLE Car (maker TEXT, model TEXT, price INT)").unwrap();
//! db.execute("INSERT INTO Car VALUES ('Toyota','Avalon',25000)").unwrap();
//! let r = db.query("SELECT model FROM Car WHERE price > 20000").unwrap();
//! assert_eq!(r.rows.len(), 1);
//! ```

pub mod engine;
pub mod error;
pub mod eval;
pub mod fault;
pub mod exec;
pub mod log;
pub mod schema;
pub mod sql;
pub mod stripe;
pub mod table;
pub mod txn;
pub mod value;

pub use engine::{rows_read_by_this_thread, Database, ExecOutcome, PreparedStatement};
pub use fault::{FaultCounts, FaultPlan, FaultSpec, PollFault};
pub use txn::Transaction;
pub use error::{DbError, DbResult};
pub use exec::QueryResult;
pub use log::{LogOp, LogRecord, Lsn, UpdateLog};
pub use value::Value;
