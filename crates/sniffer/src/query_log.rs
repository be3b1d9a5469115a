//! The query log (the sniffer's *query logger*, §3.2) — the JDBC-wrapper
//! analogue.
//!
//! [`LoggedConnection`] wraps any [`Connection`]. Because every servlet,
//! pool, and data source hands out connections through the same factory
//! seam, wrapping the factory captures *all* queries regardless of how the
//! application obtained the connection — the paper's argument for wrapping
//! at the driver.
//!
//! The wrapper runs on the thread that runs the servlet, inside the servlet
//! wrapper's [`RequestScope`](cacheportal_web::RequestScope): it stamps each
//! record with the id of the request it was issued for, and the mapper joins
//! on that. A record made any other way carries no id and is joined on its
//! timestamps, as in the paper.

use cacheportal_db::stripe::Striped;
use cacheportal_db::{DbResult, ExecOutcome, FaultPlan, QueryResult, Value};
use cacheportal_web::clock::{Clock, Micros};
use cacheportal_web::{current_request, Connection};
use crate::request_log::drain_stripes;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Distinct statement texts a [`LoggedConnection`] keeps a shared copy of,
/// for the statements it is handed as plain `&str`. A site has a handful of
/// servlet templates; past this many the connection starts over.
const TEXTS_CAPACITY: usize = 64;

/// One logged query.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct QueryRecord {
    /// Unique query id.
    pub id: u64,
    /// The SQL as the application issued it (may contain `$n` / `?`).
    /// Records of one servlet template share the template's own text.
    pub sql: Arc<str>,
    /// Bound parameter values.
    pub params: Vec<Value>,
    /// True for SELECTs (the only kind the mapper maps to pages).
    pub is_select: bool,
    /// Query receive time (when the driver got it).
    pub received: Micros,
    /// Result delivery time.
    pub delivered: Micros,
    /// The request the statement was issued for — the id its
    /// `RequestRecord` will carry — when the logger knew: it was called on
    /// the thread serving the request. `None` (a hand-fed or shipped log, a
    /// servlet that queries from another thread) leaves the mapper the
    /// timestamps.
    pub request: Option<u64>,
}

/// Append-only query log shared by all logged connections.
///
/// The records are striped per thread ([`cacheportal_db::stripe`]): a
/// request thread appends to a stripe of its own, and the mapper drains
/// them all — it does not depend on log order.
///
/// An installed [`FaultPlan`] models a lossy sniffer: records may be
/// dropped (never reach the mapper), duplicated, or delivered out of order.
/// The log counts what it lost so the sync-point pipeline can compensate —
/// a dropped SELECT means some cached page may be missing a dependency
/// edge, which downstream turns into a conservative eject.
pub struct QueryLog {
    records: Striped<Mutex<Vec<QueryRecord>>>,
    next_id: AtomicU64,
    /// Set once, before the first record; read without a lock.
    fault: OnceLock<FaultPlan>,
    lost: AtomicU64,
    duplicated: AtomicU64,
}

impl QueryLog {
    /// Create an empty shared log / wrap a connection.
    pub fn new() -> Arc<Self> {
        Arc::new(QueryLog {
            records: Striped::default(),
            next_id: AtomicU64::new(1),
            fault: OnceLock::new(),
            lost: AtomicU64::new(0),
            duplicated: AtomicU64::new(0),
        })
    }

    /// Install a fault plan (harness only; the default plan is inert). A
    /// log takes one plan, before its first record.
    ///
    /// # Panics
    /// When the log already has a plan.
    pub fn set_fault_plan(&self, plan: FaultPlan) {
        assert!(self.fault.set(plan).is_ok(), "a query log takes one fault plan");
    }

    /// SELECT records the sniffer lost to injected drops, cumulatively.
    /// The mapper reports the per-run delta so the portal can eject
    /// conservatively.
    pub fn lost(&self) -> u64 {
        self.lost.load(Ordering::Relaxed)
    }

    /// Records duplicated by injected faults, cumulatively.
    pub fn duplicated(&self) -> u64 {
        self.duplicated.load(Ordering::Relaxed)
    }

    /// Append one query record that names no request.
    pub fn record(
        &self,
        sql: &str,
        params: &[Value],
        is_select: bool,
        received: Micros,
        delivered: Micros,
    ) {
        self.record_for(None, sql, params, is_select, received, delivered);
    }

    /// Append one query record, issued for `request` if that is known.
    pub fn record_for(
        &self,
        request: Option<u64>,
        sql: &str,
        params: &[Value],
        is_select: bool,
        received: Micros,
        delivered: Micros,
    ) {
        self.append(request, sql.into(), params, is_select, received, delivered);
    }

    /// [`QueryLog::record_for`] of a text the record shares.
    fn append(
        &self,
        request: Option<u64>,
        sql: Arc<str>,
        params: &[Value],
        is_select: bool,
        received: Micros,
        delivered: Micros,
    ) {
        let rec = QueryRecord {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            sql,
            params: params.to_vec(),
            is_select,
            received,
            delivered,
            request,
        };
        let mut duplicate = false;
        if let Some(fault) = self.fault.get() {
            if fault.drop_query_record(rec.id) {
                // Only SELECT drops threaten safety (non-SELECTs never map to
                // pages), but count every loss — the portal over-compensates
                // rather than reason about which kind vanished.
                self.lost.fetch_add(1, Ordering::Relaxed);
                return;
            }
            duplicate = fault.duplicate_query_record(rec.id);
        }
        let mut records = self.records.mine().lock();
        if duplicate {
            self.duplicated.fetch_add(1, Ordering::Relaxed);
            records.push(rec.clone());
        }
        records.push(rec);
    }

    /// Take every record currently in the log, stripe by stripe. Under an
    /// injected reorder fault the batch comes out in a deterministic shuffle
    /// (reversed) — the mapper must not depend on log order.
    pub fn drain(&self) -> Vec<QueryRecord> {
        let mut records = drain_stripes(&self.records);
        if self.fault.get().is_some_and(FaultPlan::reorder_query_records) {
            records.reverse();
        }
        records
    }

    /// Put unconsumed records back, ahead of what this thread has logged
    /// since.
    pub fn restore(&self, records: Vec<QueryRecord>) {
        let mut stripe = self.records.mine().lock();
        let mut merged = records;
        merged.append(&mut stripe);
        *stripe = merged;
    }

    /// Number of buffered records.
    pub fn len(&self) -> usize {
        self.records.iter().map(|s| s.lock().len()).sum()
    }

    /// True when no records are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Connection wrapper that records every statement with timestamps.
pub struct LoggedConnection<C: Connection> {
    inner: C,
    log: Arc<QueryLog>,
    clock: Arc<dyn Clock>,
    /// Shared copies of the parameterised texts this connection was handed
    /// as `&str`, so that a record holds a reference rather than a copy.
    texts: Vec<Arc<str>>,
}

impl<C: Connection> LoggedConnection<C> {
    /// Create an empty shared log / wrap a connection.
    pub fn new(inner: C, log: Arc<QueryLog>, clock: Arc<dyn Clock>) -> Self {
        LoggedConnection { inner, log, clock, texts: Vec::new() }
    }

    /// `sql` as a record stores it. A text without parameters has its values
    /// written into it and rarely comes twice; it is not kept.
    fn text(&mut self, sql: &str, params: &[Value]) -> Arc<str> {
        if params.is_empty() {
            return sql.into();
        }
        if let Some(text) = self.texts.iter().find(|t| ***t == *sql) {
            return text.clone();
        }
        if self.texts.len() >= TEXTS_CAPACITY {
            self.texts.clear();
        }
        let text: Arc<str> = sql.into();
        self.texts.push(text.clone());
        text
    }

    /// Run `statement` between two ticks and log it if it succeeds.
    fn logged<R>(
        &mut self,
        sql: impl FnOnce(&mut Self) -> Arc<str>,
        params: &[Value],
        is_select: bool,
        statement: impl FnOnce(&mut C) -> DbResult<R>,
    ) -> DbResult<R> {
        let received = self.clock.tick();
        let result = statement(&mut self.inner);
        let delivered = self.clock.tick();
        if result.is_ok() {
            let sql = sql(self);
            self.log
                .append(current_request(), sql, params, is_select, received, delivered);
        }
        result
    }
}

impl<C: Connection> Connection for LoggedConnection<C> {
    fn query(&mut self, sql: &str, params: &[Value]) -> DbResult<QueryResult> {
        self.logged(|c| c.text(sql, params), params, true, |c| c.query(sql, params))
    }

    fn query_shared(&mut self, sql: &Arc<str>, params: &[Value]) -> DbResult<QueryResult> {
        self.logged(|_| sql.clone(), params, true, |c| c.query_shared(sql, params))
    }

    fn execute(&mut self, sql: &str, params: &[Value]) -> DbResult<ExecOutcome> {
        self.logged(|c| c.text(sql, params), params, false, |c| c.execute(sql, params))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cacheportal_db::Database;
    use cacheportal_web::{shared, DbConnection, ManualClock};

    fn setup() -> (LoggedConnection<DbConnection>, Arc<QueryLog>, Arc<ManualClock>) {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (a INT)").unwrap();
        db.execute("INSERT INTO t VALUES (1)").unwrap();
        let log = QueryLog::new();
        let clock = ManualClock::new();
        let conn = LoggedConnection::new(DbConnection::new(shared(db)), log.clone(), clock.clone());
        (conn, log, clock)
    }

    #[test]
    fn queries_logged_with_interval() {
        let (mut conn, log, clock) = setup();
        clock.set(100);
        conn.query("SELECT * FROM t WHERE a = $1", &[Value::Int(1)]).unwrap();
        let recs = log.drain();
        assert_eq!(recs.len(), 1);
        let r = &recs[0];
        assert!(r.is_select);
        assert_eq!(r.params, vec![Value::Int(1)]);
        assert!(r.received > 100 && r.delivered > r.received);
        assert_eq!(r.request, None, "no request is being served");
    }

    #[test]
    fn queries_are_stamped_with_the_request_their_thread_serves() {
        let (mut conn, log, _) = setup();
        {
            let _scope = cacheportal_web::RequestScope::enter(7);
            conn.query("SELECT * FROM t", &[]).unwrap();
            conn.execute("INSERT INTO t VALUES (2)", &[]).unwrap();
        }
        conn.query("SELECT * FROM t", &[]).unwrap();
        let stamps: Vec<Option<u64>> = log.drain().iter().map(|r| r.request).collect();
        assert_eq!(stamps, [Some(7), Some(7), None]);
    }

    #[test]
    fn executes_logged_as_non_select() {
        let (mut conn, log, _) = setup();
        conn.execute("INSERT INTO t VALUES (2)", &[]).unwrap();
        let recs = log.drain();
        assert_eq!(recs.len(), 1);
        assert!(!recs[0].is_select);
    }

    #[test]
    fn failed_statements_not_logged() {
        let (mut conn, log, _) = setup();
        assert!(conn.query("SELECT * FROM missing", &[]).is_err());
        assert!(log.is_empty());
    }

    #[test]
    fn restore_prepends() {
        let (mut conn, log, _) = setup();
        conn.query("SELECT * FROM t", &[]).unwrap();
        let first = log.drain();
        conn.query("SELECT a FROM t", &[]).unwrap();
        log.restore(first);
        let all = log.drain();
        assert_eq!(all.len(), 2);
        assert_eq!(&*all[0].sql, "SELECT * FROM t");
        assert_eq!(&*all[1].sql, "SELECT a FROM t");
    }
}
