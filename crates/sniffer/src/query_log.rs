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
//! wrapper's [`RequestScope`](cacheportal_web::RequestScope): a record it
//! makes there names the page it was issued for and the servlet generating
//! it, and the mapper files it under that page. A record made any other way
//! names no page and keeps its [received, delivered] window, which the
//! mapper joins on interval containment, as in the paper.
//!
//! A SELECT is typed once, when it is logged: the log keeps the parse of
//! each parameterised text, shared by all its connections (one query type
//! per servlet template), and a record carries its instance typed
//! ([`TypedInstance`]), so the mapper parses nothing. A record issued for a
//! page whose row the QI/URL map already holds is not kept at all
//! ([`QiUrlMap::holds`]): between two mapper runs the log holds one entry
//! per *new* row, not one per query a miss issues. That is sound because
//! the map never removes a row (DESIGN §3.4).

use crate::map::{QiUrlMap, TypedInstance};
use crate::request_log::drain_stripes;
use cacheportal_db::sql::ast::{Select, Statement};
use cacheportal_db::sql::parser::parse;
use cacheportal_db::sql::rewrite::{parameterize_in_place, substitute_params, TypePlan};
use cacheportal_db::stripe::Striped;
use cacheportal_db::{DbResult, ExecOutcome, FaultPlan, QueryResult, Value};
use cacheportal_web::clock::{Clock, Micros};
use cacheportal_web::{note_unscoped_statement, with_current_page, Connection, PageKey};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Distinct parameterised texts whose parse a log keeps. Like `Database`'s
/// statement cache: a site has a handful of servlet templates. Past this
/// many, a new text is parsed each time it is logged.
const PARSE_MEMO_CAPACITY: usize = 64;

/// One logged query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRecord {
    /// Unique query id.
    pub id: u64,
    /// The SELECT's query instance, typed; `None` for a statement that is
    /// not a SELECT, or is outside the supported dialect.
    pub typed: Option<TypedInstance>,
    /// True for SELECTs (the only kind the mapper maps to pages).
    pub is_select: bool,
    /// The page the statement was issued for, or the window the mapper
    /// finds its page by.
    pub issued_for: IssuedFor,
}

/// What a [`QueryRecord`] is filed under.
#[derive(Debug, Clone, PartialEq)]
pub enum IssuedFor {
    /// The page the statement was issued for and the servlet generating
    /// it: the logger was called on the thread serving the request. The
    /// mapper files the record under that page, logged request or not.
    Page {
        /// The page's key.
        page: PageKey,
        /// The servlet's name.
        servlet: Arc<str>,
    },
    /// A record that names no page (a hand-fed or shipped log, a servlet
    /// that queries from another thread): the mapper files it under every
    /// logged request whose window contains this one.
    Window {
        /// Query receive time (when the driver got it).
        received: Micros,
        /// Result delivery time.
        delivered: Micros,
    },
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
    /// The map the log's mapper writes ([`QueryLog::check_against`]).
    map: OnceLock<Arc<QiUrlMap>>,
    parsed: ParseMemo,
    lost: AtomicU64,
    /// Striped: nearly every miss of a mapped page counts one.
    known: Striped<AtomicU64>,
    duplicated: AtomicU64,
}

/// The parse of each parameterised text a log has seen, shared by its
/// connections without a lock: a slot is taken by an atomic count and set
/// once. Two threads that meet a new text at once may each set a slot for
/// it; both parses are the same, and the first slot is the one found.
struct ParseMemo {
    slots: [OnceLock<Parsed>; PARSE_MEMO_CAPACITY],
    taken: AtomicUsize,
}

/// One logged text, parsed.
struct Parsed {
    /// The text as the first record of it had it: the records of one
    /// servlet template share the template's handle, which is looked up by
    /// address before it is compared.
    text: Arc<str>,
    /// `None` for text that is not a SELECT of the supported dialect.
    select: Option<Logged>,
}

/// One logged SELECT, parsed.
struct Logged {
    stmt: Select,
    /// Its query type, when that is the same for every instance.
    plan: Option<TypePlan>,
}

impl Logged {
    fn of(sql: &str) -> Option<Logged> {
        let stmt = parse_select(sql)?;
        Some(Logged { plan: TypePlan::of(&stmt), stmt })
    }
}

impl ParseMemo {
    fn new() -> ParseMemo {
        ParseMemo {
            slots: std::array::from_fn(|_| OnceLock::new()),
            taken: AtomicUsize::new(0),
        }
    }

    /// The parse of `sql`: the one kept, or else a new one, kept in a slot of
    /// its own (`share` makes the text the slot keeps) — `Err` with it when
    /// every slot is taken.
    fn get(&self, sql: &str, share: &dyn Fn() -> Arc<str>) -> Result<&Parsed, Box<Parsed>> {
        let taken = self.taken.load(Ordering::Acquire).min(PARSE_MEMO_CAPACITY);
        let set = || self.slots[..taken].iter().filter_map(OnceLock::get);
        let kept = set()
            .find(|p| std::ptr::eq(p.text.as_ptr(), sql.as_ptr()) && p.text.len() == sql.len())
            .or_else(|| set().find(|p| *p.text == *sql));
        if let Some(parsed) = kept {
            return Ok(parsed);
        }
        let parsed = Parsed { select: Logged::of(sql), text: share() };
        if taken == PARSE_MEMO_CAPACITY {
            return Err(Box::new(parsed));
        }
        let at = self.taken.fetch_add(1, Ordering::AcqRel);
        let Some(slot) = self.slots.get(at) else { return Err(Box::new(parsed)) };
        // The slot is this thread's alone: `taken` handed it out once.
        let _ = slot.set(parsed);
        Ok(slot.get().expect("set just now"))
    }
}

/// A record [`QueryLog::append`] does not keep: its page has its row.
struct Known;

impl QueryLog {
    /// Create an empty shared log / wrap a connection.
    pub fn new() -> Arc<Self> {
        Arc::new(QueryLog {
            records: Striped::default(),
            next_id: AtomicU64::new(1),
            fault: OnceLock::new(),
            map: OnceLock::new(),
            parsed: ParseMemo::new(),
            lost: AtomicU64::new(0),
            known: Striped::default(),
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

    /// From now on, keep no record issued for a page whose row `map`
    /// already holds. `map` must be the one the log's mapper writes
    /// ([`Mapper::new`](crate::Mapper::new) calls this): the row is
    /// registered from there.
    ///
    /// # Panics
    /// When the log checks against another map already.
    pub(crate) fn check_against(&self, map: &Arc<QiUrlMap>) {
        let checked = self.map.get_or_init(|| map.clone());
        assert!(Arc::ptr_eq(checked, map), "a query log feeds one QI/URL map");
    }

    /// SELECT records the sniffer lost to injected drops, cumulatively.
    /// The mapper reports the per-run delta so the portal can eject
    /// conservatively.
    pub fn lost(&self) -> u64 {
        self.lost.load(Ordering::Relaxed)
    }

    /// Records not kept because the map held their row, cumulatively.
    pub fn known(&self) -> u64 {
        self.known.iter().map(|known| known.load(Ordering::Relaxed)).sum()
    }

    /// Records duplicated by injected faults, cumulatively.
    pub fn duplicated(&self) -> u64 {
        self.duplicated.load(Ordering::Relaxed)
    }

    /// Append one query record that names no page.
    pub fn record(
        &self,
        sql: &str,
        params: &[Value],
        is_select: bool,
        received: Micros,
        delivered: Micros,
    ) {
        let issued = Issued { sql, share: &|| sql.into(), params, is_select, received, delivered };
        self.append(None, issued);
    }

    /// Append one query record issued for `page`, generated by `servlet`,
    /// as the logger makes it on the thread serving that request. It keeps
    /// no window: the mapper files it under `page`.
    pub fn record_for(
        &self,
        page: &PageKey,
        servlet: &Arc<str>,
        sql: &str,
        params: &[Value],
        is_select: bool,
    ) {
        // A record filed under its page reads no window.
        let issued =
            Issued { sql, share: &|| sql.into(), params, is_select, received: 0, delivered: 0 };
        self.append(Some((page, servlet)), issued);
    }

    /// Log one statement, issued for `page` on its servlet where that is
    /// known. In this order, so that an injected fault lands on the record
    /// it would land on were no record skipped: the record's id is drawn, a
    /// fault-plan drop is counted lost, a record of a row the map holds is
    /// counted known, and the rest are kept — twice under a duplicate fault.
    fn append(&self, page: Option<(&PageKey, &Arc<str>)>, issued: Issued<'_>) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let fault = self.fault.get();
        if fault.is_some_and(|fault| fault.drop_query_record(id)) {
            // Only SELECT drops threaten safety (non-SELECTs never map to
            // pages), but count every loss — the portal over-compensates
            // rather than reason about which kind vanished.
            self.lost.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let typed = if issued.is_select {
            match self.type_select(&issued, page.map(|(page, _)| page).zip(self.map.get())) {
                Ok(typed) => typed,
                Err(Known) => {
                    self.known.mine().fetch_add(1, Ordering::Relaxed);
                    return;
                }
            }
        } else {
            None
        };
        let rec = QueryRecord {
            id,
            typed,
            is_select: issued.is_select,
            issued_for: match page {
                Some((page, servlet)) => {
                    IssuedFor::Page { page: page.clone(), servlet: servlet.clone() }
                }
                None => IssuedFor::Window { received: issued.received, delivered: issued.delivered },
            },
        };
        let duplicate = fault.is_some_and(|fault| fault.duplicate_query_record(id));
        let mut records = self.records.mine().lock();
        if duplicate {
            self.duplicated.fetch_add(1, Ordering::Relaxed);
            records.push(rec.clone());
        }
        records.push(rec);
    }

    /// A SELECT, typed — `None` when it is outside the supported dialect —
    /// or `Known` when `page`'s map holds its row. An instance of a
    /// planned text is compared before it is built, and is built only when
    /// it is new.
    fn type_select(
        &self,
        issued: &Issued<'_>,
        page: Option<(&PageKey, &Arc<QiUrlMap>)>,
    ) -> Result<Option<TypedInstance>, Known> {
        if issued.params.is_empty() {
            // A text with its values written in rarely comes twice, and is
            // not kept.
            return known_unless_new(type_text(issued.sql), page);
        }
        let unkept;
        let parsed = match self.parsed.get(issued.sql, issued.share) {
            Ok(parsed) => parsed,
            Err(parsed) => {
                unkept = parsed;
                &*unkept
            }
        };
        let Some(logged) = &parsed.select else { return Ok(None) };
        let Some(plan) = &logged.plan else {
            return known_unless_new(bind_unplanned(&logged.stmt, issued.params), page);
        };
        // Every marker is one the plan binds, so values too few for the
        // statement fail here as they would in `substitute_params`.
        let Ok(values) = plan.values(issued.params) else { return Ok(None) };
        if page.is_some_and(|(page, map)| map.holds(page, &plan.template, values.clone())) {
            return Err(Known);
        }
        Ok(Some(TypedInstance {
            template: plan.template.clone(),
            params: values.cloned().collect(),
        }))
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

    /// Number of buffered records.
    pub fn len(&self) -> usize {
        self.records.iter().map(|s| s.lock().len()).sum()
    }

    /// True when no records are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One statement as a connection ran it.
struct Issued<'a> {
    sql: &'a str,
    /// `sql` as a handle the parse memo can keep.
    share: &'a dyn Fn() -> Arc<str>,
    params: &'a [Value],
    is_select: bool,
    received: Micros,
    delivered: Micros,
}

/// `typed`, or `Known` when `page`'s map holds its row.
fn known_unless_new(
    typed: Option<TypedInstance>,
    page: Option<(&PageKey, &Arc<QiUrlMap>)>,
) -> Result<Option<TypedInstance>, Known> {
    match (&typed, page) {
        (Some(t), Some((page, map))) if map.holds(page, &t.template, t.params.iter()) => Err(Known),
        _ => Ok(typed),
    }
}

/// A query instance given as text — a `SELECT` with its values written in —
/// typed: parsed, and its literals lifted out into the type's parameters.
/// This is how the log types a statement logged without parameters, and
/// how a row that arrives as text (a journal replayed, a test's) is typed.
/// `None` for text outside the supported dialect.
pub fn type_text(sql: &str) -> Option<TypedInstance> {
    bind_unplanned(&parse_select(sql)?, &[])
}

/// A statement without a [`TypePlan`], typed: its type depends on its
/// values, so they are substituted and lifted back out.
fn bind_unplanned(stmt: &Select, params: &[Value]) -> Option<TypedInstance> {
    let mut bound = substitute_params(stmt, params).ok()?;
    let params = parameterize_in_place(&mut bound).into();
    let template = Arc::new(bound);
    Some(TypedInstance { template, params })
}

fn parse_select(sql: &str) -> Option<Select> {
    match parse(sql) {
        Ok(Statement::Select(sel)) => Some(sel),
        _ => None,
    }
}

/// Canonical bound SQL text of a logged statement: parse, substitute
/// parameters, re-render — the text a row of it shows, worked out the long
/// way (tests hold the mapper's rows against it). `None` for statements
/// outside the supported dialect.
pub fn canonical_bound_sql(sql: &str, params: &[Value]) -> Option<String> {
    let bound = substitute_params(&parse_select(sql)?, params).ok()?;
    Some(bound.to_string())
}

/// Connection wrapper that records every statement with timestamps.
pub struct LoggedConnection<C: Connection> {
    inner: C,
    log: Arc<QueryLog>,
    clock: Arc<dyn Clock>,
}

impl<C: Connection> LoggedConnection<C> {
    /// Create an empty shared log / wrap a connection.
    pub fn new(inner: C, log: Arc<QueryLog>, clock: Arc<dyn Clock>) -> Self {
        LoggedConnection { inner, log, clock }
    }

    /// Run `statement` between two ticks and log it, for the page this
    /// thread generates, if it succeeds. A statement logged on a thread in
    /// no request's scope is counted first
    /// ([`note_unscoped_statement`]): a request whose servlet waits for its
    /// result then logs its window.
    fn logged<R>(
        &mut self,
        sql: &str,
        share: &dyn Fn() -> Arc<str>,
        params: &[Value],
        is_select: bool,
        statement: impl FnOnce(&mut C) -> DbResult<R>,
    ) -> DbResult<R> {
        let received = self.clock.tick();
        let result = statement(&mut self.inner);
        let delivered = self.clock.tick();
        if result.is_ok() {
            let issued = Issued { sql, share, params, is_select, received, delivered };
            with_current_page(|page| {
                if page.is_none() {
                    note_unscoped_statement();
                }
                self.log.append(page, issued)
            });
        }
        result
    }
}

impl<C: Connection> Connection for LoggedConnection<C> {
    fn query(&mut self, sql: &str, params: &[Value]) -> DbResult<QueryResult> {
        self.logged(sql, &|| sql.into(), params, true, |c| c.query(sql, params))
    }

    fn query_shared(&mut self, sql: &Arc<str>, params: &[Value]) -> DbResult<QueryResult> {
        self.logged(sql, &|| sql.clone(), params, true, |c| c.query_shared(sql, params))
    }

    fn execute(&mut self, sql: &str, params: &[Value]) -> DbResult<ExecOutcome> {
        self.logged(sql, &|| sql.into(), params, false, |c| c.execute(sql, params))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cacheportal_db::{Database, FaultSpec};
    use cacheportal_web::{shared, DbConnection, ManualClock, RequestScope};

    fn setup() -> (LoggedConnection<DbConnection>, Arc<QueryLog>, Arc<ManualClock>) {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (a INT)").unwrap();
        db.execute("INSERT INTO t VALUES (1)").unwrap();
        let log = QueryLog::new();
        let clock = ManualClock::new();
        let conn = LoggedConnection::new(DbConnection::new(shared(db)), log.clone(), clock.clone());
        (conn, log, clock)
    }

    fn sql(record: &QueryRecord) -> String {
        record.typed.as_ref().expect("a typed SELECT").sql().to_string()
    }

    fn enter(page: &PageKey) -> RequestScope {
        RequestScope::enter(page.clone(), "s".into())
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
        assert_eq!(sql(r), "SELECT * FROM t WHERE a = 1");
        let IssuedFor::Window { received, delivered } = r.issued_for else {
            panic!("no request is being served: {:?}", r.issued_for);
        };
        assert!(received > 100 && delivered > received);
    }

    #[test]
    fn queries_name_the_page_their_thread_generates() {
        let (mut conn, log, _) = setup();
        {
            let _scope = enter(&PageKey::raw("p7"));
            conn.query("SELECT * FROM t", &[]).unwrap();
            conn.execute("INSERT INTO t VALUES (2)", &[]).unwrap();
        }
        conn.query("SELECT * FROM t", &[]).unwrap();
        let pages: Vec<Option<String>> = (log.drain().iter())
            .map(|r| match &r.issued_for {
                IssuedFor::Page { page, servlet } => Some(format!("{page} on {servlet}")),
                IssuedFor::Window { .. } => None,
            })
            .collect();
        let p7 = Some("p7 on s".to_string());
        assert_eq!(pages, [p7.clone(), p7, None]);
    }

    #[test]
    fn executes_logged_as_non_select() {
        let (mut conn, log, _) = setup();
        conn.execute("INSERT INTO t VALUES (2)", &[]).unwrap();
        let recs = log.drain();
        assert_eq!(recs.len(), 1);
        assert!(!recs[0].is_select);
        assert_eq!(recs[0].typed, None);
    }

    #[test]
    fn failed_statements_not_logged() {
        let (mut conn, log, _) = setup();
        assert!(conn.query("SELECT * FROM missing", &[]).is_err());
        assert!(log.is_empty());
    }

    #[test]
    fn connections_share_one_type_per_text() {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (a INT)").unwrap();
        let (db, log, clock) = (shared(db), QueryLog::new(), ManualClock::new());
        let connect = || {
            LoggedConnection::new(DbConnection::new(db.clone()), log.clone(), clock.clone())
        };
        let (mut one, mut two) = (connect(), connect());
        let text: Arc<str> = "SELECT * FROM t WHERE a = $1".into();
        one.query_shared(&text, &[Value::Int(1)]).unwrap();
        two.query_shared(&text, &[Value::Int(2)]).unwrap();
        two.query("SELECT * FROM t WHERE a = $1", &[Value::Int(3)]).unwrap();
        log.record(&text, &[Value::Int(4)], true, 1, 2);
        log.record("SELECT * FROM t WHERE a = $1 AND", &[Value::Int(5)], true, 1, 2);
        log.record("SELECT * FROM t WHERE a = $2", &[Value::Int(6)], true, 1, 2);
        let recs = log.drain();
        let templates: Vec<&Arc<Select>> =
            recs[..4].iter().map(|r| &r.typed.as_ref().unwrap().template).collect();
        assert!(templates.iter().all(|t| Arc::ptr_eq(t, templates[0])));
        assert_eq!(sql(&recs[2]), "SELECT * FROM t WHERE a = 3");
        assert_eq!((recs[4].is_select, &recs[4].typed), (true, &None), "outside the dialect");
        assert_eq!(recs[5].typed, None, "a marker left unbound");
    }

    #[test]
    fn a_full_memo_still_types_every_text() {
        let log = QueryLog::new();
        for i in 0..PARSE_MEMO_CAPACITY + 3 {
            log.record(&format!("SELECT * FROM t{i} WHERE a = $1"), &[Value::Int(1)], true, 1, 2);
        }
        log.record("SELECT * FROM t0 WHERE a = $1", &[Value::Int(2)], true, 1, 2);
        let recs = log.drain();
        let last = PARSE_MEMO_CAPACITY + 2;
        assert_eq!(sql(&recs[last]), format!("SELECT * FROM t{last} WHERE a = 1"));
        let (first, again) = (&recs[0], &recs[last + 1]);
        let template = |r: &QueryRecord| r.typed.clone().unwrap().template;
        assert!(Arc::ptr_eq(&template(first), &template(again)), "a kept text is parsed once");
    }

    #[test]
    fn a_record_of_a_row_the_map_holds_is_not_kept() {
        let (mut conn, log, _) = setup();
        let map = Arc::new(QiUrlMap::new());
        log.check_against(&map);
        let page = PageKey::raw("p");
        map.insert("SELECT * FROM t WHERE a = 1", page.clone(), "s".into());
        map.insert("SELECT * FROM t WHERE a = 1 AND a < 2", page.clone(), "s".into());
        let serve = |conn: &mut LoggedConnection<DbConnection>, page: &PageKey| {
            let _scope = enter(page);
            conn.query("SELECT * FROM t WHERE a = $1", &[Value::Int(1)]).unwrap();
            conn.query("SELECT * FROM t WHERE a = 1 AND a < 2", &[]).unwrap();
            conn.query("SELECT * FROM t WHERE a = $1", &[Value::Float(1.0)]).unwrap();
            conn.execute("INSERT INTO t VALUES (2)", &[]).unwrap();
        };
        serve(&mut conn, &page);
        // Known: the planned text by value, the text with its values written
        // in by its typed form. `1.0` is another row; an update is kept.
        assert_eq!(log.known(), 2);
        let kept = log.drain();
        assert_eq!(kept.len(), 2);
        assert_eq!(sql(&kept[0]), "SELECT * FROM t WHERE a = 1.0");
        assert!(!kept[1].is_select);
        // Another page has no rows; a record issued for no page is kept.
        serve(&mut conn, &PageKey::raw("q"));
        conn.query("SELECT * FROM t WHERE a = $1", &[Value::Int(1)]).unwrap();
        assert_eq!((log.known(), log.drain().len()), (2, 5));
        // The log checks the map its mapper writes, and no other.
        let other = std::panic::catch_unwind(|| log.check_against(&Arc::new(QiUrlMap::new())));
        assert!(other.is_err());
        log.check_against(&map);
    }

    #[test]
    fn a_known_record_still_draws_its_id_and_is_lost_to_a_drop() {
        let spec = FaultSpec { seed: 5, sniffer_drop: 0.5, ..FaultSpec::default() };
        let (mut conn, log, _) = setup();
        log.set_fault_plan(FaultPlan::new(spec.clone()));
        let map = Arc::new(QiUrlMap::new());
        log.check_against(&map);
        let page = PageKey::raw("p");
        map.insert("SELECT * FROM t WHERE a = 1", page.clone(), "s".into());
        const KNOWN: u64 = 20;
        {
            let _scope = enter(&page);
            for _ in 0..KNOWN {
                conn.query("SELECT * FROM t WHERE a = $1", &[Value::Int(1)]).unwrap();
            }
        }
        // The same plan's verdicts on ids 1..=KNOWN: a drop is a loss, known
        // or not; every other record is known.
        let oracle = FaultPlan::new(spec);
        let dropped = (1..=KNOWN).filter(|&id| oracle.drop_query_record(id)).count() as u64;
        assert!(0 < dropped && dropped < KNOWN, "the seed drops some, not all");
        assert_eq!((log.lost(), log.known()), (dropped, KNOWN - dropped));
        // The next record is the next id: the known ones drew theirs.
        let next = (KNOWN + 1..).find(|&id| !oracle.drop_query_record(id)).unwrap();
        for _ in KNOWN + 1..=next {
            conn.query("SELECT * FROM t WHERE a = $1", &[Value::Int(2)]).unwrap();
        }
        let kept = log.drain();
        assert_eq!(kept.last().map(|r| r.id), Some(next));
        assert!(kept.iter().all(|r| r.id > KNOWN));
    }
}
