//! The request-to-query mapper (§3.3).
//!
//! At every run it joins the two logs on *interval containment*: a query
//! issued and answered inside a request's [receive, delivery] window is
//! attributed to that request. Under concurrency a query interval can fall
//! inside several request windows; the mapper then attributes it to all of
//! them — conservative in exactly the direction invalidation safety needs
//! (a page is never missing a dependency, it can only have spurious ones).
//!
//! The join is indexed ([`WindowIndex`]): a run costs a sort of its request
//! windows plus, per query, a binary search and a walk over the windows that
//! can still reach it, instead of a pass over every window. Each distinct
//! logged SQL text is parsed once, its query type worked out once, and an
//! instance is typed — its type and parameter values worked out — before its
//! text is rendered: the map knows by the typed form whether it already has
//! the row, and most rows it has ([`MapWriter::insert_typed`]); the
//! invalidator's registration scan, which would otherwise parse the type and
//! the values back out of the text, reads them beside the row.
//!
//! [`MapWriter::insert_typed`]: crate::map::MapWriter::insert_typed

use crate::map::{Inserted, QiUrlMap, TypedInstance};
use crate::query_log::{QueryLog, QueryRecord};
use crate::request_log::{LoggedRequest, RequestLog};
use cacheportal_db::sql::ast::{Bound, Select, Statement};
use cacheportal_db::sql::parser::parse;
use cacheportal_db::sql::rewrite::{parameterize_in_place, substitute_params, TypePlan};
use cacheportal_db::Value;
use cacheportal_web::clock::Micros;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Distinct logged SQL texts whose parse the mapper keeps. Like
/// `Database`'s statement cache: a site has a handful of servlet templates,
/// and when more texts than this arrive the memo starts over rather than
/// track recency.
const PARSE_MEMO_CAPACITY: usize = 64;

/// Outcome counters for one mapper run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MapperReport {
    /// (query, request) associations written to the map (after dedup the
    /// map itself may record fewer).
    pub mapped: u64,
    /// Of those, the ones whose bound text was rendered: new rows, and rows
    /// the map held as text only. The rest it knew by their typed form.
    pub rendered: u64,
    /// Queries that matched more than one request window.
    pub ambiguous: u64,
    /// Queries retained for the next run (enclosing request not yet logged).
    pub retained: u64,
    /// Queries dropped after exceeding the retention limit.
    pub dropped: u64,
    /// Non-SELECT statements discarded.
    pub non_select: u64,
    /// SELECTs that could not be canonicalized (unparseable by the
    /// invalidator's dialect) and were skipped.
    pub unparseable: u64,
    /// Records the query logger lost (injected drops) since the previous
    /// run. Nonzero means some page admitted since then may be missing a
    /// dependency edge — the portal must eject those pages conservatively.
    pub lost: u64,
    /// Wall-clock microseconds this run took (mapping latency).
    pub elapsed_micros: u64,
}

impl MapperReport {
    /// The report of two runs taken together: a farm runs one mapper per
    /// server node at each sync point and reports them as one.
    pub fn merge(self, other: MapperReport) -> MapperReport {
        MapperReport {
            mapped: self.mapped + other.mapped,
            rendered: self.rendered + other.rendered,
            ambiguous: self.ambiguous + other.ambiguous,
            retained: self.retained + other.retained,
            dropped: self.dropped + other.dropped,
            non_select: self.non_select + other.non_select,
            unparseable: self.unparseable + other.unparseable,
            lost: self.lost + other.lost,
            elapsed_micros: self.elapsed_micros + other.elapsed_micros,
        }
    }
}

/// The mapper. Owns retention state between runs.
///
/// ```
/// use cacheportal_sniffer::{Mapper, QiUrlMap, QueryLog, RequestLog};
/// use cacheportal_web::{PageKey, RequestObserver, RequestRecord};
/// use cacheportal_db::Value;
/// use std::sync::Arc;
///
/// let requests = Arc::new(RequestLog::new());
/// let queries = QueryLog::new();
/// let map = Arc::new(QiUrlMap::new());
///
/// // A request window [10, 20] containing one query [12, 14].
/// requests.on_request(RequestRecord {
///     id: 1, servlet: "cars".into(),
///     page_key: PageKey::raw("shop/cars?g:maxprice=20000"),
///     received: 10, delivered: 20,
/// });
/// queries.record("SELECT * FROM Car WHERE price < $1",
///                &[Value::Int(20000)], true, 12, 14);
///
/// let mut mapper = Mapper::new(requests, queries, map.clone());
/// let report = mapper.run_once();
/// assert_eq!(report.mapped, 1);
/// assert_eq!(map.all()[0].sql, "SELECT * FROM Car WHERE price < 20000");
/// ```
pub struct Mapper {
    requests: Arc<RequestLog>,
    queries: Arc<QueryLog>,
    map: Arc<QiUrlMap>,
    /// (record, runs it has been retained).
    pending: Vec<(QueryRecord, u8)>,
    /// How many runs an unmatched query survives before being dropped.
    max_retention: u8,
    /// Cumulative `QueryLog::lost` already reported in earlier runs.
    lost_cursor: u64,
    /// Parameterised SELECTs by logged text; `None` for a text outside the
    /// dialect. At most [`PARSE_MEMO_CAPACITY`] texts.
    parsed: HashMap<Arc<str>, Option<Logged>>,
}

/// One logged statement, parsed.
struct Logged {
    stmt: Select,
    /// Its query type, when that is the same for every instance.
    plan: Option<TypePlan>,
}

impl Mapper {
    /// Create a mapper over the two logs, writing into `map`.
    pub fn new(requests: Arc<RequestLog>, queries: Arc<QueryLog>, map: Arc<QiUrlMap>) -> Self {
        Mapper {
            requests,
            queries,
            map,
            pending: Vec::new(),
            max_retention: 2,
            lost_cursor: 0,
            parsed: HashMap::new(),
        }
    }

    /// How many runs an unmatched query survives before being dropped.
    pub fn with_max_retention(mut self, runs: u8) -> Self {
        self.max_retention = runs;
        self
    }

    /// The QI/URL map this mapper writes to.
    pub fn map(&self) -> &Arc<QiUrlMap> {
        &self.map
    }

    /// Process everything currently in the logs.
    pub fn run_once(&mut self) -> MapperReport {
        let start = std::time::Instant::now();
        let mut report = MapperReport::default();
        let lost_total = self.queries.lost();
        report.lost = lost_total - self.lost_cursor;
        self.lost_cursor = lost_total;
        let requests = self.requests.drain();
        let windows = WindowIndex::new(&requests);
        let queries = std::mem::take(&mut self.pending)
            .into_iter()
            .chain(self.queries.drain().into_iter().map(|q| (q, 0)));

        let map = Arc::clone(&self.map);
        let mut rows = map.writer();
        let mut owners = Vec::new();
        for (q, age) in queries {
            if !q.is_select {
                report.non_select += 1;
                continue;
            }
            windows.owners_of(q.received, q.delivered, &mut owners);
            if owners.is_empty() {
                if age >= self.max_retention {
                    report.dropped += 1;
                } else {
                    report.retained += 1;
                    self.pending.push((q, age + 1));
                }
                continue;
            }
            report.ambiguous += (owners.len() > 1) as u64;
            let Some((typed, text)) = self.bind(&q) else {
                report.unparseable += 1;
                continue;
            };
            report.mapped += owners.len() as u64;
            for request in owners.iter().map(|&i| &requests[i]) {
                let inserted = rows.insert_typed(&typed, &text, &request.page_key, &request.servlet);
                report.rendered += (inserted != Inserted::Known) as u64;
            }
        }
        drop(rows);
        report.elapsed_micros = start.elapsed().as_micros() as u64;
        report
    }

    /// A logged query, typed, and its canonical bound text — its parameters
    /// substituted, re-rendered — yet to be written; `None` for statements
    /// outside the supported dialect. A parameterised text is parsed the
    /// first time it is seen (a text with its values written into it rarely
    /// comes twice, and is not kept).
    fn bind<'a>(&'a mut self, q: &'a QueryRecord) -> Option<(TypedInstance, BoundText<'a>)> {
        if q.params.is_empty() {
            return bind_unplanned(&parse_select(&q.sql)?, q);
        }
        if self.parsed.len() >= PARSE_MEMO_CAPACITY && !self.parsed.contains_key(&*q.sql) {
            self.parsed.clear();
        }
        let logged = self.parsed.entry(q.sql.clone()).or_insert_with(|| {
            parse_select(&q.sql).map(|stmt| Logged {
                plan: TypePlan::of(&stmt),
                stmt,
            })
        });
        let logged = logged.as_ref()?;
        let Some(plan) = &logged.plan else {
            return bind_unplanned(&logged.stmt, q);
        };
        // Every marker is one the plan binds, so a vector too short for the
        // statement fails here as it would in `substitute_params`.
        let typed = TypedInstance {
            template: plan.template.clone(),
            params: plan.params(&q.params).ok()?,
        };
        Some((typed, BoundText::Unwritten(&logged.stmt, &q.params)))
    }
}

/// The canonical bound text of a logged query.
enum BoundText<'a> {
    /// The statement and the values to write into it.
    Unwritten(&'a Select, &'a [Value]),
    /// The text: a statement whose type depends on its values is
    /// substituted, and so rendered, to be typed.
    Written(String),
}

impl fmt::Display for BoundText<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BoundText::Unwritten(stmt, params) => Bound(*stmt, params).fmt(f),
            BoundText::Written(sql) => f.write_str(sql),
        }
    }
}

/// [`Mapper::bind`] for a statement without a [`TypePlan`].
fn bind_unplanned(stmt: &Select, q: &QueryRecord) -> Option<(TypedInstance, BoundText<'static>)> {
    let mut bound = substitute_params(stmt, &q.params).ok()?;
    let sql = bound.to_string();
    let params = parameterize_in_place(&mut bound).into();
    let template = Arc::new(bound);
    Some((TypedInstance { template, params }, BoundText::Written(sql)))
}

/// The request windows of one run, indexed for containment queries: sorted
/// by `received`, each position also knowing the latest `delivered` among the
/// windows up to it.
struct WindowIndex {
    /// `(received, delivered, position in the request log)`, by `received`.
    windows: Vec<(Micros, Micros, usize)>,
    /// `reach[j]` = max `delivered` over `windows[..=j]`.
    reach: Vec<Micros>,
}

impl WindowIndex {
    fn new(requests: &[LoggedRequest]) -> WindowIndex {
        let mut windows: Vec<(Micros, Micros, usize)> = requests
            .iter()
            .enumerate()
            .map(|(i, r)| (r.received, r.delivered, i))
            .collect();
        windows.sort_unstable();
        let reach = windows
            .iter()
            .scan(0, |max, w| {
                *max = w.1.max(*max);
                Some(*max)
            })
            .collect();
        WindowIndex { windows, reach }
    }

    /// Fill `out` with the log positions, ascending, of every request whose
    /// window contains `[received, delivered]`. Windows that open after the
    /// query was issued are cut off by the binary search; walking back from
    /// there stops at the first position no window up to which is still open
    /// when the query is answered.
    fn owners_of(&self, received: Micros, delivered: Micros, out: &mut Vec<usize>) {
        out.clear();
        let opened = self.windows.partition_point(|w| w.0 <= received);
        for j in (0..opened).rev() {
            if self.reach[j] < delivered {
                break;
            }
            if self.windows[j].1 >= delivered {
                out.push(self.windows[j].2);
            }
        }
        out.sort_unstable();
    }
}

fn parse_select(sql: &str) -> Option<Select> {
    match parse(sql) {
        Ok(Statement::Select(sel)) => Some(sel),
        _ => None,
    }
}

/// Canonical bound SQL text of a logged query: parse, substitute parameters,
/// re-render. Returns `None` for statements outside the supported dialect.
pub fn canonical_bound_sql(q: &QueryRecord) -> Option<String> {
    bind_unplanned(&parse_select(&q.sql)?, q).map(|(_, sql)| sql.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cacheportal_db::Value;
    use cacheportal_web::{PageKey, RequestObserver, RequestRecord};

    fn request(id: u64, recv: u64, deliver: u64) -> RequestRecord {
        RequestRecord {
            id,
            servlet: "s".into(),
            page_key: PageKey::raw(format!("page{id}")),
            received: recv,
            delivered: deliver,
        }
    }

    fn query(sql: &str, params: Vec<Value>, recv: u64, deliver: u64) -> QueryRecord {
        QueryRecord {
            id: 0,
            sql: sql.into(),
            params,
            is_select: true,
            received: recv,
            delivered: deliver,
        }
    }

    fn setup() -> (Arc<RequestLog>, Arc<QueryLog>, Mapper) {
        let rl = Arc::new(RequestLog::new());
        let ql = QueryLog::new();
        let map = Arc::new(QiUrlMap::new());
        let mapper = Mapper::new(rl.clone(), ql.clone(), map);
        (rl, ql, mapper)
    }

    fn push_query(ql: &QueryLog, q: QueryRecord) {
        ql.record(&q.sql, &q.params, q.is_select, q.received, q.delivered);
    }

    #[test]
    fn contained_query_maps_to_its_request() {
        let (rl, ql, mut mapper) = setup();
        rl.on_request(request(1, 10, 20));
        rl.on_request(request(2, 30, 40));
        push_query(&ql, query("SELECT * FROM Car WHERE price < $1", vec![Value::Int(5)], 12, 15));
        push_query(&ql, query("SELECT * FROM Car WHERE price < $1", vec![Value::Int(9)], 31, 39));
        let rep = mapper.run_once();
        assert_eq!(rep.mapped, 2);
        assert_eq!(rep.ambiguous, 0);
        let entries = mapper.map().all();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].sql, "SELECT * FROM Car WHERE price < 5");
        assert_eq!(entries[0].page_key, PageKey::raw("page1"));
        assert_eq!(entries[1].page_key, PageKey::raw("page2"));
    }

    #[test]
    fn overlapping_requests_map_conservatively() {
        let (rl, ql, mut mapper) = setup();
        rl.on_request(request(1, 10, 50));
        rl.on_request(request(2, 20, 40));
        // Query inside both windows.
        push_query(&ql, query("SELECT * FROM Car", vec![], 25, 30));
        let rep = mapper.run_once();
        assert_eq!(rep.mapped, 2);
        assert_eq!(rep.ambiguous, 1);
        assert_eq!(mapper.map().len(), 2);
    }

    #[test]
    fn a_row_the_map_has_is_not_rendered_again() {
        let (rl, ql, mut mapper) = setup();
        let serve = |price: i64| {
            rl.on_request(request(1, 10, 20));
            push_query(&ql, query("SELECT * FROM Car WHERE price < $1", vec![Value::Int(price)], 12, 15));
            push_query(&ql, query("SELECT * FROM Car WHERE price < 7", vec![], 16, 17));
        };
        serve(5);
        let first = mapper.run_once();
        assert_eq!((first.mapped, first.rendered), (2, 2));
        // The page again: the parameterised statement's row is known by its
        // typed form; the statement with its value written in is parsed and
        // rendered to be typed at all.
        serve(5);
        let again = mapper.run_once();
        assert_eq!((again.mapped, again.rendered), (2, 1));
        assert_eq!(mapper.map().len(), 2);
        serve(6);
        let other = mapper.run_once();
        assert_eq!((other.mapped, other.rendered), (2, 2));
        let texts: Vec<String> = mapper.map().all().into_iter().map(|e| e.sql).collect();
        assert_eq!(
            texts,
            [
                "SELECT * FROM Car WHERE price < 5",
                "SELECT * FROM Car WHERE price < 7",
                "SELECT * FROM Car WHERE price < 6",
            ]
        );
    }

    #[test]
    fn orphan_query_retained_then_dropped() {
        let (_rl, ql, mut mapper) = setup();
        push_query(&ql, query("SELECT * FROM Car", vec![], 5, 6));
        let r1 = mapper.run_once();
        assert_eq!(r1.retained, 1);
        let r2 = mapper.run_once();
        assert_eq!(r2.retained, 1);
        let r3 = mapper.run_once();
        assert_eq!(r3.dropped, 1);
        let r4 = mapper.run_once();
        assert_eq!(r4.dropped + r4.retained, 0);
    }

    #[test]
    fn retained_query_maps_when_request_arrives_late() {
        let (rl, ql, mut mapper) = setup();
        push_query(&ql, query("SELECT * FROM Car", vec![], 15, 18));
        mapper.run_once();
        // The enclosing request finishes (and is logged) later.
        rl.on_request(request(7, 10, 20));
        let rep = mapper.run_once();
        assert_eq!(rep.mapped, 1);
        assert_eq!(mapper.map().all()[0].page_key, PageKey::raw("page7"));
    }

    #[test]
    fn non_selects_and_unparseable_skipped() {
        let (rl, ql, mut mapper) = setup();
        rl.on_request(request(1, 0, 100));
        ql.record("INSERT INTO t VALUES (1)", &[], false, 10, 11);
        ql.record("SELECT garbage FROM", &[], true, 20, 21);
        let rep = mapper.run_once();
        assert_eq!(rep.non_select, 1);
        assert_eq!(rep.unparseable, 1);
        assert_eq!(rep.mapped, 0);
    }

    #[test]
    fn canonicalization_normalizes_case_and_spacing() {
        let q = query(
            "select  *  from Car where PRICE < $1",
            vec![Value::Int(7)],
            0,
            0,
        );
        assert_eq!(
            canonical_bound_sql(&q).unwrap(),
            "SELECT * FROM Car WHERE PRICE < 7"
        );
    }
}
