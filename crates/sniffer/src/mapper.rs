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
//! logged SQL text is parsed once, its query type worked out once, and what
//! the invalidator's registration scan would otherwise parse back out of a
//! row's text — the type and its parameter values — travels with the row
//! ([`QiUrlMap::insert_mapped`]).

use crate::map::{MappedRow, QiUrlMap, TypedInstance};
use crate::query_log::{QueryLog, QueryRecord};
use crate::request_log::{LoggedRequest, RequestLog};
use cacheportal_db::sql::ast::{Bound, Select, Statement};
use cacheportal_db::sql::parser::parse;
use cacheportal_db::sql::rewrite::{parameterize_in_place, substitute_params, TypePlan};
use cacheportal_web::clock::Micros;
use std::collections::HashMap;
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
        let mut owners = Vec::new();
        map.insert_mapped(queries.flat_map(|(q, age)| {
            if !q.is_select {
                report.non_select += 1;
                return Vec::new();
            }
            windows.owners_of(q.received, q.delivered, &mut owners);
            let Some((&last, rest)) = owners.split_last() else {
                if age >= self.max_retention {
                    report.dropped += 1;
                } else {
                    report.retained += 1;
                    self.pending.push((q, age + 1));
                }
                return Vec::new();
            };
            report.ambiguous += !rest.is_empty() as u64;
            let Some((sql, typed)) = self.bind(&q) else {
                report.unparseable += 1;
                return Vec::new();
            };
            report.mapped += owners.len() as u64;
            let row = |i: usize, sql, typed| MappedRow {
                sql,
                typed,
                page_key: &requests[i].page_key,
                servlet: &requests[i].servlet,
            };
            // One owner is the rule; only a query inside several windows
            // copies its text.
            let mut rows: Vec<MappedRow> = (rest.iter())
                .map(|&i| row(i, sql.clone(), typed.clone()))
                .collect();
            rows.push(row(last, sql, typed));
            rows
        }));
        report.elapsed_micros = start.elapsed().as_micros() as u64;
        report
    }

    /// The canonical bound text of a logged query — its parameters
    /// substituted, re-rendered — and the typed form of that text; `None` for
    /// statements outside the supported dialect. A parameterised text is
    /// parsed the first time it is seen (a text with its values written into
    /// it rarely comes twice, and is not kept).
    fn bind(&mut self, q: &QueryRecord) -> Option<(String, TypedInstance)> {
        if q.params.is_empty() {
            return bind_parsed(&parse_select(&q.sql)?, None, q);
        }
        let logged = match self.parsed.get(&*q.sql) {
            Some(logged) => logged,
            None => {
                if self.parsed.len() >= PARSE_MEMO_CAPACITY {
                    self.parsed.clear();
                }
                let logged = parse_select(&q.sql).map(|stmt| Logged {
                    plan: TypePlan::of(&stmt),
                    stmt,
                });
                self.parsed.entry(q.sql.clone()).or_insert(logged)
            }
        };
        let logged = logged.as_ref()?;
        bind_parsed(&logged.stmt, logged.plan.as_ref(), q)
    }
}

fn bind_parsed(
    stmt: &Select,
    plan: Option<&TypePlan>,
    q: &QueryRecord,
) -> Option<(String, TypedInstance)> {
    let Some(plan) = plan else {
        let mut bound = substitute_params(stmt, &q.params).ok()?;
        let sql = bound.to_string();
        let params = parameterize_in_place(&mut bound);
        let template = Arc::new(bound);
        return Some((sql, TypedInstance { template, params }));
    };
    // Every marker is one the plan binds, so a vector too short for the
    // statement fails here as it would in `substitute_params`.
    let params = plan.params(&q.params).ok()?;
    let template = plan.template.clone();
    let sql = Bound(stmt, &q.params).to_string();
    Some((sql, TypedInstance { template, params }))
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
    bind_parsed(&parse_select(&q.sql)?, None, q).map(|(sql, _)| sql)
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
