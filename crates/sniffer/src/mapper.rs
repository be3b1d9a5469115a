//! The request-to-query mapper (§3.3).
//!
//! At every run it files the query log's records under pages. A record that
//! names its page — the query logger made it on the thread that served the
//! request ([`IssuedFor::Page`]) — is written under that page at once: exact
//! at any concurrency, and whether or not the request was logged. A record
//! that names no page (a hand-fed or shipped log, `QueryLog::record` called
//! directly, a servlet that queries from another thread) is joined the
//! paper's way, on *interval containment*: a query issued and answered
//! inside a request's [receive, delivery] window is attributed to that
//! request, and one inside several windows to all of them — conservative in
//! exactly the direction invalidation safety needs (a page is never missing
//! a dependency, it can only have spurious ones). Until a logged window
//! contains it, such a record is retained, for two runs. The record
//! selects the join; nothing else does.
//!
//! The containment join's index (`WindowIndex`) is built when the run's
//! first record without a page turns up, and costs a sort of the run's
//! request windows plus, per query, a binary search and a walk over the
//! windows that can still reach it. The request log holds only the windows
//! such a join can need: a request served while a statement was logged
//! outside any request's scope ([`RequestLog`]'s `on_served`), and every
//! record handed to it directly. The mapper parses and types nothing: a
//! record comes typed from the query log, which also kept no record of a row
//! the map already held, so a run sees one query record per new row. It
//! compares typed forms to know whether the map already has the row
//! ([`MapWriter::insert_typed`]) — a record without a page, or a page two
//! requests generated in one window, can still bring one — keeps the typed
//! form as the row, and the invalidator's registration scan reads it as it
//! stands. A run with no query record to place drains the request log and
//! touches nothing else.
//!
//! [`MapWriter::insert_typed`]: crate::map::MapWriter::insert_typed
//! [`IssuedFor::Page`]: crate::query_log::IssuedFor::Page

use crate::map::QiUrlMap;
use crate::query_log::{IssuedFor, QueryLog, QueryRecord};
use crate::request_log::{LoggedRequest, RequestLog};
use cacheportal_web::clock::Micros;
use std::sync::Arc;

/// How many runs a query without a page and without a window to contain it
/// survives before being dropped.
const MAX_RETENTION: u8 = 2;

/// Outcome counters for one mapper run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MapperReport {
    /// (query, page) associations written to the map (after dedup the
    /// map itself may record fewer).
    pub mapped: u64,
    /// Query records the log did not keep since the previous run, because
    /// the map already held the row of the page they were issued for.
    pub known: u64,
    /// Queries filed under the page they name.
    pub named: u64,
    /// Queries without a page that matched more than one request window.
    pub ambiguous: u64,
    /// Queries without a page retained for the next run (no logged request
    /// window contains them yet).
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
            known: self.known + other.known,
            named: self.named + other.named,
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
///     servlet: "cars".into(),
///     page_key: PageKey::raw("shop/cars?g:maxprice=20000"),
///     received: 10, delivered: 20,
/// });
/// queries.record("SELECT * FROM Car WHERE price < $1",
///                &[Value::Int(20000)], true, 12, 14);
///
/// let mut mapper = Mapper::new(requests, queries, map.clone());
/// let report = mapper.run_once();
/// assert_eq!(report.mapped, 1);
/// assert_eq!(report.named, 0, "a record made by hand names no page");
/// assert_eq!(map.all()[0].sql, "SELECT * FROM Car WHERE price < 20000");
/// ```
pub struct Mapper {
    requests: Arc<RequestLog>,
    queries: Arc<QueryLog>,
    map: Arc<QiUrlMap>,
    /// (record without a page, runs it has been retained).
    pending: Vec<(QueryRecord, u8)>,
    /// Cumulative `QueryLog::lost` and `QueryLog::known` already reported
    /// in earlier runs.
    lost_cursor: u64,
    known_cursor: u64,
}

impl Mapper {
    /// Create a mapper over the two logs, writing into `map`. From here on
    /// the query log keeps no record of a row `map` holds.
    ///
    /// # Panics
    /// When the query log feeds another map already.
    pub fn new(requests: Arc<RequestLog>, queries: Arc<QueryLog>, map: Arc<QiUrlMap>) -> Self {
        queries.check_against(&map);
        Mapper {
            requests,
            queries,
            map,
            pending: Vec::new(),
            lost_cursor: 0,
            known_cursor: 0,
        }
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
        let known_total = self.queries.known();
        report.known = known_total - self.known_cursor;
        self.known_cursor = known_total;
        let requests = self.requests.drain();
        let drained = self.queries.drain();
        if drained.is_empty() && self.pending.is_empty() {
            report.elapsed_micros = start.elapsed().as_micros() as u64;
            return report;
        }
        let queries = std::mem::take(&mut self.pending)
            .into_iter()
            .chain(drained.into_iter().map(|q| (q, 0)));

        let map = Arc::clone(&self.map);
        let mut rows = map.writer();
        let (mut windows, mut owners) = (None, Vec::new());
        for (q, age) in queries {
            if !q.is_select {
                report.non_select += 1;
                continue;
            }
            let (received, delivered) = match &q.issued_for {
                IssuedFor::Page { page, servlet } => {
                    report.named += 1;
                    match &q.typed {
                        Some(typed) => {
                            report.mapped += 1;
                            rows.insert_typed(typed, page, servlet);
                        }
                        None => report.unparseable += 1,
                    }
                    continue;
                }
                IssuedFor::Window { received, delivered } => (*received, *delivered),
            };
            windows
                .get_or_insert_with(|| WindowIndex::new(&requests))
                .owners_of(received, delivered, &mut owners);
            if owners.is_empty() {
                if age >= MAX_RETENTION {
                    report.dropped += 1;
                } else {
                    report.retained += 1;
                    self.pending.push((q, age + 1));
                }
                continue;
            }
            report.ambiguous += (owners.len() > 1) as u64;
            let Some(typed) = &q.typed else {
                report.unparseable += 1;
                continue;
            };
            report.mapped += owners.len() as u64;
            for request in owners.iter().map(|&i| &requests[i]) {
                rows.insert_typed(typed, &request.page_key, &request.servlet);
            }
        }
        drop(rows);
        report.elapsed_micros = start.elapsed().as_micros() as u64;
        report
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query_log::canonical_bound_sql;
    use cacheportal_db::Value;
    use cacheportal_web::{PageKey, RequestObserver, RequestRecord};

    fn request(id: u64, recv: u64, deliver: u64) -> RequestRecord {
        RequestRecord {
            servlet: "s".into(),
            page_key: PageKey::raw(format!("page{id}")),
            received: recv,
            delivered: deliver,
        }
    }

    /// A SELECT as a test logs it.
    struct Query {
        sql: &'static str,
        params: Vec<Value>,
        received: u64,
        delivered: u64,
    }

    fn query(sql: &'static str, params: Vec<Value>, recv: u64, deliver: u64) -> Query {
        Query { sql, params, received: recv, delivered: deliver }
    }

    fn setup() -> (Arc<RequestLog>, Arc<QueryLog>, Mapper) {
        let rl = Arc::new(RequestLog::new());
        let ql = QueryLog::new();
        let map = Arc::new(QiUrlMap::new());
        let mapper = Mapper::new(rl.clone(), ql.clone(), map);
        (rl, ql, mapper)
    }

    fn push_query(ql: &QueryLog, q: Query) {
        ql.record(q.sql, &q.params, true, q.received, q.delivered);
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
        assert_eq!((rep.ambiguous, rep.named), (1, 0));
        assert_eq!(mapper.map().len(), 2);
    }

    #[test]
    fn a_query_that_names_its_page_is_filed_under_it_alone() {
        let (rl, ql, mut mapper) = setup();
        // Two windows, around whatever a record without a page brings.
        rl.on_request(request(1, 10, 50));
        rl.on_request(request(2, 20, 40));
        let (page1, failed) = (PageKey::raw("page1"), PageKey::raw("failed"));
        ql.record_for(&page1, &"s".into(), "SELECT * FROM Car", &[], true);
        // A page no logged request made — its servlet failed, or has not
        // returned yet — is filed all the same.
        let sql = "SELECT * FROM Car WHERE price < $1";
        ql.record_for(&failed, &"f".into(), sql, &[Value::Int(3)], true);
        let rep = mapper.run_once();
        assert_eq!((rep.mapped, rep.named, rep.ambiguous, rep.retained), (2, 2, 0, 0));
        let rows: Vec<_> = (mapper.map().all().into_iter())
            .map(|e| (e.page_key, e.servlet.to_string()))
            .collect();
        assert_eq!(rows, [(page1, "s".to_string()), (failed, "f".to_string())]);
        // No request logged at all.
        ql.record_for(&PageKey::raw("page3"), &"s".into(), "SELECT * FROM Car", &[], true);
        let rep = mapper.run_once();
        assert_eq!((rep.mapped, rep.named, rep.retained), (1, 1, 0));
        assert_eq!(mapper.map().all()[2].page_key, PageKey::raw("page3"));
    }

    #[test]
    fn a_run_with_nothing_to_place_takes_no_writer() {
        let (rl, _ql, mut mapper) = setup();
        rl.on_request(request(1, 10, 20));
        let map = mapper.map().clone();
        let held = map.writer();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            s.spawn(|| tx.send(mapper.run_once()).unwrap());
            let report = rx.recv_timeout(std::time::Duration::from_secs(10));
            drop(held);
            let report = report.expect("a run with no query record waits for no writer");
            assert_eq!(report, MapperReport { elapsed_micros: report.elapsed_micros, ..MapperReport::default() });
        });
        assert!(rl.is_empty(), "the request log is drained all the same");
    }

    #[test]
    fn a_row_the_map_has_is_known_by_its_typed_form() {
        let (rl, ql, mut mapper) = setup();
        let serve = |price: i64| {
            rl.on_request(request(1, 10, 20));
            push_query(&ql, query("SELECT * FROM Car WHERE price < $1", vec![Value::Int(price)], 12, 15));
            push_query(&ql, query("SELECT * FROM Car WHERE price < 7", vec![], 16, 17));
        };
        serve(5);
        let first = mapper.run_once();
        assert_eq!(first.mapped, 2);
        // The page again: the parameterised statement's row is known by its
        // template, the statement with its value written in — parsed anew —
        // by its template's structure.
        serve(5);
        let again = mapper.run_once();
        assert_eq!(again.mapped, 2);
        assert_eq!(mapper.map().len(), 2);
        serve(6);
        let other = mapper.run_once();
        assert_eq!(other.mapped, 2);
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
        assert_eq!(
            canonical_bound_sql("select  *  from Car where PRICE < $1", &[Value::Int(7)]).unwrap(),
            "SELECT * FROM Car WHERE PRICE < 7"
        );
    }
}
