//! Property tests for the mapper's two ways of filing a query.
//!
//! * With non-overlapping request windows (serial requests), every query is
//!   attributed to exactly the request that issued it.
//! * With arbitrary (possibly overlapping) windows, the containment join's
//!   attribution is a superset of the truth — conservative in the safe
//!   direction.
//! * Queries that name their page are filed under it and under no other,
//!   whatever overlaps — the ground truth, and for a request that is logged
//!   a subset of what the containment join makes of the same logs without
//!   the pages — also in logs where only some queries name one, where
//!   requests fail or are logged a run late, and under duplicate and
//!   reorder faults.
//! * The query log's typing and the mapper's indexed joins and de-duplication by typed form
//!   produce the map — rows, order, ids — and the reports of the join it
//!   replaced: every window compared with every query, every query parsed,
//!   substituted and re-rendered, every row compared as text; and what the
//!   registration scan reads beside a row is what parsing and parameterizing
//!   the row's text gives.

use cacheportal_db::sql::parser::parse_select;
use cacheportal_db::sql::rewrite::parameterize;
use cacheportal_db::{FaultPlan, FaultSpec, Value};
use cacheportal_sniffer::{
    canonical_bound_sql, IssuedFor, Mapper, MapperReport, QiUrlEntry, QiUrlMap, QueryLog,
    QueryRecord, RequestLog,
};
use cacheportal_web::{PageKey, RequestObserver, RequestRecord};
use proptest::prelude::*;
use std::sync::Arc;

fn request(id: u64, recv: u64, deliver: u64) -> RequestRecord {
    RequestRecord {
        servlet: "s".into(),
        page_key: PageKey::raw(format!("page{id}")),
        received: recv,
        delivered: deliver,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Serial (non-overlapping) requests: exact attribution, no ambiguity.
    #[test]
    fn serial_requests_map_exactly(
        // (request duration, #queries, gap to next request)
        spec in prop::collection::vec((2u64..40, 1usize..4, 1u64..10), 1..20),
    ) {
        let rl = Arc::new(RequestLog::new());
        let ql = QueryLog::new();
        let map = Arc::new(QiUrlMap::new());

        let mut t = 0u64;
        let mut expected = Vec::new(); // (query marker, page id)
        for (id, (dur, nq, gap)) in spec.iter().enumerate() {
            let recv = t;
            let deliver = t + dur;
            // Queries strictly inside the window, distinct values so every
            // map row is unique.
            for q in 0..*nq {
                let qt = recv + 1 + (q as u64 % dur.saturating_sub(1).max(1));
                let marker = (id * 10 + q) as i64;
                ql.record(
                    "SELECT * FROM t WHERE a = $1",
                    &[Value::Int(marker)],
                    true,
                    qt.min(deliver - 1),
                    (qt + 1).min(deliver),
                );
                expected.push((marker, id as u64));
            }
            rl.on_request(request(id as u64, recv, deliver));
            t = deliver + gap;
        }

        let mut mapper = Mapper::new(rl, ql, map.clone());
        let report = mapper.run_once();
        prop_assert_eq!(report.ambiguous, 0, "serial windows cannot overlap");
        prop_assert_eq!(report.mapped as usize, expected.len());
        let rows = map.all();
        for (marker, req_id) in expected {
            let row = rows
                .iter()
                .find(|r| r.sql.ends_with(&format!("a = {marker}")))
                .expect("every query mapped");
            prop_assert_eq!(
                row.page_key.clone(),
                PageKey::raw(format!("page{req_id}")),
                "query {} attributed to the wrong request",
                marker
            );
        }
    }

    /// Arbitrary windows: the true owner is always among the attributions
    /// (the conservative superset property invalidation safety relies on).
    #[test]
    fn overlapping_requests_never_lose_the_true_owner(
        windows in prop::collection::vec((0u64..100, 5u64..60), 2..12),
    ) {
        let rl = Arc::new(RequestLog::new());
        let ql = QueryLog::new();
        let map = Arc::new(QiUrlMap::new());
        let mut truth = Vec::new();
        for (id, (start, dur)) in windows.iter().enumerate() {
            let recv = *start;
            let deliver = start + dur;
            // One query strictly inside this request's window.
            let qt = recv + dur / 2;
            ql.record(
                "SELECT * FROM t WHERE a = $1",
                &[Value::Int(id as i64)],
                true,
                qt,
                qt + 1,
            );
            truth.push((id as i64, id as u64));
            rl.on_request(request(id as u64, recv, deliver));
        }
        let mut mapper = Mapper::new(rl, ql, map.clone());
        mapper.run_once();
        let rows = map.all();
        for (marker, req_id) in truth {
            let owners: Vec<_> = rows
                .iter()
                .filter(|r| r.sql.ends_with(&format!("a = {marker}")))
                .map(|r| r.page_key.clone())
                .collect();
            prop_assert!(
                owners.contains(&PageKey::raw(format!("page{req_id}"))),
                "true owner page{req_id} missing from attributions of query {marker}: {owners:?}"
            );
        }
    }
}

/// Logged statements: parameterised, with literals of their own, with every
/// value written in, a non-SELECT, and text outside the dialect.
const STATEMENTS: [&str; 6] = [
    "SELECT * FROM t WHERE a = $1",
    "SELECT t.a, u.b FROM t, u WHERE t.a = u.a AND t.b < $1 AND u.c = 7 ORDER BY t.a",
    "SELECT * FROM t WHERE a = 3",
    "SELECT b + $1 FROM t WHERE a = $1",
    "DELETE FROM t WHERE a = $1",
    "SELECT FROM WHERE",
];

/// Bound values. `1` and `1.0` are equal as `Value`s and two texts, `'1'`
/// is a third; the rest make rows that differ in every way.
fn value(pick: usize) -> Value {
    match pick {
        0 => Value::Int(1),
        1 => Value::Float(1.0),
        2 => Value::Str("1".into()),
        3 => Value::Int(0),
        _ => Value::Float(-0.5),
    }
}

/// One run's logs: request windows `(received, length)` and queries
/// `(statement, value, received, length)`.
type RunSpec = (Vec<(u64, u64)>, Vec<(usize, usize, u64, u64)>);

fn run_strategy() -> impl Strategy<Value = RunSpec> {
    (
        prop::collection::vec((0u64..60, 0u64..40), 0..10),
        prop::collection::vec(
            (0usize..STATEMENTS.len(), 0usize..5, 0u64..80, 0u64..12),
            0..14,
        ),
    )
}

/// The join the mapper ran before it was indexed, over the same logs: every
/// window compared with every query that names no page, and every
/// statement's text parsed, substituted and re-rendered, from what the test
/// issued, not from the record's typed form.
#[derive(Default)]
struct Reference {
    pending: Vec<(QueryRecord, u8)>,
    rows: Vec<QiUrlEntry>,
    /// `(text, values)` of each statement logged, by record id − 1: a log
    /// draws one id per statement, in order.
    issued: Vec<(&'static str, Vec<Value>)>,
}

impl Reference {
    fn run(&mut self, requests: &[RequestRecord], drained: Vec<QueryRecord>) -> MapperReport {
        let mut report = MapperReport::default();
        let mut queries = std::mem::take(&mut self.pending);
        queries.extend(drained.into_iter().map(|q| (q, 0)));
        for (q, age) in queries {
            if !q.is_select {
                report.non_select += 1;
                continue;
            }
            let owners: Vec<(&PageKey, &Arc<str>)> = match &q.issued_for {
                IssuedFor::Page { page, servlet } => {
                    report.named += 1;
                    vec![(page, servlet)]
                }
                IssuedFor::Window { received, delivered } => requests
                    .iter()
                    .filter(|r| r.received <= *received && *delivered <= r.delivered)
                    .map(|r| (&r.page_key, &r.servlet))
                    .collect(),
            };
            if owners.is_empty() {
                if age >= 2 {
                    report.dropped += 1;
                } else {
                    report.retained += 1;
                    self.pending.push((q, age + 1));
                }
                continue;
            }
            report.ambiguous += (owners.len() > 1) as u64;
            let (text, params) = &self.issued[q.id as usize - 1];
            let Some(sql) = canonical_bound_sql(text, params) else {
                report.unparseable += 1;
                continue;
            };
            for (page, servlet) in owners {
                report.mapped += 1;
                if !self.rows.iter().any(|e| e.sql == sql && e.page_key == *page) {
                    self.rows.push(QiUrlEntry {
                        id: self.rows.len() as u64,
                        sql: sql.clone(),
                        page_key: page.clone(),
                        servlet: servlet.clone(),
                    });
                }
            }
        }
        report
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn indexed_join_equals_brute_force_join(
        runs in prop::collection::vec(run_strategy(), 1..5),
        duplicate in 0u8..3,
        reorder in any::<bool>(),
        scan_every_run in any::<bool>(),
        preloaded in any::<bool>(),
    ) {
        let rl = Arc::new(RequestLog::new());
        let ql = QueryLog::new();
        // The reference reads a log of its own with the same fault plan, so
        // both joins see the same duplicated, reversed batches.
        let shadow = QueryLog::new();
        for log in [&ql, &shadow] {
            log.set_fault_plan(FaultPlan::new(FaultSpec {
                seed: 11,
                sniffer_dup: f64::from(duplicate) * 0.4,
                sniffer_reorder: reorder,
                ..FaultSpec::default()
            }));
        }
        let map = Arc::new(QiUrlMap::new());
        let mut mapper = Mapper::new(rl.clone(), ql.clone(), map.clone());
        let mut reference = Reference::default();
        let (mut cursor, mut scanned) = (0, 0);
        // Rows a recovered map starts with, given as text, for pages and
        // instances the runs then come across again.
        if preloaded {
            for (page, sql) in [(0, "SELECT * FROM t WHERE a = 1"), (1, "SELECT * FROM t WHERE a = 1.0")] {
                let page_key = request(page, 0, 0).page_key;
                assert_eq!(map.insert(sql, page_key.clone(), "s".into()), Some(true));
                let id = reference.rows.len() as u64;
                reference.rows.push(QiUrlEntry { id, sql: sql.into(), page_key, servlet: "s".into() });
            }
        }

        for (run, (windows, queries)) in runs.iter().enumerate() {
            let requests: Vec<RequestRecord> = windows
                .iter()
                .enumerate()
                // Few distinct pages, so the same (text, page) row comes up
                // again within a run and in later runs.
                .map(|(i, &(recv, len))| request((run * 3 + i % 4) as u64, recv, recv + len))
                .collect();
            for r in &requests {
                rl.on_request(r.clone());
            }
            for &(stmt, value, recv, len) in queries {
                let sql = STATEMENTS[stmt];
                let params = if sql.contains('$') { vec![self::value(value)] } else { vec![] };
                for log in [&ql, &shadow] {
                    log.record(sql, &params, !sql.starts_with("DELETE"), recv, recv + len);
                }
                reference.issued.push((sql, params));
            }

            let got = mapper.run_once();
            let want = reference.run(&requests, shadow.drain());
            prop_assert_eq!(
                MapperReport { elapsed_micros: 0, ..got },
                want,
                "report of run {}", run
            );
            prop_assert_eq!(&map.all(), &reference.rows, "rows after run {}", run);

            // The registration scan: every row inserted since the previous
            // scan, in whichever run, is read typed, and its typed form is
            // its text, parsed.
            if scan_every_run || run + 1 == runs.len() {
                let mut rows = Vec::new();
                let next = map.visit_since(cursor, |row| {
                    rows.push((row.entry(), row.instance().clone()));
                });
                prop_assert_eq!(rows.len(), reference.rows.len() - scanned);
                for (entry, typed) in &rows {
                    let (template, params) = parameterize(&parse_select(&entry.sql).unwrap());
                    prop_assert_eq!(&*typed.template, &template, "type of {}", entry.sql);
                    prop_assert_eq!(&*typed.params, &params[..], "values of {}", entry.sql);
                    // As texts, not only as values: `1` is not `1.0`.
                    prop_assert_eq!(format!("{:?}", typed.params), format!("{params:?}"));
                }
                (cursor, scanned) = (next, reference.rows.len());
            }
        }
    }
}

/// What became of a request: logged when it was delivered; delivered, and so
/// logged, only after the next mapper run had drained the logs; or failed —
/// its queries logged, the request never.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Fate {
    Logged,
    LoggedLate,
    Failed,
}

/// `(received, length, queries, fate)`; a query is `(how far into the window
/// it was issued, whether it names its page)`.
type Served = (u64, u64, Vec<(u64, bool)>, Fate);

fn served_strategy() -> impl Strategy<Value = Vec<Served>> {
    let fate = prop_oneof![
        3 => Just(Fate::Logged),
        1 => Just(Fate::LoggedLate),
        1 => Just(Fate::Failed),
    ];
    let queries = prop::collection::vec((0u64..100, any::<bool>()), 0..4);
    prop::collection::vec((0u64..100, 4u64..60, queries, fate), 1..14)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Concurrent requests whose queries name their pages (all, or some: a
    /// mixed log): what the mapper files them under is the ground truth,
    /// equals the exhaustive join, and for a logged request stays inside
    /// what interval containment makes of the same logs.
    #[test]
    fn queries_that_name_their_page_map_to_it_alone(
        served in served_strategy(),
        all_named in any::<bool>(),
        duplicate in 0u8..3,
        reorder in any::<bool>(),
    ) {
        let rl = Arc::new(RequestLog::new());
        let (ql, shadow) = (QueryLog::new(), QueryLog::new());
        // The same logs without the pages, joined on containment in one run.
        let (plain_rl, plain_ql) = (Arc::new(RequestLog::new()), QueryLog::new());
        for log in [&ql, &shadow, &plain_ql] {
            log.set_fault_plan(FaultPlan::new(FaultSpec {
                seed: 11,
                sniffer_dup: f64::from(duplicate) * 0.4,
                sniffer_reorder: reorder,
                ..FaultSpec::default()
            }));
        }
        let map = Arc::new(QiUrlMap::new());
        let mut mapper = Mapper::new(rl.clone(), ql.clone(), map.clone());
        let mut reference = Reference::default();

        // (marker, the request's page, named, fate)
        let mut issued = Vec::new();
        let (mut on_time, mut late) = (Vec::new(), Vec::new());
        for (i, (recv, len, queries, fate)) in served.iter().enumerate() {
            let record = request(i as u64, *recv, recv + len);
            for (k, &(offset, named)) in queries.iter().enumerate() {
                let named = all_named || named;
                let marker = (i * 10 + k) as i64;
                let at = recv + 1 + offset % (len - 2);
                let (sql, params) = ("SELECT * FROM t WHERE a = $1", [Value::Int(marker)]);
                for log in [&ql, &shadow] {
                    if named {
                        log.record_for(&record.page_key, &record.servlet, sql, &params, true);
                    } else {
                        log.record(sql, &params, true, at, at + 1);
                    }
                }
                reference.issued.push((sql, params.to_vec()));
                plain_ql.record(sql, &params, true, at, at + 1);
                issued.push((marker, record.page_key.clone(), named, *fate));
            }
            match fate {
                Fate::Logged => on_time.push(record),
                Fate::LoggedLate => late.push(record),
                Fate::Failed => {}
            }
        }
        // Run 1 sees the requests logged on time, run 2 the late ones, runs
        // 3 and 4 nothing new: what is still retained is dropped.
        for (run, requests) in [on_time.clone(), late.clone(), vec![], vec![]].iter().enumerate() {
            for r in requests {
                rl.on_request(r.clone());
            }
            let got = mapper.run_once();
            let want = reference.run(requests, shadow.drain());
            prop_assert_eq!(
                MapperReport { elapsed_micros: 0, ..got },
                want,
                "report of run {}", run
            );
            prop_assert_eq!(&map.all(), &reference.rows, "rows after run {}", run);
            if all_named {
                prop_assert_eq!((got.ambiguous, got.named), (0, got.mapped), "run {}", run);
            }
        }
        let rows = map.all();
        let pages_of = |rows: &[QiUrlEntry], marker: i64| -> Vec<PageKey> {
            rows.iter()
                .filter(|r| r.sql.ends_with(&format!("a = {marker}")))
                .map(|r| r.page_key.clone())
                .collect()
        };
        // Ground truth: a query that names its page is filed under that page
        // and no other — under it too if the request failed.
        for (marker, page, named, _) in &issued {
            if *named {
                prop_assert_eq!(pages_of(&rows, *marker), std::slice::from_ref(page), "query {}", marker);
            }
        }
        // A query that names none still never loses an owner logged on time.
        for (marker, page, named, fate) in &issued {
            if !*named && *fate == Fate::Logged {
                prop_assert!(pages_of(&rows, *marker).contains(page));
            }
        }

        // And every row of a logged request's page is one the containment
        // join makes of the same logs.
        let logged: Vec<RequestRecord> = on_time.into_iter().chain(late).collect();
        for r in &logged {
            plain_rl.on_request(r.clone());
        }
        let plain_map = Arc::new(QiUrlMap::new());
        Mapper::new(plain_rl, plain_ql, plain_map.clone()).run_once();
        let plain = plain_map.all();
        for row in rows.iter().filter(|row| logged.iter().any(|r| r.page_key == row.page_key)) {
            prop_assert!(
                plain.iter().any(|p| p.sql == row.sql && p.page_key == row.page_key),
                "{} under {} is not in the containment join", row.sql, row.page_key
            );
        }
    }
}
