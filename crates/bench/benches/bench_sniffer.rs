//! Sniffer benchmarks: mapper cost vs. log volume and request concurrency
//! (Fig E5). The sniffer "has to run as fast as the web server" (§2.4) —
//! these benches quantify the interval-containment join, and beside it the
//! filing of records that name their page, as the query logger's do
//! (`sniffer_mapper/named`) — and what a row of
//! the QI/URL map costs to write and to keep (`map/insert_typed`, with the
//! counting allocator of `crates/core/tests/common`).

#[path = "../../core/tests/common/mod.rs"]
mod common;

#[global_allocator]
static ALLOC: common::CountingAlloc = common::CountingAlloc;

use cacheportal_db::Value;
use cacheportal_sniffer::{Mapper, QiUrlMap, QueryLog, RequestLog};
use cacheportal_web::{PageKey, RequestObserver, RequestRecord};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::sync::Arc;

/// Build logs with `n` requests, `overlap` controlling how many request
/// windows each query falls into (1 = serial, k = k-way concurrency);
/// `named` queries name their page, as the query logger's do.
fn build_logs(n: usize, overlap: u64, named: bool) -> (Arc<RequestLog>, Arc<QueryLog>) {
    let rl = Arc::new(RequestLog::new());
    let ql = QueryLog::new();
    fill_logs(&rl, &ql, n, overlap, named);
    (rl, ql)
}

fn fill_logs(rl: &RequestLog, ql: &QueryLog, n: usize, overlap: u64, named: bool) {
    let sql = "SELECT * FROM Car WHERE price < $1";
    for i in 0..n as u64 {
        let start = i * 10;
        let end = start + 10 * overlap; // windows overlap `overlap` deep
        let (page_key, servlet): (_, Arc<str>) = (PageKey::raw(format!("p{i}")), "s".into());
        let params = [Value::Int(i as i64)];
        if named {
            ql.record_for(&page_key, &servlet, sql, &params, true);
        } else {
            ql.record(sql, &params, true, start + 2, start + 4);
        }
        rl.on_request(RequestRecord {
            servlet,
            page_key,
            received: start,
            delivered: end,
        });
    }
}

fn mapper_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("sniffer_mapper");
    // The 5000-request run is there for the serial case only: against 1000
    // it shows whether a run costs in proportion to its log.
    let mut run = |name: String, n: usize, overlap: u64, named: bool| {
        group.bench_with_input(BenchmarkId::new(name, n), &n, |b, &n| {
            b.iter_batched(
                || {
                    let (rl, ql) = build_logs(n, overlap, named);
                    let map = Arc::new(QiUrlMap::new());
                    Mapper::new(rl, ql, map)
                },
                |mut mapper| black_box(mapper.run_once()),
                criterion::BatchSize::LargeInput,
            )
        });
    };
    for (n, overlaps) in [(100usize, &[1u64, 4, 16][..]), (1000, &[1, 4, 16]), (5000, &[1])] {
        for &overlap in overlaps {
            run(format!("overlap{overlap}"), n, overlap, false);
        }
    }
    // The same serial log with every query naming its page.
    run("named".into(), 5000, 1, true);
    group.finish();
}

/// One mapper run over `rows` serial requests of one query each: into an
/// empty map (every row new: stored typed) and into a map that has them
/// all (every row known by its typed form: nothing kept). Nothing is
/// rendered in either.
/// Beside the times, once: the bytes and blocks a row leaves in the map.
fn map_rows(c: &mut Criterion) {
    const ROWS: usize = 4300;
    let per_row = |n: isize| n as f64 / ROWS as f64;
    let (rl, ql) = (Arc::new(RequestLog::new()), QueryLog::new());
    let map = Arc::new(QiUrlMap::new());
    let mut mapper = Mapper::new(rl.clone(), ql.clone(), map.clone());
    let mut run = || {
        let ((), logged) = common::measure(|| fill_logs(&rl, &ql, ROWS, 1, false));
        let (report, mapped) = common::measure(|| mapper.run_once());
        (report, logged.retained + mapped.retained, mapped.calls)
    };
    let (new, kept, calls) = run();
    let (again, kept_again, calls_again) = run();
    assert_eq!(new.mapped, ROWS as u64);
    assert_eq!((again.mapped, map.len()), (ROWS as u64, ROWS));
    // Kept: what logging the requests and mapping them left behind, the
    // page keys the log made and the map shares included.
    println!(
        "map/insert_typed/{ROWS} new: {:.1} allocations and {:.0} bytes kept per row",
        per_row(calls as isize),
        per_row(kept),
    );
    println!(
        "map/insert_typed/{ROWS} duplicate: {:.1} allocations and {:.0} bytes kept per row",
        per_row(calls_again as isize),
        per_row(kept_again),
    );

    let mut group = c.benchmark_group("map/insert_typed");
    group.bench_function(BenchmarkId::from_parameter(format!("{ROWS} new")), |b| {
        b.iter_batched(
            || {
                let (rl, ql) = build_logs(ROWS, 1, false);
                Mapper::new(rl, ql, Arc::new(QiUrlMap::new()))
            },
            |mut mapper| black_box(mapper.run_once()),
            criterion::BatchSize::LargeInput,
        )
    });
    group.bench_function(BenchmarkId::from_parameter(format!("{ROWS} duplicate")), |b| {
        b.iter_batched(
            || fill_logs(&rl, &ql, ROWS, 1, false),
            |()| black_box(mapper.run_once()),
            criterion::BatchSize::LargeInput,
        )
    });
    group.finish();
}

fn canonicalization(c: &mut Criterion) {
    let sql = "SELECT Car.maker, Car.model FROM Car, Mileage \
               WHERE Car.model = Mileage.model AND Car.price < $1";
    let params = [Value::Int(20_000)];
    c.bench_function("sniffer_canonical_bound_sql", |b| {
        b.iter(|| black_box(cacheportal_sniffer::canonical_bound_sql(black_box(sql), &params)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = mapper_throughput, map_rows, canonicalization
}
criterion_main!(benches);
