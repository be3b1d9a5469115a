//! Sniffer benchmarks: mapper cost vs. log volume and request concurrency
//! (Fig E5). The sniffer "has to run as fast as the web server" (§2.4) —
//! these benches quantify the interval-containment join.

use cacheportal_db::Value;
use cacheportal_sniffer::{Mapper, QiUrlMap, QueryLog, RequestLog};
use cacheportal_web::{PageKey, RequestObserver, RequestRecord};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::sync::Arc;

/// Build logs with `n` requests, `overlap` controlling how many request
/// windows each query falls into (1 = serial, k = k-way concurrency).
fn build_logs(n: usize, overlap: u64) -> (Arc<RequestLog>, Arc<QueryLog>) {
    let rl = Arc::new(RequestLog::new());
    let ql = QueryLog::new();
    for i in 0..n as u64 {
        let start = i * 10;
        let end = start + 10 * overlap; // windows overlap `overlap` deep
        rl.on_request(RequestRecord {
            id: i,
            servlet: "s".into(),
            page_key: PageKey::raw(format!("p{i}")),
            received: start,
            delivered: end,
        });
        ql.record(
            "SELECT * FROM Car WHERE price < $1",
            &[Value::Int(i as i64)],
            true,
            start + 2,
            start + 4,
        );
    }
    (rl, ql)
}

fn mapper_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("sniffer_mapper");
    // The 5000-request run is there for the serial case only: against 1000
    // it shows whether a run costs in proportion to its log.
    for (n, overlaps) in [(100usize, &[1u64, 4, 16][..]), (1000, &[1, 4, 16]), (5000, &[1])] {
        for &overlap in overlaps {
            group.bench_with_input(
                BenchmarkId::new(format!("overlap{overlap}"), n),
                &(n, overlap),
                |b, &(n, overlap)| {
                    b.iter_batched(
                        || {
                            let (rl, ql) = build_logs(n, overlap);
                            let map = Arc::new(QiUrlMap::new());
                            Mapper::new(rl, ql, map)
                        },
                        |mut mapper| black_box(mapper.run_once()),
                        criterion::BatchSize::LargeInput,
                    )
                },
            );
        }
    }
    group.finish();
}

fn canonicalization(c: &mut Criterion) {
    let record = cacheportal_sniffer::QueryRecord {
        id: 1,
        sql: "SELECT Car.maker, Car.model FROM Car, Mileage \
              WHERE Car.model = Mileage.model AND Car.price < $1"
            .into(),
        params: vec![Value::Int(20_000)],
        is_select: true,
        received: 0,
        delivered: 1,
    };
    c.bench_function("sniffer_canonical_bound_sql", |b| {
        b.iter(|| black_box(cacheportal_sniffer::canonical_bound_sql(black_box(&record))))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = mapper_throughput, canonicalization
}
criterion_main!(benches);
