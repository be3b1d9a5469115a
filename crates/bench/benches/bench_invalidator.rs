//! Invalidator throughput benchmarks: cost of one synchronization point as
//! the number of registered query instances and the update-batch size grow
//! (§4's "the invalidator must not be a bottleneck" claim), for each policy —
//! and what registering an instance costs to do and to keep
//! (`registry/register_typed`, with the counting allocator of
//! `crates/core/tests/common`).

#[path = "../../core/tests/common/mod.rs"]
mod common;

#[global_allocator]
static ALLOC: common::CountingAlloc = common::CountingAlloc;

use cacheportal_db::{Database, Value};
use cacheportal_invalidator::{InvalidationPolicy, Invalidator, InvalidatorConfig, QueryTypeId};
use cacheportal_sniffer::{Mapper, QiUrlMap, QueryLog, RequestLog};
use cacheportal_web::{PageKey, RequestObserver, RequestRecord};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::sync::Arc;

fn example_db() -> Database {
    let mut db = Database::new();
    db.execute("CREATE TABLE Car (maker TEXT, model TEXT, price INT, INDEX(model))")
        .unwrap();
    db.execute("CREATE TABLE Mileage (model TEXT, EPA FLOAT, INDEX(model))")
        .unwrap();
    for i in 0..2000 {
        db.insert_row(
            "Car",
            vec![
                format!("maker{}", i % 40).into(),
                format!("model{}", i % 200).into(),
                (10_000 + (i % 100) as i64 * 500).into(),
            ],
        )
        .unwrap();
        if i < 200 {
            db.insert_row(
                "Mileage",
                vec![format!("model{i}").into(), (20.0 + (i % 20) as f64).into()],
            )
            .unwrap();
        }
    }
    db
}

/// Register `n` join-query instances (distinct price bounds) in the map.
fn seeded_map(n: usize) -> QiUrlMap {
    let map = QiUrlMap::new();
    for i in 0..n {
        map.insert(
            format!(
                "SELECT Car.maker FROM Car, Mileage \
                 WHERE Car.model = Mileage.model AND Car.price < {}",
                10_000 + i * 97
            ),
            PageKey::raw(format!("page{i}")),
            "cars".into(),
        );
    }
    map
}

fn sync_point_cost(c: &mut Criterion) {
    let mut group = c.benchmark_group("invalidator_sync_point");
    for &instances in &[10usize, 100, 500] {
        for (policy, label) in [
            (InvalidationPolicy::Exact, "exact"),
            (InvalidationPolicy::Conservative, "conservative"),
            (InvalidationPolicy::TableLevel, "table_level"),
        ] {
            group.bench_with_input(
                BenchmarkId::new(label, instances),
                &instances,
                |b, &instances| {
                    b.iter_batched(
                        || {
                            let mut db = example_db();
                            let map = seeded_map(instances);
                            let mut inv = Invalidator::new(InvalidatorConfig::default());
                            inv.start_from(db.high_water());
                            // First run registers the instances.
                            inv.run_sync_point(&db, &map).unwrap();
                            for i in 0..inv.registry().types().len() {
                                inv.set_policy(QueryTypeId(i as u32), policy);
                            }
                            // One update batch to analyze.
                            for j in 0..10 {
                                db.execute(&format!(
                                    "INSERT INTO Car VALUES ('m','model{}',{})",
                                    j * 13,
                                    12_000 + j * 100
                                ))
                                .unwrap();
                            }
                            (db, map, inv)
                        },
                        |(db, map, mut inv)| {
                            black_box(inv.run_sync_point(&db, &map).unwrap())
                        },
                        criterion::BatchSize::LargeInput,
                    )
                },
            );
        }
    }
    group.finish();
}

fn registration_cost(c: &mut Criterion) {
    c.bench_function("invalidator_register_500_instances", |b| {
        b.iter_batched(
            || (example_db(), seeded_map(500)),
            |(db, map)| {
                let mut inv = Invalidator::new(InvalidatorConfig::default());
                inv.start_from(db.high_water());
                black_box(inv.run_sync_point(&db, &map).unwrap())
            },
            criterion::BatchSize::LargeInput,
        )
    });
}

/// A map of `rows` product pages as a mapper leaves it: every row with its
/// typed form, one instance of one type per page.
fn mapped(rows: usize) -> Arc<QiUrlMap> {
    let (requests, queries) = (Arc::new(RequestLog::new()), QueryLog::new());
    for sku in 0..rows as u64 {
        requests.on_request(RequestRecord {
            id: sku,
            servlet: "product".into(),
            page_key: PageKey::raw(format!("shop/product?g:sku={sku}")),
            received: sku * 10,
            delivered: sku * 10 + 9,
        });
        queries.record(
            "SELECT Car.maker, Car.price FROM Car, Mileage \
             WHERE Car.price = $1 AND Car.model = Mileage.model",
            &[Value::Int(sku as i64)],
            true,
            sku * 10 + 2,
            sku * 10 + 4,
        );
    }
    let map = Arc::new(QiUrlMap::new());
    Mapper::new(requests, queries, map.clone()).run_once();
    assert_eq!(map.len(), rows);
    map
}

/// The registration scan over 4 300 typed rows. Beside the time, once: the
/// allocations it makes and the bytes the registry and the predicate index
/// keep, per row.
fn typed_registration(c: &mut Criterion) {
    const ROWS: usize = 4300;
    let (db, map) = (example_db(), mapped(ROWS));
    let register = || {
        let mut inv = Invalidator::new(InvalidatorConfig::default());
        inv.start_from(db.high_water());
        let report = inv.run_sync_point(&db, &map).unwrap();
        assert_eq!((report.registered, report.registered_from_text), (ROWS as u64, 0));
        inv
    };
    let (registered, allocated) = common::measure(register);
    println!(
        "registry/register_typed/{ROWS}: {:.1} allocations per row, {:.0} bytes in {:.2} blocks \
         kept per row",
        allocated.calls as f64 / ROWS as f64,
        allocated.retained as f64 / ROWS as f64,
        allocated.retained_blocks as f64 / ROWS as f64,
    );
    drop(registered);
    c.bench_function(BenchmarkId::new("registry/register_typed", ROWS), |b| {
        b.iter(|| black_box(register()))
    });
}

fn maintained_index_benefit(c: &mut Criterion) {
    let mut group = c.benchmark_group("invalidator_index_ablation");
    for with_index in [false, true] {
        let label = if with_index { "with_index" } else { "without_index" };
        group.bench_function(label, |b| {
            b.iter_batched(
                || {
                    let mut db = example_db();
                    let map = seeded_map(200);
                    let mut inv = Invalidator::new(InvalidatorConfig::default());
                    inv.start_from(db.high_water());
                    if with_index {
                        inv.maintain_index(&db, "Mileage", "model").unwrap();
                    }
                    inv.run_sync_point(&db, &map).unwrap();
                    for j in 0..10 {
                        db.execute(&format!(
                            "INSERT INTO Car VALUES ('m','nomatch{j}',11000)"
                        ))
                        .unwrap();
                    }
                    (db, map, inv)
                },
                |(db, map, mut inv)| {
                    black_box(inv.run_sync_point(&db, &map).unwrap())
                },
                criterion::BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = sync_point_cost, registration_cost, typed_registration, maintained_index_benefit
}
criterion_main!(benches);
