//! Invalidator throughput benchmarks: cost of one synchronization point as
//! the number of registered query instances and the update-batch size grow
//! (§4's "the invalidator must not be a bottleneck" claim), for each policy —
//! what registering an instance costs to do and to keep
//! (`registry/register_typed`), and what analysing one costs at a sync point
//! (`analysis/join_poll`, `analysis/indexed`) — the last three with the
//! counting allocator of `crates/core/tests/common`.

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
            &format!(
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
        assert_eq!(report.registered, ROWS as u64);
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

/// `portal_load`'s storefront: `skus` products with one inventory row each,
/// a join page per sku and — with `categories` — a catalog, a top-ten and a
/// statistics page per category, registered.
fn storefront(skus: usize, categories: usize) -> (Database, QiUrlMap, Invalidator) {
    let mut db = Database::new();
    db.execute(
        "CREATE TABLE products (sku INT, name TEXT, category INT, price INT, \
         INDEX(sku), INDEX(category))",
    )
    .unwrap();
    db.execute("CREATE TABLE inventory (sku INT, warehouse INT, stock INT, INDEX(sku))")
        .unwrap();
    let map = QiUrlMap::new();
    let page = |sql: String, key: String| map.insert(&sql, PageKey::raw(key), "shop".into());
    for sku in 0..skus {
        let category = (sku % categories.max(1)) as i64;
        let price = (100 + sku * 7919 % 9900) as i64;
        db.insert_row(
            "products",
            vec![(sku as i64).into(), format!("Product {sku}").into(), category.into(), price.into()],
        )
        .unwrap();
        db.insert_row(
            "inventory",
            vec![(sku as i64).into(), ((sku % 8) as i64).into(), ((sku * 31 % 500) as i64).into()],
        )
        .unwrap();
        page(
            format!(
                "SELECT products.sku, products.name, products.price, inventory.warehouse, \
                 inventory.stock FROM products, inventory \
                 WHERE products.sku = {sku} AND products.sku = inventory.sku"
            ),
            format!("shop/product?g:sku={sku}"),
        );
    }
    for category in 0..categories {
        page(
            format!("SELECT sku, name, price FROM products WHERE category = {category} ORDER BY price, sku"),
            format!("shop/catalog?g:category={category}"),
        );
        page(
            format!(
                "SELECT sku, name, price FROM products WHERE category = {category} \
                 ORDER BY price DESC LIMIT 10"
            ),
            format!("shop/top?g:category={category}"),
        );
        page(
            format!("SELECT COUNT(*), SUM(price) FROM products WHERE category = {category}"),
            format!("shop/stats?g:category={category}"),
        );
    }
    let mut inv = Invalidator::new(InvalidatorConfig::default());
    inv.start_from(db.high_water());
    let report = inv.run_sync_point(&db, &map).unwrap();
    assert_eq!(report.registered as usize, skus + 3 * categories);
    (db, map, inv)
}

/// One sync point over one update (the `UPDATE` itself is in the timed
/// region: an indexed single-row write). Beside the time, once: what the
/// sync point allocates, per instance it analyses.
fn analysis_cost(c: &mut Criterion) {
    // `join_poll`: the update lands on the join side, where no conjunct is
    // indexable — every instance is analysed and polled.
    for skus in [1000usize, 4000] {
        let (mut db, map, mut inv) = storefront(skus, 0);
        let mut tick = 0usize;
        let mut sync = |db: &mut Database, inv: &mut Invalidator| {
            tick += 1;
            db.execute(&format!(
                "UPDATE inventory SET stock = {} WHERE sku = {}",
                tick % 500,
                tick * 7 % skus
            ))
            .unwrap();
            inv.run_sync_point(db, &map).unwrap()
        };
        let (report, allocated) = common::measure(|| sync(&mut db, &mut inv));
        assert_eq!(report.polls.issued as usize, skus);
        println!(
            "analysis/join_poll/{skus}: {:.1} allocations per analysed instance, {} bytes \
             transient per sync",
            allocated.calls as f64 / report.checked_instances as f64,
            allocated.transient_peak,
        );
        c.bench_function(BenchmarkId::new("analysis/join_poll", skus), |b| {
            b.iter(|| black_box(sync(&mut db, &mut inv)))
        });
    }
    // `update_mix`: a price update, which the predicate index answers with a
    // handful of candidates out of 4 300 instances — the per-type work must
    // not cost more than the per-instance work it replaces.
    const PAGES: usize = 4300;
    let (mut db, map, mut inv) = storefront(4000, 100);
    let mut tick = 0usize;
    let mut sync = |db: &mut Database, inv: &mut Invalidator| {
        tick += 1;
        db.execute(&format!(
            "UPDATE products SET price = {} WHERE sku = {}",
            100 + tick * 13 % 9900,
            tick * 7 % 4000
        ))
        .unwrap();
        inv.run_sync_point(db, &map).unwrap()
    };
    let (report, allocated) = common::measure(|| sync(&mut db, &mut inv));
    println!(
        "analysis/indexed/{PAGES}: {} instances analysed ({} skipped by the index), {} allocations, \
         {} bytes transient per sync",
        report.checked_instances, report.index_skipped, allocated.calls, allocated.transient_peak,
    );
    c.bench_function(BenchmarkId::new("analysis/indexed", PAGES), |b| {
        b.iter(|| black_box(sync(&mut db, &mut inv)))
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
    targets = sync_point_cost, registration_cost, typed_registration, analysis_cost,
        maintained_index_benefit
}
criterion_main!(benches);
