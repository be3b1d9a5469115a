//! Microbenchmarks for the relational engine substrate: the paper's three
//! query classes (§5.2.1) plus parse/plan costs and DML, and what
//! `portal_load`'s storefront asks of the engine — its bulk load and its
//! four servlet queries — with the counting allocator of
//! `crates/core/tests/common`.

#[path = "../../core/tests/common/mod.rs"]
mod common;
#[path = "../../db/tests/storefront/mod.rs"]
mod storefront;

#[global_allocator]
static ALLOC: common::CountingAlloc = common::CountingAlloc;

use cacheportal_bench::ablation::paper_application;
use cacheportal_db::sql::parser::parse;
use cacheportal_db::Value;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_queries(c: &mut Criterion) {
    let db = paper_application(11);
    let mut group = c.benchmark_group("db_queries");

    group.bench_function("light_select_small_indexed", |b| {
        b.iter(|| {
            black_box(
                db.query("SELECT id, val FROM small WHERE grp = 3 ORDER BY id")
                    .unwrap(),
            )
        })
    });
    group.bench_function("medium_select_large_indexed", |b| {
        b.iter(|| {
            black_box(
                db.query("SELECT id, val FROM large WHERE grp = 3 ORDER BY id")
                    .unwrap(),
            )
        })
    });
    group.bench_function("heavy_join", |b| {
        b.iter(|| {
            black_box(
                db.query(
                    "SELECT small.id, small.val, large.id FROM small, large \
                     WHERE small.grp = 3 AND small.val = large.val",
                )
                .unwrap(),
            )
        })
    });
    group.bench_function("aggregate_group_by", |b| {
        b.iter(|| {
            black_box(
                db.query("SELECT grp, COUNT(*), AVG(val) FROM large GROUP BY grp")
                    .unwrap(),
            )
        })
    });
    group.bench_function("polling_count_query", |b| {
        b.iter(|| {
            black_box(
                db.query("SELECT COUNT(*) FROM large WHERE val = 512")
                    .unwrap(),
            )
        })
    });
    group.finish();
}

fn bench_parse(c: &mut Criterion) {
    let sql = "SELECT Car.maker, Car.model, Car.price, Mileage.EPA \
               FROM Car, Mileage \
               WHERE Car.model = Mileage.model AND Car.price < $1 \
               ORDER BY Car.price DESC LIMIT 20";
    c.bench_function("db_parse_join_query", |b| {
        b.iter(|| black_box(parse(black_box(sql)).unwrap()))
    });
}

fn bench_statement_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("db_statement_cache");
    let db = paper_application(23);
    // A literal-only text bypasses the cache and is parsed on every call; the
    // same query with a parameter marker is parsed once.
    group.bench_function("literal_text_parsed_every_time", |b| {
        b.iter(|| {
            black_box(
                db.query("SELECT id, val FROM small WHERE grp = 3 ORDER BY id")
                    .unwrap(),
            )
        })
    });
    group.bench_function("parameterised_text_parsed_once", |b| {
        let sql = "SELECT id, val FROM small WHERE grp = $1 ORDER BY id";
        b.iter(|| {
            black_box(
                db.query_with_params(sql, &[cacheportal_db::Value::Int(3)])
                    .unwrap(),
            )
        })
    });
    group.finish();
}

fn bench_range_index(c: &mut Criterion) {
    let mut group = c.benchmark_group("db_range_scan");
    // Same data with and without an ordered index on `val`.
    let build = |with_index: bool| {
        let mut db = cacheportal_db::Database::new();
        let ddl = if with_index {
            "CREATE TABLE t (id INT, val INT, RANGE INDEX(val))"
        } else {
            "CREATE TABLE t (id INT, val INT)"
        };
        db.execute(ddl).unwrap();
        for i in 0..5000i64 {
            db.insert_row("t", vec![i.into(), ((i * 37) % 5000).into()])
                .unwrap();
        }
        db
    };
    let with_ix = build(true);
    let without = build(false);
    let q = "SELECT id FROM t WHERE val < 100";
    group.bench_function("with_range_index", |b| {
        b.iter(|| black_box(with_ix.query(q).unwrap()))
    });
    group.bench_function("seq_scan", |b| {
        b.iter(|| black_box(without.query(q).unwrap()))
    });
    group.finish();
}

fn bench_dml(c: &mut Criterion) {
    let mut group = c.benchmark_group("db_dml");
    group.bench_function("insert_delete_round_trip", |b| {
        let mut db = paper_application(13);
        b.iter(|| {
            db.execute("INSERT INTO small VALUES (99999, 5, 123)").unwrap();
            db.execute("DELETE FROM small WHERE id = 99999").unwrap();
        })
    });
    group.bench_function("update_indexed_predicate", |b| {
        let mut db = paper_application(17);
        b.iter(|| {
            db.execute("UPDATE small SET val = (val + 1) WHERE grp = 4")
                .unwrap()
        })
    });
    group.finish();
}

/// The storefront's set-up bulk load (40 INSERT statements of 200 rows) and
/// its four servlet queries run from the statement cache, as a miss runs
/// them. Beside the time, once: the allocations per row and per query.
fn bench_storefront(c: &mut Criterion) {
    let rows = 2 * storefront::SKUS;
    let statements = storefront::bulk_load(1);
    let load = || {
        let mut db = storefront::empty_database();
        for sql in &statements {
            db.execute(sql).unwrap();
        }
        db
    };
    let (db, allocated) = common::measure(load);
    println!(
        "db_bulk_load/{rows}: {:.2} allocations per row",
        allocated.calls as f64 / rows as f64
    );
    c.bench_function(BenchmarkId::new("db_bulk_load", rows), |b| {
        b.iter(|| black_box(load()))
    });

    let param = [Value::Int(7)];
    for (name, _, sql) in storefront::SERVLETS {
        db.query_with_params(sql, &param).unwrap();
        let (_, allocated) = common::measure(|| db.query_with_params(sql, &param).unwrap());
        println!("db_servlet_queries/{name}: {} allocations per query", allocated.calls);
        c.bench_function(BenchmarkId::new("db_servlet_queries", name), |b| {
            b.iter(|| black_box(db.query_with_params(sql, &param).unwrap()))
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_queries, bench_parse, bench_dml, bench_statement_cache, bench_range_index,
        bench_storefront
}
criterion_main!(benches);
