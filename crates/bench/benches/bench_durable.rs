//! Journal microbenchmarks: what a checkpoint costs as the site grows, and
//! what the site's first sync point — every row and origin in one WAL batch —
//! costs, in time and (counted once per size, with the counting allocator of
//! `crates/core/tests/common`) in transient heap. Real files under the
//! system temp directory, fsyncs included. Beside them, the checksum every
//! frame and snapshot pays, over 1 MiB.

#[path = "../../core/tests/common/mod.rs"]
mod common;

#[global_allocator]
static ALLOC: common::CountingAlloc = common::CountingAlloc;

use cacheportal::durability::{CursorRecord, Durability};
use cacheportal_sniffer::QiUrlMap;
use cacheportal_web::{HttpRequest, PageKey};
use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use std::collections::HashMap;
use std::hint::black_box;
use std::path::PathBuf;

/// `pages` product pages the way `portal_load` warms them: one QI/URL row
/// and one origin request each.
fn site(pages: usize) -> (QiUrlMap, HashMap<PageKey, HttpRequest>) {
    let map = QiUrlMap::new();
    let mut origins = HashMap::new();
    for sku in 0..pages {
        let page = PageKey::raw(format!("shop.example.com/product?g:sku={sku}"));
        map.insert(
            &format!("SELECT name, price, stock FROM product WHERE sku = {sku}"),
            page.clone(),
            "product".into(),
        );
        origins.insert(
            page,
            HttpRequest::get("shop.example.com", "/product", &[("sku", &sku.to_string())]),
        );
    }
    (map, origins)
}

fn cursor() -> CursorRecord {
    CursorRecord {
        consumed: 1_000,
        sync_seq: 100,
        watermarks: vec![("product".into(), 999)],
        bus_seq: 100,
        edge_marks: vec![("edge-0".into(), 100, 1_000), ("edge-1".into(), 100, 1_000)],
    }
}

fn journal_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cp-bench-durable-{}-{tag}", std::process::id()))
}

fn durable_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("durable");
    group.sample_size(20);
    let mebibyte: Vec<u8> = (0..1u32 << 20)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
        .collect();
    group.bench_function("crc32/1MiB", |b| {
        b.iter(|| cacheportal_durable::crc32(black_box(&mebibyte)))
    });
    for pages in [1_000usize, 4_300, 16_000] {
        group.bench_with_input(
            BenchmarkId::new("checkpoint", pages),
            &pages,
            |b, &pages| {
                let (map, origins) = site(pages);
                let dir = journal_dir(&format!("checkpoint-{pages}"));
                let mut journal = Durability::open(&dir, u64::MAX).expect("journal opens");
                let cursor = cursor();
                b.iter(|| {
                    black_box(
                        journal
                            .checkpoint(&map, &origins, &cursor)
                            .expect("checkpoint"),
                    )
                });
                drop(journal);
                std::fs::remove_dir_all(&dir).expect("journal directory removed");
            },
        );
    }
    for pages in [1_000usize, 4_300, 16_000] {
        let (map, origins) = site(pages);
        let admitted: Vec<(PageKey, HttpRequest)> = origins
            .iter()
            .map(|(page, request)| (page.clone(), request.clone()))
            .collect();
        let dir = journal_dir(&format!("first-sync-{pages}"));
        let fresh_journal = || {
            let _ = std::fs::remove_dir_all(&dir);
            Durability::open(&dir, u64::MAX).expect("journal opens")
        };
        let first_sync = |mut journal: Durability| {
            let out = journal.persist_sync(&map, &admitted, &origins, cursor());
            assert_eq!(out.errors, 0);
            out.appended
        };
        let journal = fresh_journal();
        let (frames, allocated) = common::measure(|| first_sync(journal));
        println!(
            "durable/persist_first_sync/{pages}: {frames} frames, {} transient bytes, {} allocations",
            allocated.transient_peak, allocated.calls
        );
        group.bench_function(BenchmarkId::new("persist_first_sync", pages), |b| {
            b.iter_batched(fresh_journal, |journal| black_box(first_sync(journal)), BatchSize::PerIteration);
        });
        std::fs::remove_dir_all(&dir).expect("journal directory removed");
    }
    group.finish();
}

criterion_group!(benches, durable_ops);
criterion_main!(benches);
