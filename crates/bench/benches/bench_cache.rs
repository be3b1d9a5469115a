//! Page-cache microbenchmarks: lookup/insert/invalidate throughput under
//! each eviction policy.

use cacheportal_cache::{EvictionPolicy, PageCache, PageCacheConfig};
use cacheportal_web::PageKey;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn page_cache_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("page_cache");
    for policy in [EvictionPolicy::Lru, EvictionPolicy::Lfu, EvictionPolicy::Fifo] {
        group.bench_with_input(
            BenchmarkId::new("churn", format!("{policy:?}")),
            &policy,
            |b, &policy| {
                let cache = PageCache::new(PageCacheConfig {
                    capacity: 512,
                    policy,
                    ttl_micros: None,
                });
                let keys: Vec<PageKey> =
                    (0..2048).map(|i| PageKey::raw(format!("k{i}"))).collect();
                let mut i = 0usize;
                b.iter(|| {
                    let k = &keys[i % keys.len()];
                    if cache.get(k, i as u64).is_none() {
                        cache.put(k.clone(), "body".into(), i as u64);
                    }
                    i += 1;
                })
            },
        );
    }
    // Eviction at capacity must not depend on how many pages are resident:
    // every `put` below inserts a page that is not cached into a full cache.
    for capacity in [1024usize, 8192, 65536] {
        group.bench_with_input(
            BenchmarkId::new("churn_at_capacity", capacity),
            &capacity,
            |b, &capacity| {
                let cache = PageCache::new(PageCacheConfig {
                    capacity,
                    policy: EvictionPolicy::Lru,
                    ttl_micros: None,
                });
                let keys: Vec<PageKey> = (0..2 * capacity)
                    .map(|i| PageKey::raw(format!("shop/product?g:sku={i}")))
                    .collect();
                let mut i = 0usize;
                for k in &keys[..capacity] {
                    cache.put(k.clone(), "body".into(), i as u64);
                    i += 1;
                }
                b.iter(|| {
                    cache.put(keys[i % keys.len()].clone(), "body".into(), i as u64);
                    i += 1;
                })
            },
        );
    }
    group.bench_function("invalidate_batch_of_64", |b| {
        b.iter_batched(
            || {
                let cache = PageCache::new(PageCacheConfig::default());
                let keys: Vec<PageKey> =
                    (0..64).map(|i| PageKey::raw(format!("k{i}"))).collect();
                for k in &keys {
                    cache.put(k.clone(), "body".into(), 0);
                }
                (cache, keys)
            },
            |(cache, keys)| black_box(cache.invalidate(keys.iter())),
            criterion::BatchSize::SmallInput,
        )
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = page_cache_ops
}
criterion_main!(benches);
