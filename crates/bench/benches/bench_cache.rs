//! Page-cache microbenchmarks: lookup/insert/invalidate throughput, hits
//! from several threads on one cache, and the hit ratio on a Zipf stream.

use cacheportal_cache::{PageCache, PageCacheConfig};
use cacheportal_web::PageKey;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};

fn sized(capacity: usize) -> PageCache {
    PageCache::new(PageCacheConfig {
        capacity,
        ttl_micros: None,
    })
}

/// `portal_load`'s `cold_churn` request law replayed on the cache alone:
/// Zipf 0.8 over 4300 pages at capacity 1024, get-or-put, the cache warmed
/// least-popular-first. Printed, not timed.
fn zipf_hit_ratio() {
    const PAGES: usize = 4300;
    const REQUESTS: u64 = 1_000_000;
    let keys: Vec<PageKey> = (0..PAGES)
        .map(|rank| PageKey::raw(format!("shop/product?g:sku={rank}")))
        .collect();
    let mut cdf: Vec<f64> = Vec::with_capacity(PAGES);
    let mut acc = 0.0;
    for rank in 1..=PAGES {
        acc += (rank as f64).powf(-0.8);
        cdf.push(acc);
    }
    let cache = sized(1024);
    for k in keys.iter().rev() {
        cache.put(k.clone(), "body", 0);
    }
    let mut rng = StdRng::seed_from_u64(1);
    for now in 0..REQUESTS {
        let u = rng.gen::<f64>() * acc;
        let k = &keys[cdf.partition_point(|&c| c <= u).min(PAGES - 1)];
        if cache.get(k, now).is_none() {
            cache.put(k.clone(), "body", now);
        }
    }
    let s = cache.stats();
    println!(
        "{:<60} ratio: {:.4} ({} hits / {} requests)",
        "page_cache/zipf_hit_ratio",
        s.hit_ratio(),
        s.hits,
        s.lookups()
    );
}

fn page_cache_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("page_cache");
    group.bench_function("churn", |b| {
        let cache = sized(512);
        let keys: Vec<PageKey> = (0..2048).map(|i| PageKey::raw(format!("k{i}"))).collect();
        let mut i = 0usize;
        b.iter(|| {
            let k = &keys[i % keys.len()];
            if cache.get(k, i as u64).is_none() {
                cache.put(k.clone(), "body", i as u64);
            }
            i += 1;
        })
    });
    // A hit takes the lock shared: what one thread pays for a lookup while
    // `threads - 1` others do nothing but look up on the same cache. `get`
    // copies the 1 KiB body out; `get_shared` bumps the body's reference
    // count instead, a write to a line the other readers write too.
    type Lookup = fn(&PageCache, &PageKey) -> usize;
    let lookups: [(&str, Lookup); 2] = [
        ("get_hit_mt", |cache, k| cache.get(k, 0).map_or(0, |body| body.len())),
        ("get_shared_hit_mt", |cache, k| cache.get_shared(k, 0).map_or(0, |body| body.len())),
    ];
    for (name, lookup) in lookups {
        for threads in [1usize, 2, 4] {
            group.bench_with_input(BenchmarkId::new(name, threads), &threads, |b, &threads| {
                let cache = sized(1024);
                let keys: Vec<PageKey> = (0..1024)
                    .map(|i| PageKey::raw(format!("shop/product?g:sku={i}")))
                    .collect();
                for k in &keys {
                    cache.put(k.clone(), "x".repeat(1024), 0);
                }
                let stop = AtomicBool::new(false);
                std::thread::scope(|scope| {
                    for t in 1..threads {
                        let (cache, keys, stop) = (&cache, &keys, &stop);
                        scope.spawn(move || {
                            let mut i = t * 257;
                            while !stop.load(Ordering::Relaxed) {
                                black_box(lookup(cache, &keys[i % keys.len()]));
                                i += 1;
                            }
                        });
                    }
                    let mut i = 0usize;
                    b.iter(|| {
                        i += 1;
                        lookup(&cache, &keys[i % keys.len()])
                    });
                    stop.store(true, Ordering::Relaxed);
                });
            });
        }
    }
    // Eviction at capacity must not depend on how many pages are resident:
    // every `put` below inserts a page that is not cached into a full cache.
    for capacity in [1024usize, 8192, 65536] {
        group.bench_with_input(
            BenchmarkId::new("churn_at_capacity", capacity),
            &capacity,
            |b, &capacity| {
                let cache = sized(capacity);
                let keys: Vec<PageKey> = (0..2 * capacity)
                    .map(|i| PageKey::raw(format!("shop/product?g:sku={i}")))
                    .collect();
                let mut i = 0usize;
                for k in &keys[..capacity] {
                    cache.put(k.clone(), "body", i as u64);
                    i += 1;
                }
                b.iter(|| {
                    cache.put(keys[i % keys.len()].clone(), "body", i as u64);
                    i += 1;
                })
            },
        );
    }
    group.bench_function("invalidate_batch_of_64", |b| {
        b.iter_batched(
            || {
                let cache = PageCache::new(PageCacheConfig::default());
                let keys: Vec<PageKey> = (0..64).map(|i| PageKey::raw(format!("k{i}"))).collect();
                for k in &keys {
                    cache.put(k.clone(), "body", 0);
                }
                (cache, keys)
            },
            |(cache, keys)| black_box(cache.invalidate(keys.iter())),
            criterion::BatchSize::SmallInput,
        )
    });
    group.finish();
    zipf_hit_ratio();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = page_cache_ops
}
criterion_main!(benches);
