//! Readers hit the cache under its shared lock while one thread `put`s past
//! capacity and another ejects. Whatever the interleaving: the cache never
//! exceeds its capacity, every `get` is counted exactly once as a hit or a
//! miss, the wired metrics are the cache's own counters, and neither `get`
//! nor `get_shared` (the readers alternate) returns a body that an eject
//! which had already returned should have removed.

use cacheportal_cache::{PageCache, PageCacheConfig};
use cacheportal_obs::MetricsRegistry;
use cacheportal_web::PageKey;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const CAPACITY: usize = 64;
const KEYS: usize = 4 * CAPACITY;

fn hammer(readers: usize, run_for: Duration) {
    let cache = PageCache::new(PageCacheConfig {
        capacity: CAPACITY,
        ttl_micros: None,
    });
    let registry = MetricsRegistry::new();
    cache.wire_metrics(&registry, "cache.page");
    let keys: Vec<PageKey> = (0..KEYS).map(|i| PageKey::raw(format!("k{i}"))).collect();
    // A key's bodies are the numbers 1, 2, … in the order the one writer
    // puts them. `put_done[k]`: the last body whose `put` has returned.
    // `dead[k]`: the last body that an eject which has returned found put,
    // and so removed unless a later `put` had already replaced it.
    let put_done: Vec<AtomicU64> = (0..KEYS).map(|_| AtomicU64::new(0)).collect();
    let dead: Vec<AtomicU64> = (0..KEYS).map(|_| AtomicU64::new(0)).collect();
    let stop = AtomicBool::new(false);
    let start = Barrier::new(readers + 2);

    let gets: u64 = std::thread::scope(|scope| {
        let (cache, keys, put_done, dead, stop, start) =
            (&cache, &keys, &put_done, &dead, &stop, &start);
        scope.spawn(move || {
            let mut rng = StdRng::seed_from_u64(1);
            let mut next = vec![0u64; KEYS];
            start.wait();
            while !stop.load(SeqCst) {
                let k = rng.gen_range(0..KEYS);
                next[k] += 1;
                cache.put(keys[k].clone(), next[k].to_string(), next[k]);
                put_done[k].store(next[k], SeqCst);
            }
        });
        scope.spawn(move || {
            let mut rng = StdRng::seed_from_u64(2);
            start.wait();
            while !stop.load(SeqCst) {
                let k = rng.gen_range(0..KEYS);
                let before = put_done[k].load(SeqCst);
                let ejected = cache.invalidate_collect([&keys[k]]);
                assert!(ejected.len() <= 1);
                dead[k].fetch_max(before, SeqCst);
                assert!(cache.len() <= CAPACITY);
            }
        });
        let handles: Vec<_> = (0..readers)
            .map(|r| {
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(10 + r as u64);
                    let mut gets = 0u64;
                    start.wait();
                    let began = Instant::now();
                    while began.elapsed() < run_for {
                        for _ in 0..256 {
                            let k = rng.gen_range(0..KEYS);
                            let dead_before = dead[k].load(SeqCst);
                            gets += 1;
                            let body = if gets.is_multiple_of(2) {
                                cache.get(&keys[k], 0).map(Arc::from)
                            } else {
                                cache.get_shared(&keys[k], 0)
                            };
                            if let Some(body) = body {
                                let body: u64 = body.parse().expect("a body is a number");
                                assert!(
                                    body > dead_before,
                                    "k{k}: got body {body}, ejected up to {dead_before}"
                                );
                            }
                        }
                    }
                    gets
                })
            })
            .collect();
        let gets = handles.into_iter().map(|h| h.join().expect("reader")).sum();
        stop.store(true, SeqCst);
        gets
    });

    let s = cache.stats();
    assert_eq!(s.hits + s.misses, gets, "every get is a hit or a miss");
    assert!(s.hits > 0 && s.misses > 0 && s.evictions > 0 && s.invalidations > 0);
    assert!(cache.len() <= CAPACITY);
    for (name, want) in [
        ("cache.page.hits", s.hits),
        ("cache.page.misses", s.misses),
        ("cache.page.insertions", s.insertions),
        ("cache.page.evictions", s.evictions),
        ("cache.page.invalidations", s.invalidations),
        ("cache.page.expirations", s.expirations),
    ] {
        assert_eq!(registry.counter_value(name), want, "{name}");
    }
    assert_eq!(
        registry.gauge_value("cache.page.resident"),
        cache.len() as i64
    );
    cache.sieve_queue(); // the queue, the slab and the key map still agree
}

#[test]
fn readers_writer_and_ejector_share_one_cache() {
    hammer(4, Duration::from_millis(300));
}

/// The nightly soak's variant: `cargo test --release -- --ignored`.
#[test]
#[ignore = "10 s; run by the nightly soak"]
fn readers_writer_and_ejector_share_one_cache_for_ten_seconds() {
    hammer(8, Duration::from_secs(10));
}
