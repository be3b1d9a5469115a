//! Model-based property tests: under random interleavings of every
//! operation, the page cache must agree with a naive SIEVE — a `Vec` queue
//! and a hand index — on hits, the resident set, the queue with every
//! visited mark and the hand (hence every next victim), the counters, and a
//! queue that accounts for every slot. Then what SIEVE is for: the hit ratio
//! on a Zipf stream, pinned, and a hot set that survives a scan.

use cacheportal_cache::{CacheStats, PageCache, PageCacheConfig};
use cacheportal_web::PageKey;
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

#[derive(Debug, Clone)]
enum Op {
    Get(u8),
    /// Insert, or overwrite when the key is resident.
    Put(u8),
    /// One eject message naming several keys, resident or not.
    Invalidate(Vec<u8>),
    /// Flush pages admitted in the last `n` microseconds.
    EvictSince(u64),
    Clear,
    /// Let time pass (TTL expiry).
    Idle(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (0u8..12).prop_map(Op::Get),
        6 => (0u8..12).prop_map(Op::Put),
        2 => prop::collection::vec(0u8..12, 1..4).prop_map(Op::Invalidate),
        1 => (0u64..30).prop_map(Op::EvictSince),
        1 => Just(Op::Clear),
        2 => (1u64..40).prop_map(Op::Idle),
    ]
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    key: u8,
    /// Which `put` wrote the body.
    body: u64,
    inserted_at: u64,
    visited: bool,
}

/// Naive SIEVE: `queue[0]` is the oldest page, the last the newest; `hand`
/// indexes the page the next eviction looks at first.
struct Model {
    capacity: usize,
    ttl: Option<u64>,
    queue: Vec<Entry>,
    hand: usize,
    stats: CacheStats,
}

impl Model {
    /// Removing `queue[i]` leaves the hand on the page it was on, or on the
    /// next newer one when it was on `i`; past the newest it wraps.
    fn remove(&mut self, i: usize) {
        self.queue.remove(i);
        if self.hand > i {
            self.hand -= 1;
        }
        if self.hand >= self.queue.len() {
            self.hand = 0;
        }
    }

    /// The body's `put`, on a hit.
    fn get(&mut self, k: u8, now: u64) -> Option<u64> {
        let Some(i) = self.queue.iter().position(|e| e.key == k) else {
            self.stats.misses += 1;
            return None;
        };
        if self
            .ttl
            .is_some_and(|ttl| now.saturating_sub(self.queue[i].inserted_at) > ttl)
        {
            self.remove(i);
            self.stats.expirations += 1;
            self.stats.misses += 1;
            return None;
        }
        self.queue[i].visited = true;
        self.stats.hits += 1;
        Some(self.queue[i].body)
    }

    fn put(&mut self, k: u8, body: u64, now: u64) {
        if let Some(e) = self.queue.iter_mut().find(|e| e.key == k) {
            (e.body, e.inserted_at) = (body, now);
        } else if self.capacity == 0 {
            self.stats.evictions += 1;
            return;
        } else {
            if self.queue.len() >= self.capacity {
                while std::mem::take(&mut self.queue[self.hand].visited) {
                    self.hand = (self.hand + 1) % self.queue.len();
                }
                self.remove(self.hand);
                self.stats.evictions += 1;
            }
            self.queue.push(Entry {
                key: k,
                body,
                inserted_at: now,
                visited: false,
            });
        }
        self.stats.insertions += 1;
    }

    fn drop_where(&mut self, doomed: impl Fn(&Entry) -> bool) -> Vec<u8> {
        let mut gone = Vec::new();
        while let Some(i) = self.queue.iter().position(&doomed) {
            gone.push(self.queue[i].key);
            self.remove(i);
        }
        self.stats.invalidations += gone.len() as u64;
        gone
    }
}

fn key(k: u8) -> PageKey {
    PageKey::raw(format!("k{k}"))
}

fn unkey(k: &PageKey) -> u8 {
    k.as_str()[1..].parse().unwrap()
}

fn run_against_model(capacity: usize, ttl: Option<u64>, ops: Vec<Op>) {
    let cache = PageCache::new(PageCacheConfig {
        capacity,
        ttl_micros: ttl,
    });
    let mut model = Model {
        capacity,
        ttl,
        queue: Vec::new(),
        hand: 0,
        stats: CacheStats::default(),
    };
    let mut now = 0u64;
    let mut puts = 0u64;
    for op in ops {
        now += 1;
        match &op {
            Op::Get(k) => {
                let want = model.get(*k, now).map(|put| format!("body{k}/{put}"));
                // Either lookup is the one lookup: the same text, and the
                // same mark and tally for the ops that follow to find.
                let got = if now.is_multiple_of(2) {
                    cache.get(&key(*k), now)
                } else {
                    cache.get_shared(&key(*k), now).map(|body| body.to_string())
                };
                assert_eq!(got, want, "get({k}) at {now}");
            }
            Op::Put(k) => {
                puts += 1;
                cache.put(key(*k), format!("body{k}/{puts}"), now);
                model.put(*k, puts, now);
            }
            Op::Invalidate(ks) => {
                let keys: Vec<PageKey> = ks.iter().map(|k| key(*k)).collect();
                let mut got: Vec<u8> = cache
                    .invalidate_collect(keys.iter())
                    .iter()
                    .map(unkey)
                    .collect();
                let mut want = model.drop_where(|e| ks.contains(&e.key));
                got.sort_unstable();
                want.sort_unstable();
                assert_eq!(got, want, "ejected by {op:?}");
            }
            Op::EvictSince(back) => {
                let cutoff = now.saturating_sub(*back);
                let got = cache.evict_admitted_since(cutoff);
                let want = model.drop_where(|e| e.inserted_at >= cutoff);
                assert_eq!(got, want.len(), "flushed since {cutoff}");
            }
            Op::Clear => {
                let want = model.drop_where(|_| true);
                assert_eq!(cache.clear(), want.len());
            }
            Op::Idle(dt) => now += dt,
        }
        // `sieve_queue` itself asserts that the queue, the key map and the
        // slab agree: every resident page linked exactly once, every other
        // slot on the free list.
        let (queue, hand) = cache.sieve_queue();
        let queue: Vec<(u8, bool)> = queue.iter().map(|(k, v)| (unkey(k), *v)).collect();
        let want: Vec<(u8, bool)> = model.queue.iter().map(|e| (e.key, e.visited)).collect();
        assert_eq!(queue, want, "queue after {op:?} at {now}");
        assert_eq!(hand, model.hand, "hand after {op:?} at {now}");
        assert_eq!(cache.len(), queue.len());
        assert!(cache.len() <= capacity);
        for e in &model.queue {
            assert_eq!(cache.admitted_at(&key(e.key)), Some(e.inserted_at));
        }
        let mut resident: Vec<u8> = cache.keys().iter().map(unkey).collect();
        resident.sort_unstable();
        let mut want: Vec<u8> = queue.iter().map(|(k, _)| *k).collect();
        want.sort_unstable();
        assert_eq!(resident, want, "resident set after {op:?}");
        assert_eq!(cache.stats(), model.stats, "counters after {op:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn matches_naive_sieve(
        ops in prop::collection::vec(op_strategy(), 1..160),
        capacity in 0usize..8,
    ) {
        run_against_model(capacity, None, ops);
    }

    #[test]
    fn matches_naive_sieve_with_ttl(
        ops in prop::collection::vec(op_strategy(), 1..160),
        capacity in 1usize..8,
        ttl in 0u64..60,
    ) {
        run_against_model(capacity, Some(ttl), ops);
    }
}

fn get_or_put(cache: &PageCache, k: &PageKey, now: u64) {
    if cache.get(k, now).is_none() {
        cache.put(k.clone(), "body", now);
    }
}

/// `portal_load`'s `cold_churn` request law on the cache alone: Zipf 0.8
/// over 4300 pages at capacity 1024, warmed least-popular-first. LRU serves
/// 0.593 of this stream and the best fixed set of 1024 pages 0.701.
#[test]
fn zipf_stream_hit_ratio_is_pinned() {
    const PAGES: usize = 4300;
    let keys: Vec<PageKey> = (0..PAGES)
        .map(|rank| PageKey::raw(format!("shop/product?g:sku={rank}")))
        .collect();
    let mut cdf: Vec<f64> = Vec::with_capacity(PAGES);
    let mut acc = 0.0;
    for rank in 1..=PAGES {
        acc += (rank as f64).powf(-0.8);
        cdf.push(acc);
    }
    let cache = PageCache::new(PageCacheConfig::default());
    for k in keys.iter().rev() {
        cache.put(k.clone(), "body", 0);
    }
    let mut rng = StdRng::seed_from_u64(1);
    for now in 0..500_000 {
        let u = rng.gen::<f64>() * acc;
        let rank = cdf.partition_point(|&c| c <= u).min(PAGES - 1);
        get_or_put(&cache, &keys[rank], now);
    }
    let s = cache.stats();
    assert_eq!((s.hits, s.lookups()), (335_964, 500_000));
    assert!(s.hit_ratio() >= 0.66, "{}", s.hit_ratio());
}

/// One pass over four times the capacity in pages nobody asks for again
/// leaves a hot set that was asked for twice where it was.
#[test]
fn a_scan_does_not_evict_a_visited_hot_set() {
    let cache = PageCache::new(PageCacheConfig {
        capacity: 256,
        ttl_micros: None,
    });
    let hot: Vec<PageKey> = (0..64).map(|i| PageKey::raw(format!("hot{i}"))).collect();
    let filler: Vec<PageKey> = (0..192).map(|i| PageKey::raw(format!("warm{i}"))).collect();
    for k in hot.iter().chain(&filler) {
        get_or_put(&cache, k, 0);
    }
    for k in &hot {
        get_or_put(&cache, k, 1);
    }
    for i in 0..4 * 256 {
        get_or_put(&cache, &PageKey::raw(format!("cold{i}")), 2);
    }
    assert_eq!(cache.stats().evictions, 4 * 256);
    assert!(hot.iter().all(|k| cache.contains(k)));
    // Under LRU the scan would have flushed the hot set four times over.
    for k in &hot {
        assert!(cache.get(k, 3).is_some());
    }
}
