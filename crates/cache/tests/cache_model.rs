//! Model-based property tests: under random interleavings of every
//! operation, the page cache must agree with the scan model — the
//! timestamp-ranked `min_by_key` over all entries that `PageCache` itself
//! ran before it kept its eviction order — for LRU, LFU and FIFO: same hits,
//! same resident set, same eviction order (hence same victim), same
//! counters, and an order structure that accounts for every slot.

use cacheportal_cache::{CacheStats, EvictionPolicy, PageCache, PageCacheConfig};
use cacheportal_web::PageKey;
use proptest::prelude::*;

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
    inserted_at: u64,
    last_used: u64,
    uses: u64,
    seq: u64,
}

/// The scan model: a flat list, the victim found by ranking every entry.
struct Model {
    capacity: usize,
    policy: EvictionPolicy,
    ttl: Option<u64>,
    entries: Vec<Entry>,
    seq: u64,
    stats: CacheStats,
}

impl Model {
    fn rank(&self, e: &Entry) -> (u64, u64, u64) {
        match self.policy {
            EvictionPolicy::Lru => (0, e.last_used, e.seq),
            EvictionPolicy::Lfu => (e.uses, e.last_used, e.seq),
            EvictionPolicy::Fifo => (0, 0, e.seq),
        }
    }

    fn get(&mut self, k: u8, now: u64) -> bool {
        let Some(i) = self.entries.iter().position(|e| e.key == k) else {
            self.stats.misses += 1;
            return false;
        };
        if self
            .ttl
            .is_some_and(|ttl| now.saturating_sub(self.entries[i].inserted_at) > ttl)
        {
            self.entries.remove(i);
            self.stats.expirations += 1;
            self.stats.misses += 1;
            return false;
        }
        self.entries[i].last_used = now;
        self.entries[i].uses += 1;
        self.stats.hits += 1;
        true
    }

    fn put(&mut self, k: u8, now: u64) {
        self.seq += 1;
        let fresh = Entry {
            key: k,
            inserted_at: now,
            last_used: now,
            uses: 0,
            seq: self.seq,
        };
        self.stats.insertions += 1;
        if let Some(e) = self.entries.iter_mut().find(|e| e.key == k) {
            *e = fresh;
            return;
        }
        if self.entries.len() >= self.capacity {
            if let Some(victim) =
                (0..self.entries.len()).min_by_key(|&i| self.rank(&self.entries[i]))
            {
                self.entries.remove(victim);
                self.stats.evictions += 1;
            }
        }
        self.entries.push(fresh);
    }

    fn drop_where(&mut self, doomed: impl Fn(&Entry) -> bool) -> Vec<u8> {
        let gone: Vec<u8> = self
            .entries
            .iter()
            .filter(|e| doomed(e))
            .map(|e| e.key)
            .collect();
        self.entries.retain(|e| !doomed(e));
        self.stats.invalidations += gone.len() as u64;
        gone
    }

    fn eviction_order(&self) -> Vec<u8> {
        let mut sorted = self.entries.clone();
        sorted.sort_by_key(|e| self.rank(e));
        sorted.iter().map(|e| e.key).collect()
    }
}

fn key(k: u8) -> PageKey {
    PageKey::raw(format!("k{k}"))
}

fn unkey(k: &PageKey) -> u8 {
    k.as_str()[1..].parse().unwrap()
}

/// `now` strictly increases from call to call: only then are call order and
/// timestamp order the same order (the scan breaks ties by insertion, the
/// cache by call).
fn run_against_model(policy: EvictionPolicy, capacity: usize, ttl: Option<u64>, ops: Vec<Op>) {
    let cache = PageCache::new(PageCacheConfig {
        capacity,
        policy,
        ttl_micros: ttl,
    });
    let mut model = Model {
        capacity,
        policy,
        ttl,
        entries: Vec::new(),
        seq: 0,
        stats: CacheStats::default(),
    };
    let mut now = 0u64;
    for op in ops {
        now += 1;
        match &op {
            Op::Get(k) => {
                let got = cache.get(&key(*k), now);
                assert_eq!(got.is_some(), model.get(*k, now), "get({k}) at {now}");
                if let Some(body) = got {
                    assert_eq!(body, format!("body{k}"));
                }
            }
            Op::Put(k) => {
                cache.put(key(*k), format!("body{k}"), now);
                model.put(*k, now);
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
        // `eviction_order` itself asserts that the order structure, the key
        // map and the slab agree: every resident page linked exactly once,
        // every other slot on the free list.
        let order: Vec<u8> = cache.eviction_order().iter().map(unkey).collect();
        assert_eq!(
            order,
            model.eviction_order(),
            "eviction order after {op:?} at {now}"
        );
        assert_eq!(cache.len(), order.len());
        assert!(cache.len() <= capacity.max(1));
        let mut resident: Vec<u8> = cache.keys().iter().map(unkey).collect();
        resident.sort_unstable();
        let mut want = order;
        want.sort_unstable();
        assert_eq!(resident, want, "resident set after {op:?}");
        assert_eq!(cache.stats(), model.stats, "counters after {op:?}");
    }
}

fn policy_strategy() -> impl Strategy<Value = EvictionPolicy> {
    prop::sample::select(vec![
        EvictionPolicy::Lru,
        EvictionPolicy::Lfu,
        EvictionPolicy::Fifo,
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn matches_scan_model(
        policy in policy_strategy(),
        ops in prop::collection::vec(op_strategy(), 1..160),
        capacity in 0usize..8,
    ) {
        run_against_model(policy, capacity, None, ops);
    }

    #[test]
    fn matches_scan_model_with_ttl(
        policy in policy_strategy(),
        ops in prop::collection::vec(op_strategy(), 1..160),
        capacity in 1usize..8,
        ttl in 0u64..60,
    ) {
        run_against_model(policy, capacity, Some(ttl), ops);
    }
}

/// Recency is the order of the calls. A caller whose `now` goes backwards —
/// the load benchmark's correctness gate reads pages with `get(key, 0)` —
/// still makes the page it read the most recently used one; a scan for the
/// least timestamp would have made it the next victim.
#[test]
fn recency_is_call_order_when_now_goes_backwards() {
    for policy in [EvictionPolicy::Lru, EvictionPolicy::Lfu] {
        let cache = PageCache::new(PageCacheConfig {
            capacity: 2,
            policy,
            ttl_micros: None,
        });
        cache.put(key(1), "a".into(), 10);
        cache.put(key(2), "b".into(), 20);
        if policy == EvictionPolicy::Lfu {
            // Equal use counts, so recency alone decides.
            assert!(cache.get(&key(2), 21).is_some());
        }
        assert!(cache.get(&key(1), 0).is_some());
        assert_eq!(cache.eviction_order(), vec![key(2), key(1)], "{policy:?}");
        cache.put(key(3), "c".into(), 5);
        assert!(
            cache.contains(&key(1)) && !cache.contains(&key(2)),
            "{policy:?}"
        );
        // Equal timestamps: still call order.
        assert!(cache.get(&key(1), 5).is_some());
        assert_eq!(cache.eviction_order(), vec![key(3), key(1)], "{policy:?}");
    }
}
