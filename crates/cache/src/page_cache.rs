//! The dynamic web-page cache (paper Configuration III's front cache).
//!
//! Keys are canonical [`PageKey`]s; values are page bodies. The cache
//! honours `Cache-Control: eject`-style invalidation messages
//! ([`PageCache::invalidate`]) sent by the invalidator, supports optional
//! TTL expiry (the Oracle9i time-based-refresh baseline the paper argues
//! against), and offers LRU / LFU / FIFO eviction.

use crate::stats::CacheStats;
use cacheportal_obs::{Counter, Gauge, MetricsRegistry};
use cacheportal_web::clock::Micros;
use cacheportal_web::PageKey;
use parking_lot::Mutex;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// Eviction policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictionPolicy {
    /// Least recently used.
    Lru,
    /// Least frequently used (ties broken by recency).
    Lfu,
    /// First in, first out (insertion order, refreshed on overwrite).
    Fifo,
}

/// Cache configuration.
#[derive(Debug, Clone)]
pub struct PageCacheConfig {
    /// Maximum number of pages (the paper's `cache_size` parameter).
    pub capacity: usize,
    /// Eviction policy.
    pub policy: EvictionPolicy,
    /// Optional time-to-live; entries older than this are treated as
    /// expired on lookup. `None` disables TTL (CachePortal mode: freshness
    /// comes from invalidation, not expiry).
    pub ttl_micros: Option<Micros>,
}

impl Default for PageCacheConfig {
    fn default() -> Self {
        PageCacheConfig {
            capacity: 1024,
            policy: EvictionPolicy::Lru,
            ttl_micros: None,
        }
    }
}

/// "No slot": end of the eviction list.
const NIL: u32 = u32::MAX;

/// One cached page, in a slot of [`Inner::slab`].
#[derive(Debug)]
struct Node {
    /// The one copy of the key's text; `Inner::map` holds the other handle.
    key: Arc<str>,
    body: String,
    inserted_at: Micros,
    /// Neighbours in the eviction list (LRU, FIFO).
    prev: u32,
    next: u32,
    /// Rank in the eviction set (LFU): hits since the last `put`, then the
    /// call (`Inner::calls`) of the last `put` or hit.
    uses: u64,
    used_at: u64,
}

/// A web page cache.
///
/// Recency is the order of the calls, not of their `now` arguments. The
/// victim is the one a scan for the least `now` picks only while `now`
/// strictly increases from call to call. Calls that pass an equal `now` (a
/// microsecond clock repeats itself under load) or an older one are still
/// ranked in the order they were made, where such a scan would have broken
/// the tie by insertion order. `now` itself drives only TTL expiry and
/// [`PageCache::admitted_at`] / [`PageCache::evict_admitted_since`].
///
/// ```
/// use cacheportal_cache::{PageCache, PageCacheConfig};
/// use cacheportal_web::PageKey;
///
/// let cache = PageCache::new(PageCacheConfig::default());
/// let key = PageKey::raw("shop/page?g:id=7");
/// cache.put(key.clone(), "<html>…</html>".into(), 0);
/// assert!(cache.get(&key, 1).is_some());
///
/// // The invalidator's eject message:
/// cache.invalidate([&key]);
/// assert!(cache.get(&key, 2).is_none());
/// ```
pub struct PageCache {
    inner: Mutex<Inner>,
    config: PageCacheConfig,
}

/// Registry handles mirroring [`CacheStats`], updated at the same mutation
/// sites so `/metrics` and `metrics_snapshot()` always agree with
/// [`PageCache::stats`].
struct WiredMetrics {
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    insertions: Arc<Counter>,
    evictions: Arc<Counter>,
    invalidations: Arc<Counter>,
    expirations: Arc<Counter>,
    resident: Arc<Gauge>,
}

/// The pages and their eviction order. Pages live in `slab` (a vacated slot
/// is `None`); `map` finds a page's slot, and the order structure names the
/// next victim without looking at the others: LRU and FIFO thread an
/// index-linked list through the slots (`head` is the victim; a hit under
/// LRU, and every `put`, moves the slot to `tail`), LFU keeps an ordered set
/// of `(uses, used_at, slot)`.
struct Inner {
    policy: EvictionPolicy,
    map: HashMap<Arc<str>, u32>,
    slab: Vec<Option<Node>>,
    /// Vacated slots, reused before `slab` grows.
    free: Vec<u32>,
    head: u32,
    tail: u32,
    lfu: BTreeSet<(u64, u64, u32)>,
    /// Calls that ranked a page so far (`Node::used_at`).
    calls: u64,
    stats: CacheStats,
    wired: Option<WiredMetrics>,
}

impl Inner {
    fn node(&self, slot: u32) -> &Node {
        self.slab[slot as usize]
            .as_ref()
            .expect("a mapped or ordered slot holds a page")
    }

    fn node_mut(&mut self, slot: u32) -> &mut Node {
        self.slab[slot as usize]
            .as_mut()
            .expect("a mapped or ordered slot holds a page")
    }

    /// Put `slot` in the eviction order as the most recent page.
    fn attach(&mut self, slot: u32) {
        self.calls += 1;
        if self.policy == EvictionPolicy::Lfu {
            let used_at = self.calls;
            let n = self.node_mut(slot);
            (n.uses, n.used_at) = (0, used_at);
            self.lfu.insert((0, used_at, slot));
            return;
        }
        let tail = self.tail;
        let n = self.node_mut(slot);
        (n.prev, n.next) = (tail, NIL);
        match tail {
            NIL => self.head = slot,
            t => self.node_mut(t).next = slot,
        }
        self.tail = slot;
    }

    /// Take `slot` out of the eviction order.
    fn detach(&mut self, slot: u32) {
        let n = self.node(slot);
        if self.policy == EvictionPolicy::Lfu {
            let rank = (n.uses, n.used_at, slot);
            self.lfu.remove(&rank);
            return;
        }
        let (prev, next) = (n.prev, n.next);
        match prev {
            NIL => self.head = next,
            p => self.node_mut(p).next = next,
        }
        match next {
            NIL => self.tail = prev,
            x => self.node_mut(x).prev = prev,
        }
    }

    /// A hit on `slot`.
    fn touch(&mut self, slot: u32) {
        match self.policy {
            EvictionPolicy::Fifo => {}
            EvictionPolicy::Lru => {
                if self.tail != slot {
                    self.detach(slot);
                    self.attach(slot);
                }
            }
            EvictionPolicy::Lfu => {
                self.detach(slot);
                self.calls += 1;
                let used_at = self.calls;
                let n = self.node_mut(slot);
                (n.uses, n.used_at) = (n.uses + 1, used_at);
                let rank = (n.uses, used_at, slot);
                self.lfu.insert(rank);
            }
        }
    }

    /// The page capacity pressure evicts next.
    fn victim(&self) -> Option<u32> {
        match self.policy {
            EvictionPolicy::Lfu => self.lfu.first().map(|&(_, _, slot)| slot),
            _ => (self.head != NIL).then_some(self.head),
        }
    }

    /// Drop the page in `slot` and hand back its key; the caller takes the
    /// key out of `map`.
    fn vacate(&mut self, slot: u32) -> Arc<str> {
        self.detach(slot);
        self.free.push(slot);
        let gone = self.slab[slot as usize].take();
        gone.expect("a mapped or ordered slot holds a page").key
    }

    fn remove(&mut self, key: &PageKey) -> bool {
        match self.map.remove(key.as_str()) {
            Some(slot) => {
                self.vacate(slot);
                true
            }
            None => false,
        }
    }

    fn note_miss(&mut self) {
        self.stats.misses += 1;
        if let Some(w) = &self.wired {
            w.misses.set_total(self.stats.misses);
        }
    }

    fn publish_resident(&self) {
        if let Some(w) = &self.wired {
            w.resident.set(self.map.len() as i64);
        }
    }

    fn note_invalidated(&mut self, n: usize) {
        if n == 0 {
            return;
        }
        self.stats.invalidations += n as u64;
        if let Some(w) = &self.wired {
            w.invalidations.set_total(self.stats.invalidations);
        }
        self.publish_resident();
    }
}

impl PageCache {
    /// Create a cache with the given configuration.
    pub fn new(config: PageCacheConfig) -> Self {
        let prealloc = config.capacity.min(4096);
        PageCache {
            inner: Mutex::new(Inner {
                policy: config.policy,
                map: HashMap::with_capacity(prealloc),
                slab: Vec::with_capacity(prealloc),
                free: Vec::new(),
                head: NIL,
                tail: NIL,
                lfu: BTreeSet::new(),
                calls: 0,
                stats: CacheStats::default(),
                wired: None,
            }),
            config,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &PageCacheConfig {
        &self.config
    }

    /// Mirror this cache's [`CacheStats`] into `registry` under
    /// `<prefix>.{hits,misses,insertions,evictions,invalidations,expirations}`
    /// counters and a `<prefix>.resident` gauge. From this point on every
    /// stats mutation also updates the registry, so metric snapshots and the
    /// Prometheus endpoint agree with [`PageCache::stats`] at all times.
    pub fn wire_metrics(&self, registry: &MetricsRegistry, prefix: &str) {
        let wired = WiredMetrics {
            hits: registry.counter(&format!("{prefix}.hits")),
            misses: registry.counter(&format!("{prefix}.misses")),
            insertions: registry.counter(&format!("{prefix}.insertions")),
            evictions: registry.counter(&format!("{prefix}.evictions")),
            invalidations: registry.counter(&format!("{prefix}.invalidations")),
            expirations: registry.counter(&format!("{prefix}.expirations")),
            resident: registry.gauge(&format!("{prefix}.resident")),
        };
        let mut inner = self.inner.lock();
        // Seed every handle once; afterwards each operation stores only the
        // totals it moved.
        let s = inner.stats;
        wired.hits.set_total(s.hits);
        wired.misses.set_total(s.misses);
        wired.insertions.set_total(s.insertions);
        wired.evictions.set_total(s.evictions);
        wired.invalidations.set_total(s.invalidations);
        wired.expirations.set_total(s.expirations);
        inner.wired = Some(wired);
        inner.publish_resident();
    }

    /// Look up a page. `now` drives TTL expiry; the call itself is the use
    /// that recency and frequency record.
    pub fn get(&self, key: &PageKey, now: Micros) -> Option<String> {
        let mut inner = self.inner.lock();
        let Some(&slot) = inner.map.get(key.as_str()) else {
            inner.note_miss();
            return None;
        };
        let inserted_at = inner.node(slot).inserted_at;
        if self
            .config
            .ttl_micros
            .is_some_and(|ttl| now.saturating_sub(inserted_at) > ttl)
        {
            inner.remove(key);
            inner.stats.expirations += 1;
            if let Some(w) = &inner.wired {
                w.expirations.set_total(inner.stats.expirations);
            }
            inner.publish_resident();
            inner.note_miss();
            return None;
        }
        inner.touch(slot);
        inner.stats.hits += 1;
        if let Some(w) = &inner.wired {
            w.hits.set_total(inner.stats.hits);
        }
        Some(inner.node(slot).body.clone())
    }

    /// Insert (or overwrite) a page, evicting per policy if at capacity.
    pub fn put(&self, key: PageKey, body: String, now: Micros) {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        let slot = match inner.map.get(key.as_str()) {
            // Overwriting replaces the whole entry: it re-enters the order
            // as a new page.
            Some(&slot) => {
                inner.detach(slot);
                let n = inner.node_mut(slot);
                (n.body, n.inserted_at) = (body, now);
                slot
            }
            None => {
                if inner.map.len() >= self.config.capacity {
                    if let Some(victim) = inner.victim() {
                        let doomed = inner.vacate(victim);
                        inner.map.remove(&doomed);
                        inner.stats.evictions += 1;
                        if let Some(w) = &inner.wired {
                            w.evictions.set_total(inner.stats.evictions);
                        }
                    }
                }
                let key: Arc<str> = key.as_str().into();
                let node = Some(Node {
                    key: key.clone(),
                    body,
                    inserted_at: now,
                    prev: NIL,
                    next: NIL,
                    uses: 0,
                    used_at: 0,
                });
                let slot = match inner.free.pop() {
                    Some(slot) => {
                        inner.slab[slot as usize] = node;
                        slot
                    }
                    None => {
                        let slot = u32::try_from(inner.slab.len())
                            .ok()
                            .filter(|&s| s != NIL)
                            .expect("a page cache holds fewer than 2^32 - 1 pages");
                        inner.slab.push(node);
                        slot
                    }
                };
                inner.map.insert(key, slot);
                inner.publish_resident();
                slot
            }
        };
        inner.attach(slot);
        inner.stats.insertions += 1;
        if let Some(w) = &inner.wired {
            w.insertions.set_total(inner.stats.insertions);
        }
    }

    /// Process an invalidation (eject) message: remove the named pages.
    /// Returns how many were actually present.
    pub fn invalidate<'a>(&self, keys: impl IntoIterator<Item = &'a PageKey>) -> usize {
        self.invalidate_collect(keys).len()
    }

    /// Like [`PageCache::invalidate`], but returns the keys that were
    /// actually resident (the provenance log records which named pages the
    /// eject really removed vs. merely mentioned).
    pub fn invalidate_collect<'a>(
        &self,
        keys: impl IntoIterator<Item = &'a PageKey>,
    ) -> Vec<PageKey> {
        let mut inner = self.inner.lock();
        let mut removed = Vec::new();
        for k in keys {
            if inner.remove(k) {
                removed.push(k.clone());
            }
        }
        inner.note_invalidated(removed.len());
        removed
    }

    /// Drop everything (used by the coarse `TableLevel` policy fallback).
    pub fn clear(&self) -> usize {
        let mut inner = self.inner.lock();
        let n = inner.map.len();
        inner.map.clear();
        inner.slab.clear();
        inner.free.clear();
        inner.lfu.clear();
        (inner.head, inner.tail) = (NIL, NIL);
        inner.note_invalidated(n);
        n
    }

    /// Conservatively drop every page admitted at or after `cutoff_micros`.
    /// A rebooted edge calls this with its last acked bus watermark's
    /// timestamp: any page admitted past that point may have missed an
    /// eject while the edge was down, so it is flushed (over-invalidation,
    /// never staleness). Returns how many pages were dropped.
    pub fn evict_admitted_since(&self, cutoff_micros: Micros) -> usize {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        let slab = &inner.slab;
        let doomed: Vec<u32> = inner
            .map
            .extract_if(|_, slot| {
                slab[*slot as usize]
                    .as_ref()
                    .is_some_and(|n| n.inserted_at >= cutoff_micros)
            })
            .map(|(_, slot)| slot)
            .collect();
        for &slot in &doomed {
            inner.vacate(slot);
        }
        inner.note_invalidated(doomed.len());
        doomed.len()
    }

    /// Is the page currently cached (no stats side effects, no TTL check)?
    pub fn contains(&self, key: &PageKey) -> bool {
        self.inner.lock().map.contains_key(key.as_str())
    }

    /// When the cached page was admitted (no stats side effects, no TTL
    /// check); `None` when the page is not cached. The invalidator's
    /// value-preserving shortcuts consult this to tell pages generated
    /// before the sync interval (safe to keep) from pages generated
    /// mid-interval (which may reflect a transient state the interval's
    /// endpoint comparison cannot see).
    pub fn admitted_at(&self, key: &PageKey) -> Option<Micros> {
        let inner = self.inner.lock();
        inner
            .map
            .get(key.as_str())
            .map(|&slot| inner.node(slot).inserted_at)
    }

    /// Number of cached pages.
    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All currently cached keys (freshness-oracle support).
    pub fn keys(&self) -> Vec<PageKey> {
        self.inner
            .lock()
            .map
            .keys()
            .map(|k| PageKey::raw(&**k))
            .collect()
    }

    /// Test support for `tests/cache_model.rs`, not part of the API: cached
    /// keys in the order capacity pressure would evict them, next victim
    /// first. Panics if the order structure, the slab and the key map
    /// disagree about which pages are resident.
    #[doc(hidden)]
    pub fn eviction_order(&self) -> Vec<PageKey> {
        let inner = self.inner.lock();
        let slots: Vec<u32> = match inner.policy {
            EvictionPolicy::Lfu => inner.lfu.iter().map(|&(_, _, slot)| slot).collect(),
            _ => std::iter::successors((inner.head != NIL).then_some(inner.head), |&s| {
                let next = inner.node(s).next;
                (next != NIL).then_some(next)
            })
            .take(inner.slab.len() + 1)
            .collect(),
        };
        assert_eq!(
            slots.len(),
            inner.map.len(),
            "ordered pages vs resident pages"
        );
        assert_eq!(
            inner.slab.len(),
            inner.map.len() + inner.free.len(),
            "every slot is either resident or free"
        );
        slots
            .into_iter()
            .map(|slot| {
                let key = &inner.node(slot).key;
                assert_eq!(inner.map.get(key), Some(&slot), "slot of {key}");
                PageKey::raw(&**key)
            })
            .collect()
    }

    /// Hit/miss/eviction/invalidation counters.
    pub fn stats(&self) -> CacheStats {
        self.inner.lock().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(s: &str) -> PageKey {
        PageKey::raw(s)
    }

    fn cache(capacity: usize, policy: EvictionPolicy) -> PageCache {
        PageCache::new(PageCacheConfig {
            capacity,
            policy,
            ttl_micros: None,
        })
    }

    #[test]
    fn hit_and_miss_accounting() {
        let c = cache(4, EvictionPolicy::Lru);
        assert_eq!(c.get(&key("a"), 0), None);
        c.put(key("a"), "body".into(), 1);
        assert_eq!(c.get(&key("a"), 2), Some("body".into()));
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert!((s.hit_ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let c = cache(2, EvictionPolicy::Lru);
        c.put(key("a"), "1".into(), 0);
        c.put(key("b"), "2".into(), 1);
        c.get(&key("a"), 2); // a now most recent
        c.put(key("c"), "3".into(), 3); // evicts b
        assert!(c.contains(&key("a")));
        assert!(!c.contains(&key("b")));
        assert!(c.contains(&key("c")));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn lfu_evicts_least_frequent() {
        let c = cache(2, EvictionPolicy::Lfu);
        c.put(key("a"), "1".into(), 0);
        c.put(key("b"), "2".into(), 1);
        c.get(&key("a"), 2);
        c.get(&key("a"), 3);
        c.get(&key("b"), 4);
        c.put(key("c"), "3".into(), 5); // evicts b (1 use < 2 uses)
        assert!(c.contains(&key("a")));
        assert!(!c.contains(&key("b")));
    }

    #[test]
    fn fifo_evicts_oldest_insert() {
        let c = cache(2, EvictionPolicy::Fifo);
        c.put(key("a"), "1".into(), 0);
        c.put(key("b"), "2".into(), 1);
        c.get(&key("a"), 2); // recency must not matter
        c.put(key("c"), "3".into(), 3); // evicts a
        assert!(!c.contains(&key("a")));
        assert!(c.contains(&key("b")));
    }

    #[test]
    fn overwrite_does_not_evict() {
        let c = cache(2, EvictionPolicy::Lru);
        c.put(key("a"), "1".into(), 0);
        c.put(key("b"), "2".into(), 1);
        c.put(key("a"), "1b".into(), 2);
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(&key("a"), 3), Some("1b".into()));
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn ttl_expires_entries() {
        let c = PageCache::new(PageCacheConfig {
            capacity: 4,
            policy: EvictionPolicy::Lru,
            ttl_micros: Some(100),
        });
        c.put(key("a"), "1".into(), 0);
        assert_eq!(c.get(&key("a"), 50), Some("1".into()));
        assert_eq!(c.get(&key("a"), 200), None, "expired");
        assert_eq!(c.stats().expirations, 1);
    }

    #[test]
    fn invalidate_removes_exactly_named_keys() {
        let c = cache(8, EvictionPolicy::Lru);
        for k in ["a", "b", "c"] {
            c.put(key(k), k.into(), 0);
        }
        let removed = c.invalidate([&key("a"), &key("c"), &key("zz")]);
        assert_eq!(removed, 2);
        assert!(!c.contains(&key("a")));
        assert!(c.contains(&key("b")));
        assert_eq!(c.stats().invalidations, 2);
    }

    #[test]
    fn invalidate_collect_names_resident_keys_only() {
        let c = cache(8, EvictionPolicy::Lru);
        for k in ["a", "b"] {
            c.put(key(k), k.into(), 0);
        }
        let removed = c.invalidate_collect([&key("a"), &key("zz")]);
        assert_eq!(removed, vec![key("a")]);
        assert_eq!(c.stats().invalidations, 1);
    }

    #[test]
    fn wired_metrics_track_cache_stats_exactly() {
        let c = cache(2, EvictionPolicy::Lru);
        let registry = MetricsRegistry::new();
        c.put(key("pre"), "x".into(), 0); // before wiring: seeded at wire time
        c.wire_metrics(&registry, "cache.page");
        assert_eq!(registry.counter_value("cache.page.insertions"), 1);
        assert_eq!(registry.gauge_value("cache.page.resident"), 1);

        c.get(&key("pre"), 1); // hit
        c.get(&key("nope"), 2); // miss
        c.put(key("b"), "2".into(), 3);
        c.put(key("c"), "3".into(), 4); // evicts one
        c.invalidate([&key("c")]);

        let s = c.stats();
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
        assert_eq!(registry.gauge_value("cache.page.resident"), c.len() as i64);
    }

    #[test]
    fn clear_counts_invalidations() {
        let c = cache(8, EvictionPolicy::Lru);
        c.put(key("a"), "1".into(), 0);
        c.put(key("b"), "2".into(), 0);
        assert_eq!(c.clear(), 2);
        assert!(c.is_empty());
    }

    #[test]
    fn evict_admitted_since_flushes_only_newer_pages() {
        let c = cache(8, EvictionPolicy::Lru);
        c.put(key("old"), "1".into(), 10);
        c.put(key("boundary"), "2".into(), 20);
        c.put(key("new"), "3".into(), 30);
        assert_eq!(c.evict_admitted_since(20), 2, "boundary is inclusive");
        assert!(c.contains(&key("old")));
        assert!(!c.contains(&key("boundary")));
        assert!(!c.contains(&key("new")));
        assert_eq!(c.stats().invalidations, 2);
    }

    #[test]
    fn capacity_never_exceeded() {
        let c = cache(3, EvictionPolicy::Lru);
        for i in 0..50 {
            c.put(key(&format!("k{i}")), "x".into(), i);
            assert!(c.len() <= 3);
        }
    }
}
