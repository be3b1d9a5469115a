//! The dynamic web-page cache (paper Configuration III's front cache).
//!
//! Keys are canonical [`PageKey`]s; values are page bodies. The cache
//! honours `Cache-Control: eject`-style invalidation messages
//! ([`PageCache::invalidate`]) sent by the invalidator, supports optional
//! TTL expiry (the Oracle9i time-based-refresh baseline the paper argues
//! against), and evicts with SIEVE (Zhang et al., NSDI '24): a page asked
//! for twice outlives any number of pages asked for once.

use crate::stats::CacheStats;
use cacheportal_obs::{Counter, Gauge, MetricsRegistry};
use cacheportal_web::clock::Micros;
use cacheportal_web::PageKey;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Cache configuration.
#[derive(Debug, Clone)]
pub struct PageCacheConfig {
    /// Maximum number of pages (the paper's `cache_size` parameter). With 0
    /// nothing is admitted: every `put` is turned away as an eviction.
    pub capacity: usize,
    /// Optional time-to-live; entries older than this are treated as
    /// expired on lookup. `None` disables TTL (CachePortal mode: freshness
    /// comes from invalidation, not expiry).
    pub ttl_micros: Option<Micros>,
}

impl Default for PageCacheConfig {
    fn default() -> Self {
        PageCacheConfig {
            capacity: 1024,
            ttl_micros: None,
        }
    }
}

/// "No slot": past either end of the queue.
const NIL: u32 = u32::MAX;

/// One cached page, in a slot of [`Inner::slab`].
#[derive(Debug)]
struct Node {
    /// The one copy of the key's text; `Inner::map` holds the other handle.
    key: PageKey,
    /// A handle on the rendered body: the response that was admitted, every
    /// mirrored edge and every hit in flight hold the same allocation.
    body: Arc<str>,
    inserted_at: Micros,
    /// Neighbours in the queue: admitted after and before this page.
    newer: u32,
    older: u32,
    /// Hit since admission, or since the hand last passed. A statistic of
    /// the page alone (it publishes nothing), so hits set it `Relaxed` under
    /// the shared lock.
    visited: AtomicBool,
}

/// A web page cache.
///
/// Pages queue in admission order and a hit only marks its page visited; it
/// moves nothing. Under capacity pressure a hand walks the queue from the
/// oldest page towards the newest, un-marking the visited pages it passes
/// and evicting the first unvisited one; it resumes where it stopped, and
/// wraps from the newest page to the oldest. `now` drives only TTL expiry
/// and [`PageCache::admitted_at`] / [`PageCache::evict_admitted_since`].
///
/// ```
/// use cacheportal_cache::{PageCache, PageCacheConfig};
/// use cacheportal_web::PageKey;
///
/// let cache = PageCache::new(PageCacheConfig::default());
/// let key = PageKey::raw("shop/page?g:id=7");
/// cache.put(key.clone(), "<html>…</html>", 0);
/// assert!(cache.get_shared(&key, 1).is_some());
///
/// // The invalidator's eject message:
/// cache.invalidate([&key]);
/// assert!(cache.get(&key, 2).is_none());
/// ```
pub struct PageCache {
    /// Hits read under the shared lock: concurrent readers take their
    /// handles on a body in parallel. Whatever adds, removes or rewrites a
    /// page takes it exclusively.
    inner: RwLock<Inner>,
    config: PageCacheConfig,
}

/// The counters behind [`CacheStats`] and the resident-page gauge. Private
/// handles until [`PageCache::wire_metrics`] swaps in a registry's, so
/// `/metrics`, `metrics_snapshot()` and [`PageCache::stats`] read the same
/// atomics.
#[derive(Default)]
struct Tallies {
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    insertions: Arc<Counter>,
    evictions: Arc<Counter>,
    invalidations: Arc<Counter>,
    expirations: Arc<Counter>,
    resident: Arc<Gauge>,
}

/// The pages and their queue. Pages live in `slab` (a vacated slot is
/// `None`) and `map` finds a page's slot; an index-linked list threads the
/// slots from `head` (newest) to `tail` (oldest).
struct Inner {
    map: HashMap<PageKey, u32>,
    slab: Vec<Option<Node>>,
    /// Vacated slots, reused before `slab` grows.
    free: Vec<u32>,
    head: u32,
    tail: u32,
    /// The page the next eviction looks at first; `NIL` stands for `tail`.
    hand: u32,
    tallies: Tallies,
}

impl Inner {
    fn node(&self, slot: u32) -> &Node {
        self.slab[slot as usize]
            .as_ref()
            .expect("a mapped or queued slot holds a page")
    }

    fn node_mut(&mut self, slot: u32) -> &mut Node {
        self.slab[slot as usize]
            .as_mut()
            .expect("a mapped or queued slot holds a page")
    }

    /// Queue `slot` as the newest page.
    fn attach(&mut self, slot: u32) {
        let head = self.head;
        let n = self.node_mut(slot);
        (n.newer, n.older) = (NIL, head);
        match head {
            NIL => self.tail = slot,
            h => self.node_mut(h).newer = slot,
        }
        self.head = slot;
    }

    /// Drop the page in `slot` and hand back its key; the caller takes the
    /// key out of `map`. A hand resting on the page moves on to the next
    /// newer one.
    fn vacate(&mut self, slot: u32) -> PageKey {
        let gone = self.slab[slot as usize].take();
        let gone = gone.expect("a mapped or queued slot holds a page");
        if self.hand == slot {
            self.hand = gone.newer;
        }
        match gone.newer {
            NIL => self.head = gone.older,
            n => self.node_mut(n).older = gone.older,
        }
        match gone.older {
            NIL => self.tail = gone.newer,
            o => self.node_mut(o).newer = gone.newer,
        }
        self.free.push(slot);
        gone.key
    }

    fn remove(&mut self, key: &PageKey) -> bool {
        match self.map.remove(key) {
            Some(slot) => {
                self.vacate(slot);
                true
            }
            None => false,
        }
    }

    /// Make room for one page; the queue is not empty. The hand passes at
    /// most every page once before it meets one it has un-marked.
    fn evict(&mut self) {
        let mut slot = self.hand;
        loop {
            if slot == NIL {
                slot = self.tail;
            }
            let n = self.node_mut(slot);
            if !std::mem::take(n.visited.get_mut()) {
                break;
            }
            slot = n.newer;
        }
        self.hand = slot;
        let doomed = self.vacate(slot);
        self.map.remove(&doomed);
        self.tallies.evictions.inc();
    }

    fn publish_resident(&self) {
        self.tallies.resident.set(self.map.len() as i64);
    }

    fn note_invalidated(&self, n: usize) {
        if n > 0 {
            self.tallies.invalidations.add(n as u64);
            self.publish_resident();
        }
    }
}

impl PageCache {
    /// Create a cache with the given configuration.
    pub fn new(config: PageCacheConfig) -> Self {
        let prealloc = config.capacity.min(4096);
        PageCache {
            inner: RwLock::new(Inner {
                map: HashMap::with_capacity(prealloc),
                slab: Vec::with_capacity(prealloc),
                free: Vec::new(),
                head: NIL,
                tail: NIL,
                hand: NIL,
                tallies: Tallies::default(),
            }),
            config,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &PageCacheConfig {
        &self.config
    }

    /// Keep this cache's [`CacheStats`] in `registry`, under
    /// `<prefix>.{hits,misses,insertions,evictions,invalidations,expirations}`
    /// counters and a `<prefix>.resident` gauge. The totals so far carry
    /// over; from this point on the registry's counters are the ones the
    /// cache counts in, so metric snapshots and the Prometheus endpoint agree
    /// with [`PageCache::stats`] at all times. One cache per prefix.
    pub fn wire_metrics(&self, registry: &MetricsRegistry, prefix: &str) {
        let counter = |name: &str, so_far: &Counter| {
            let c = registry.counter(&format!("{prefix}.{name}"));
            c.set_total(so_far.get());
            c
        };
        let mut inner = self.inner.write();
        let t = &inner.tallies;
        let wired = Tallies {
            hits: counter("hits", &t.hits),
            misses: counter("misses", &t.misses),
            insertions: counter("insertions", &t.insertions),
            evictions: counter("evictions", &t.evictions),
            invalidations: counter("invalidations", &t.invalidations),
            expirations: counter("expirations", &t.expirations),
            resident: registry.gauge(&format!("{prefix}.resident")),
        };
        inner.tallies = wired;
        inner.publish_resident();
    }

    fn expired(&self, page: &Node, now: Micros) -> bool {
        self.config
            .ttl_micros
            .is_some_and(|ttl| now.saturating_sub(page.inserted_at) > ttl)
    }

    /// Look up a page and copy its body out. The copy is made under the
    /// shared lock and touches nothing that readers of the page share, the
    /// body's reference count included.
    pub fn get(&self, key: &PageKey, now: Micros) -> Option<String> {
        self.hit(key, now, |body| String::from(&**body))
    }

    /// Look up a page and take a handle on its body: no copy, and the
    /// caller keeps the bytes alive even if the page is ejected meanwhile.
    pub fn get_shared(&self, key: &PageKey, now: Micros) -> Option<Arc<str>> {
        self.hit(key, now, Arc::clone)
    }

    /// The one lookup. `now` drives TTL expiry; a hit marks the page
    /// visited, shows `found` the cached body and changes nothing else.
    fn hit<R>(&self, key: &PageKey, now: Micros, found: impl FnOnce(&Arc<str>) -> R) -> Option<R> {
        {
            let inner = self.inner.read();
            let Some(&slot) = inner.map.get(key) else {
                inner.tallies.misses.inc();
                return None;
            };
            let page = inner.node(slot);
            if !self.expired(page, now) {
                // A hot page's bit is already set: leave its cache line
                // shared between the readers.
                if !page.visited.load(Ordering::Relaxed) {
                    page.visited.store(true, Ordering::Relaxed);
                }
                inner.tallies.hits.inc();
                return Some(found(&page.body));
            }
            inner.tallies.misses.inc();
        }
        self.expire(key, now);
        None
    }

    /// The body of a live page as the freshness oracle reads it: a read
    /// that is not a request, so the page is not marked visited and no hit
    /// or miss is counted. An expired page is expired as a lookup expires
    /// it.
    pub fn peek(&self, key: &PageKey, now: Micros) -> Option<Arc<str>> {
        {
            let inner = self.inner.read();
            let page = inner.node(*inner.map.get(key)?);
            if !self.expired(page, now) {
                return Some(Arc::clone(&page.body));
            }
        }
        self.expire(key, now);
        None
    }

    /// A read found `key` expired (a lookup counts that as its miss; `peek`
    /// counts nothing): the page goes only if it is still expired, whatever
    /// a concurrent `put` did to the key between the two locks.
    fn expire(&self, key: &PageKey, now: Micros) {
        let mut inner = self.inner.write();
        let still = inner.map.get(key).copied();
        if still.is_some_and(|slot| self.expired(inner.node(slot), now)) {
            inner.remove(key);
            inner.tallies.expirations.inc();
            inner.publish_resident();
        }
    }

    /// Insert a page as the newest, evicting one if at capacity, or
    /// overwrite a cached page's body and admission time in place: it keeps
    /// its place in the queue and its visited mark. A body that already is
    /// an `Arc<str>` is stored as that handle; a `String` is copied once.
    pub fn put(&self, key: PageKey, body: impl Into<Arc<str>>, now: Micros) {
        let body = body.into();
        let mut guard = self.inner.write();
        let inner = &mut *guard;
        if let Some(&slot) = inner.map.get(&key) {
            let page = inner.node_mut(slot);
            (page.body, page.inserted_at) = (body, now);
        } else if self.config.capacity == 0 {
            inner.tallies.evictions.inc();
            return;
        } else {
            if inner.map.len() >= self.config.capacity {
                inner.evict();
            }
            let node = Some(Node {
                key: key.clone(),
                body,
                inserted_at: now,
                newer: NIL,
                older: NIL,
                visited: AtomicBool::new(false),
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
            inner.attach(slot);
            inner.publish_resident();
        }
        inner.tallies.insertions.inc();
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
        let mut inner = self.inner.write();
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
        let mut inner = self.inner.write();
        let n = inner.map.len();
        inner.map.clear();
        inner.slab.clear();
        inner.free.clear();
        (inner.head, inner.tail, inner.hand) = (NIL, NIL, NIL);
        inner.note_invalidated(n);
        n
    }

    /// Conservatively drop every page admitted at or after `cutoff_micros`.
    /// A rebooted edge calls this with its last acked bus watermark's
    /// timestamp: any page admitted past that point may have missed an
    /// eject while the edge was down, so it is flushed (over-invalidation,
    /// never staleness). Returns how many pages were dropped.
    pub fn evict_admitted_since(&self, cutoff_micros: Micros) -> usize {
        let mut guard = self.inner.write();
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
        self.inner.read().map.contains_key(key)
    }

    /// When the cached page was admitted (no stats side effects, no TTL
    /// check); `None` when the page is not cached. The invalidator's
    /// value-preserving shortcuts consult this to tell pages generated
    /// before the sync interval (safe to keep) from pages generated
    /// mid-interval (which may reflect a transient state the interval's
    /// endpoint comparison cannot see).
    pub fn admitted_at(&self, key: &PageKey) -> Option<Micros> {
        let inner = self.inner.read();
        inner
            .map
            .get(key)
            .map(|&slot| inner.node(slot).inserted_at)
    }

    /// Number of cached pages.
    pub fn len(&self) -> usize {
        self.inner.read().map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All currently cached keys (freshness-oracle support).
    pub fn keys(&self) -> Vec<PageKey> {
        self.inner.read().map.keys().cloned().collect()
    }

    /// Test support for `tests/cache_model.rs`, not part of the API: the
    /// queue from the oldest page to the newest with each page's visited
    /// mark, and the hand's index into it (0 when the queue is empty).
    /// Panics if the queue, the slab and the key map disagree about which
    /// pages are resident.
    #[doc(hidden)]
    pub fn sieve_queue(&self) -> (Vec<(PageKey, bool)>, usize) {
        let inner = self.inner.read();
        let slots: Vec<u32> =
            std::iter::successors((inner.tail != NIL).then_some(inner.tail), |&s| {
                let newer = inner.node(s).newer;
                (newer != NIL).then_some(newer)
            })
            .take(inner.slab.len() + 1)
            .collect();
        assert_eq!(slots.len(), inner.map.len(), "queued vs resident pages");
        assert_eq!(
            inner.slab.len(),
            inner.map.len() + inner.free.len(),
            "every slot is either resident or free"
        );
        assert_eq!(slots.last().copied().unwrap_or(NIL), inner.head, "head");
        let hand = match inner.hand {
            NIL => 0,
            h => slots.iter().position(|&s| s == h).expect("hand is queued"),
        };
        let queue = slots
            .into_iter()
            .map(|slot| {
                let n = inner.node(slot);
                assert_eq!(inner.map.get(&n.key), Some(&slot), "slot of {}", n.key);
                (n.key.clone(), n.visited.load(Ordering::Relaxed))
            })
            .collect();
        (queue, hand)
    }

    /// Hit/miss/eviction/invalidation counters.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.read();
        let t = &inner.tallies;
        CacheStats {
            hits: t.hits.get(),
            misses: t.misses.get(),
            insertions: t.insertions.get(),
            evictions: t.evictions.get(),
            invalidations: t.invalidations.get(),
            expirations: t.expirations.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(s: &str) -> PageKey {
        PageKey::raw(s)
    }

    fn cache(capacity: usize) -> PageCache {
        PageCache::new(PageCacheConfig {
            capacity,
            ttl_micros: None,
        })
    }

    #[test]
    fn hit_and_miss_accounting() {
        let c = cache(4);
        assert_eq!(c.get(&key("a"), 0), None);
        c.put(key("a"), "body", 1);
        assert_eq!(c.get(&key("a"), 2), Some("body".into()));
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert!((s.hit_ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn evicts_the_oldest_page_never_hit() {
        let c = cache(3);
        for (now, k) in ["a", "b", "c"].into_iter().enumerate() {
            c.put(key(k), k, now as Micros);
        }
        c.get(&key("a"), 3);
        c.put(key("d"), "d", 4); // passes a (un-marks it), evicts b
        assert!(c.contains(&key("a")) && !c.contains(&key("b")));
        c.put(key("e"), "e", 5); // the hand rests on c: evicts it
        assert!(c.contains(&key("a")) && !c.contains(&key("c")));
        c.get(&key("d"), 6);
        c.get(&key("e"), 7);
        c.put(key("f"), "f", 8); // passes d and e, wraps to a
        assert!(!c.contains(&key("a")));
        let unmarked = [key("d"), key("e"), key("f")].map(|k| (k, false));
        assert_eq!(c.sieve_queue(), (unmarked.to_vec(), 0));
        assert_eq!(c.stats().evictions, 3);
    }

    #[test]
    fn overwrite_keeps_place_and_mark_and_does_not_evict() {
        let c = cache(2);
        c.put(key("a"), "1", 0);
        c.put(key("b"), "2", 1);
        c.get(&key("a"), 2);
        c.put(key("a"), "1b", 3);
        assert_eq!(c.len(), 2);
        assert_eq!(c.admitted_at(&key("a")), Some(3));
        assert_eq!(c.stats().evictions, 0);
        assert_eq!(
            c.sieve_queue().0,
            vec![(key("a"), true), (key("b"), false)],
            "a is still the oldest, still marked"
        );
        assert_eq!(c.get(&key("a"), 4), Some("1b".into()));
    }

    #[test]
    fn every_removal_moves_the_hand_off_the_page() {
        let c = PageCache::new(PageCacheConfig {
            capacity: 4,
            ttl_micros: Some(100),
        });
        for (now, k) in ["a", "b", "c", "d"].into_iter().enumerate() {
            c.put(key(k), k, now as Micros);
        }
        c.get(&key("a"), 4);
        c.put(key("e"), "e", 5); // evicts b: the hand rests on c
        assert_eq!(c.sieve_queue().1, 1);
        c.invalidate([&key("c")]); // on to d
        assert_eq!(
            c.sieve_queue(),
            (
                vec![(key("a"), false), (key("d"), false), (key("e"), false)],
                1
            )
        );
        assert_eq!(c.get(&key("d"), 200), None, "expired"); // on to e
        assert_eq!(c.sieve_queue().1, 1);
        assert_eq!(c.evict_admitted_since(5), 1); // e was the newest: wraps
        assert_eq!(c.sieve_queue(), (vec![(key("a"), false)], 0));
        c.put(key("f"), "f", 201);
        assert_eq!(c.clear(), 2);
        assert_eq!(c.sieve_queue(), (vec![], 0));
    }

    #[test]
    fn ttl_expires_entries() {
        let c = PageCache::new(PageCacheConfig {
            capacity: 4,
            ttl_micros: Some(100),
        });
        c.put(key("a"), "1", 0);
        assert_eq!(c.get(&key("a"), 50), Some("1".into()));
        assert_eq!(c.get(&key("a"), 200), None, "expired");
        assert_eq!((c.stats().misses, c.stats().expirations), (1, 1), "a lookup's miss");
    }

    #[test]
    fn peek_reads_without_marking_or_counting() {
        let c = PageCache::new(PageCacheConfig {
            capacity: 4,
            ttl_micros: Some(100),
        });
        c.put(key("a"), "1", 0);
        assert_eq!(c.peek(&key("a"), 50).as_deref(), Some("1"));
        assert_eq!(c.sieve_queue(), (vec![(key("a"), false)], 0), "not visited");
        assert_eq!((c.stats().hits, c.stats().misses), (0, 0));
        assert_eq!(c.peek(&key("zz"), 50), None);
        // An expired page goes as a lookup would take it.
        assert_eq!(c.peek(&key("a"), 200), None);
        assert!(!c.contains(&key("a")));
        assert_eq!((c.stats().misses, c.stats().expirations), (0, 1));
    }

    #[test]
    fn invalidate_removes_exactly_named_keys() {
        let c = cache(8);
        for k in ["a", "b", "c"] {
            c.put(key(k), k, 0);
        }
        let removed = c.invalidate([&key("a"), &key("c"), &key("zz")]);
        assert_eq!(removed, 2);
        assert!(!c.contains(&key("a")));
        assert!(c.contains(&key("b")));
        assert_eq!(c.stats().invalidations, 2);
    }

    #[test]
    fn invalidate_collect_names_resident_keys_only() {
        let c = cache(8);
        for k in ["a", "b"] {
            c.put(key(k), k, 0);
        }
        let removed = c.invalidate_collect([&key("a"), &key("zz")]);
        assert_eq!(removed, vec![key("a")]);
        assert_eq!(c.stats().invalidations, 1);
    }

    #[test]
    fn wired_metrics_track_cache_stats_exactly() {
        let c = cache(2);
        let registry = MetricsRegistry::new();
        c.put(key("pre"), "x", 0); // before wiring: carried over
        c.wire_metrics(&registry, "cache.page");
        assert_eq!(registry.counter_value("cache.page.insertions"), 1);
        assert_eq!(registry.gauge_value("cache.page.resident"), 1);

        c.get(&key("pre"), 1); // hit
        c.get(&key("nope"), 2); // miss
        c.put(key("b"), "2", 3);
        c.put(key("c"), "3", 4); // evicts one
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
        assert_eq!((s.hits, s.misses, s.evictions), (1, 1, 1));
        assert_eq!(registry.gauge_value("cache.page.resident"), c.len() as i64);
    }

    #[test]
    fn clear_counts_invalidations() {
        let c = cache(8);
        c.put(key("a"), "1", 0);
        c.put(key("b"), "2", 0);
        assert_eq!(c.clear(), 2);
        assert!(c.is_empty());
    }

    #[test]
    fn evict_admitted_since_flushes_only_newer_pages() {
        let c = cache(8);
        c.put(key("old"), "1", 10);
        c.put(key("boundary"), "2", 20);
        c.put(key("new"), "3", 30);
        assert_eq!(c.evict_admitted_since(20), 2, "boundary is inclusive");
        assert!(c.contains(&key("old")));
        assert!(!c.contains(&key("boundary")));
        assert!(!c.contains(&key("new")));
        assert_eq!(c.stats().invalidations, 2);
    }

    #[test]
    fn capacity_never_exceeded() {
        for capacity in [0, 1, 3] {
            let c = cache(capacity);
            for i in 0..50 {
                c.put(key(&format!("k{i}")), "x", i);
                assert!(c.len() <= capacity, "capacity {capacity}");
            }
            let s = c.stats();
            // A cache of nothing admits nothing: every put is turned away.
            let admitted = if capacity == 0 { 0 } else { 50 };
            assert_eq!(
                (s.insertions, s.evictions),
                (admitted, 50 - capacity as u64)
            );
        }
    }
}
