//! Named metric registry: counters, gauges, and latency histograms.
//!
//! Instruments obtain `Arc` handles once (registration takes a write lock)
//! and then update them with plain atomic operations; the registry itself is
//! only locked again to take snapshots. Metric names are dotted paths such
//! as `cache.page.hits` or `invalidator.polls.issued`.

use crate::histogram::{Histogram, HistogramSnapshot};
use crate::stripe::Striped;
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// Monotone event counter, striped per thread: an increment writes the
/// calling thread's own cache line, and a read sums the stripes.
#[derive(Default)]
pub struct Counter(Striped<AtomicU64>);

impl Counter {
    /// Add 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.mine().fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Overwrite with a cumulative total maintained elsewhere. For metrics
    /// integrated from component-owned stats structs at sync points, which
    /// are never incremented.
    pub fn set_total(&self, total: u64) {
        for (i, c) in self.0.iter().enumerate() {
            c.store(if i == 0 { total } else { 0 }, Ordering::Relaxed);
        }
    }
}

/// Instantaneous signed level (pool sizes, queue depths).
#[derive(Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Overwrite the level.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adjust the level by `delta`.
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Every instrument's value by name: the metrics section of a snapshot or
/// flight bundle. The maps are sorted, so artifacts (results/*.json) are
/// byte-stable across runs regardless of registration order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsDoc {
    /// Counter totals.
    pub counters: BTreeMap<String, u64>,
    /// Gauge levels.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram summaries; a stable document has no such key.
    #[serde(skip_if = "self.histograms.is_none()")]
    pub histograms: Option<BTreeMap<String, HistogramSnapshot>>,
}

impl MetricsDoc {
    /// Strip what carries wall-clock time: every histogram (each records
    /// measured durations) and any counter or gauge whose name contains
    /// `micros` (e.g. `web.pool.wait_micros`).
    pub fn stabilize(&mut self) {
        self.histograms = None;
        self.counters.retain(|name, _| !name.contains("micros"));
        self.gauges.retain(|name, _| !name.contains("micros"));
    }
}

/// Registry of named instruments. Cheap to share (`Arc` internally); cloning
/// handles out of it is the intended usage pattern.
#[derive(Default)]
pub struct MetricsRegistry {
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the counter `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        if let Some(c) = self.counters.read().get(name) {
            return c.clone();
        }
        self.counters
            .write()
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Get or create the gauge `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        if let Some(g) = self.gauges.read().get(name) {
            return g.clone();
        }
        self.gauges
            .write()
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Get or create the histogram `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        if let Some(h) = self.histograms.read().get(name) {
            return h.clone();
        }
        self.histograms
            .write()
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(Histogram::new()))
            .clone()
    }

    /// Convenience: read a counter's current value (0 if absent).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.counters.read().get(name).map_or(0, |c| c.get())
    }

    /// Convenience: read a gauge's current value (0 if absent).
    pub fn gauge_value(&self, name: &str) -> i64 {
        self.gauges.read().get(name).map_or(0, |g| g.get())
    }

    /// Snapshot every instrument.
    pub fn snapshot(&self) -> MetricsDoc {
        MetricsDoc {
            counters: self.counters.read().iter().map(|(k, v)| (k.clone(), v.get())).collect(),
            gauges: self.gauges.read().iter().map(|(k, v)| (k.clone(), v.get())).collect(),
            histograms: Some(
                self.histograms.read().iter().map(|(k, v)| (k.clone(), v.snapshot())).collect(),
            ),
        }
    }

    /// Render every instrument in Prometheus text exposition format
    /// (version 0.0.4), sorted by metric name for stable output.
    ///
    /// Dotted registry names map to `cacheportal_<name with non-alphanumeric
    /// characters as '_'>`; counters additionally get the conventional
    /// `_total` suffix, and histograms are rendered as summaries with
    /// `quantile` labels plus `_sum`/`_count` series.
    pub fn render_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();

        let mut counters: Vec<(String, u64)> = self
            .counters
            .read()
            .iter()
            .map(|(k, v)| (prometheus_name(k), v.get()))
            .collect();
        counters.sort();
        for (name, v) in counters {
            let _ = writeln!(out, "# TYPE {name}_total counter\n{name}_total {v}");
        }

        let mut gauges: Vec<(String, i64)> = self
            .gauges
            .read()
            .iter()
            .map(|(k, v)| (prometheus_name(k), v.get()))
            .collect();
        gauges.sort();
        for (name, v) in gauges {
            let _ = writeln!(out, "# TYPE {name} gauge\n{name} {v}");
        }

        let mut summaries: Vec<(String, HistogramSnapshot)> = self
            .histograms
            .read()
            .iter()
            .map(|(k, v)| (prometheus_name(k), v.snapshot()))
            .collect();
        summaries.sort_by(|a, b| a.0.cmp(&b.0));
        for (name, s) in summaries {
            let _ = writeln!(out, "# TYPE {name} summary");
            for (q, v) in [("0.5", s.p50), ("0.95", s.p95), ("0.99", s.p99)] {
                let _ = writeln!(out, "{name}{{quantile=\"{q}\"}} {v}");
            }
            let _ = writeln!(out, "{name}_sum {}\n{name}_count {}", s.sum, s.count);
        }
        out
    }
}

/// `cache.page.hits` → `cacheportal_cache_page_hits`.
pub fn prometheus_name(dotted: &str) -> String {
    let mut name = String::with_capacity(dotted.len() + 12);
    name.push_str("cacheportal_");
    for c in dotted.chars() {
        if c.is_ascii_alphanumeric() {
            name.push(c);
        } else {
            name.push('_');
        }
    }
    name
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_shared() {
        let r = MetricsRegistry::new();
        let a = r.counter("x.hits");
        let b = r.counter("x.hits");
        a.inc();
        b.add(2);
        assert_eq!(r.counter_value("x.hits"), 3);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn gauge_levels() {
        let r = MetricsRegistry::new();
        let g = r.gauge("pool.size");
        g.set(5);
        g.add(-2);
        assert_eq!(r.gauge_value("pool.size"), 3);
    }

    #[test]
    fn prometheus_rendering_is_sorted_and_well_formed() {
        let r = MetricsRegistry::new();
        // Register deliberately out of order; output must be sorted.
        r.counter("web.requests").add(3);
        r.counter("cache.page.hits").add(7);
        r.gauge("db.log.pending").set(-2);
        r.histogram("invalidator.sync.micros").record(100);
        r.histogram("invalidator.sync.micros").record(200);
        let text = r.render_prometheus();

        let hits = text.find("cacheportal_cache_page_hits_total 7").unwrap();
        let reqs = text.find("cacheportal_web_requests_total 3").unwrap();
        assert!(hits < reqs, "counters not sorted:\n{text}");
        assert!(text.contains("# TYPE cacheportal_cache_page_hits_total counter"));
        assert!(text.contains("# TYPE cacheportal_db_log_pending gauge"));
        assert!(text.contains("cacheportal_db_log_pending -2"));
        assert!(text.contains("# TYPE cacheportal_invalidator_sync_micros summary"));
        assert!(text.contains("cacheportal_invalidator_sync_micros{quantile=\"0.5\"}"));
        assert!(text.contains("cacheportal_invalidator_sync_micros_sum 300"));
        assert!(text.contains("cacheportal_invalidator_sync_micros_count 2"));

        // Every non-comment line is `name[{labels}] value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (name, value) = line.rsplit_once(' ').expect("name value");
            assert!(name.starts_with("cacheportal_"), "bad name in {line}");
            assert!(value.parse::<f64>().is_ok(), "bad value in {line}");
        }
    }

    #[test]
    fn snapshot_and_exposition_are_deterministic_across_registration_order() {
        let build = |names: &[&str]| {
            let r = MetricsRegistry::new();
            for (i, n) in names.iter().enumerate() {
                r.counter(n).add(i as u64 + 1);
            }
            // Same values regardless of registration order.
            for (i, n) in names.iter().enumerate() {
                r.counter(n).set_total(10 + i as u64);
            }
            r
        };
        let a = build(&["z.last", "a.first", "m.mid"]);
        let b = build(&["m.mid", "z.last", "a.first"]);
        // set_total indexed by iteration order differs; normalize values.
        for n in ["z.last", "a.first", "m.mid"] {
            a.counter(n).set_total(5);
            b.counter(n).set_total(5);
        }
        assert_eq!(
            serde_json::to_string(&a.snapshot()).unwrap(),
            serde_json::to_string(&b.snapshot()).unwrap()
        );
        assert_eq!(a.render_prometheus(), b.render_prometheus());
    }

    #[test]
    fn snapshot_shape() {
        let r = MetricsRegistry::new();
        r.counter("a").inc();
        r.gauge("b").set(-1);
        r.histogram("c").record(10);
        r.counter("wait_micros").inc();
        let mut s = r.snapshot();
        assert_eq!(s.counters["a"], 1);
        assert_eq!(s.gauges["b"], -1);
        assert_eq!(s.histograms.as_ref().unwrap()["c"].count, 1);
        // Round-trips through JSON text, with and without the wall clock.
        let text = serde_json::to_string(&s).unwrap();
        assert_eq!(serde_json::from_str::<MetricsDoc>(&text).unwrap(), s);
        s.stabilize();
        let text = serde_json::to_string(&s).unwrap();
        assert_eq!(text, r#"{"counters":{"a":1},"gauges":{"b":-1}}"#);
        assert_eq!(serde_json::from_str::<MetricsDoc>(&text).unwrap(), s);
    }
}
