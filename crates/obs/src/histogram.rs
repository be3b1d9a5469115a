//! Lock-free log-bucketed latency histogram.
//!
//! Values (typically microseconds) are binned into base-2 buckets with
//! [`SUB`] linear sub-buckets per octave, giving a worst-case relative
//! quantile error of `1/SUB` (12.5%) while keeping `record` a handful of
//! atomic operations — cheap enough to sit on the request path.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-bucket resolution: 2^SUB_BITS linear bins per power of two.
const SUB_BITS: u32 = 3;
const SUB: u64 = 1 << SUB_BITS;
/// Enough buckets to cover the full u64 range: (64 - SUB_BITS) octaves of
/// SUB buckets plus the exact low range.
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) << SUB_BITS;

/// Concurrent histogram; all methods take `&self`.
pub struct Histogram {
    buckets: Box<[AtomicU64; BUCKETS]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        // Box<[AtomicU64; N]> without a large stack temporary.
        let buckets: Box<[AtomicU64]> = (0..BUCKETS).map(|_| AtomicU64::new(0)).collect();
        let buckets = buckets.try_into().unwrap_or_else(|_| unreachable!());
        Histogram {
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Record one observation.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Exact maximum observation (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Exact minimum observation (0 when empty).
    pub fn min(&self) -> u64 {
        let m = self.min.load(Ordering::Relaxed);
        if m == u64::MAX {
            0
        } else {
            m
        }
    }

    /// Mean observation (0.0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// Approximate quantile (`q` in `[0, 1]`): the representative value of
    /// the bucket containing the q-th ranked observation, clamped to the
    /// exact observed min/max. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        if q >= 1.0 {
            return self.max();
        }
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= target {
                return representative(i).clamp(self.min(), self.max());
            }
        }
        self.max()
    }

    /// One-shot consistent-enough summary for reporting. Individual loads
    /// are relaxed, so a summary taken during concurrent writes may be off
    /// by in-flight records — fine for observability.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            min: self.min(),
            max: self.max(),
            mean: self.mean(),
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
        }
    }
}

/// Point-in-time summary of a [`Histogram`], as every document shows one.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    pub mean: f64,
    pub p50: u64,
    pub p95: u64,
    pub p99: u64,
}

/// Bucket index for a value: exact below [`SUB`], then `SUB` linear
/// sub-buckets per power of two.
fn bucket_index(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let top = 63 - v.leading_zeros(); // floor(log2 v) >= SUB_BITS
    let octave = (top - SUB_BITS + 1) as usize;
    let sub = ((v >> (top - SUB_BITS)) & (SUB - 1)) as usize;
    (octave << SUB_BITS) + sub
}

/// Midpoint of bucket `i`'s value range.
fn representative(i: usize) -> u64 {
    if i < SUB as usize {
        return i as u64;
    }
    let octave = (i >> SUB_BITS) as u32; // >= 1
    let sub = (i as u64) & (SUB - 1);
    let width = 1u64 << (octave - 1);
    let lower = (SUB + sub) << (octave - 1);
    lower + width / 2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_contiguous_and_monotone() {
        let mut prev = 0usize;
        // Exhaustive over the low range, then sampled octave boundaries.
        for v in 0..4096u64 {
            let i = bucket_index(v);
            assert!(i == prev || i == prev + 1, "gap at v={v}: {prev} -> {i}");
            prev = i;
        }
        for shift in 12..63u32 {
            let v = 1u64 << shift;
            assert!(bucket_index(v) > bucket_index(v - 1));
            assert!(bucket_index(v) < BUCKETS);
        }
        assert!(bucket_index(u64::MAX) < BUCKETS);
    }

    #[test]
    fn representative_lies_in_its_bucket() {
        for v in [0u64, 1, 7, 8, 100, 1_000, 123_456, 1 << 40] {
            let i = bucket_index(v);
            let r = representative(i);
            assert_eq!(bucket_index(r), i, "representative of bucket({v}) escaped");
        }
    }

    #[test]
    fn exact_below_sub() {
        let h = Histogram::new();
        for v in 0..8u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 7);
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), 7);
    }

    #[test]
    fn quantiles_within_relative_error() {
        let h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        for (q, exact) in [(0.50, 5_000u64), (0.95, 9_500), (0.99, 9_900)] {
            let got = h.quantile(q) as f64;
            let err = (got - exact as f64).abs() / exact as f64;
            assert!(err <= 1.0 / SUB as f64 + 1e-9, "q={q}: got {got}, want ~{exact}");
        }
        assert_eq!(h.quantile(1.0), 10_000);
        assert_eq!(h.mean(), 5_000.5);
    }

    #[test]
    fn quantiles_accurate_under_concurrent_writers() {
        use std::sync::Arc;
        let h = Arc::new(Histogram::new());
        let threads = 8u64;
        let per_thread = 10_000u64;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let h = h.clone();
                std::thread::spawn(move || {
                    // Each thread writes the full 1..=per_thread range, so
                    // the combined distribution equals the single-writer one
                    // and every quantile has a known exact answer.
                    for v in 1..=per_thread {
                        h.record(v.wrapping_mul(2654435761).wrapping_add(t) % per_thread + 1);
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        // No lost updates: count and max are exact despite racing writers.
        assert_eq!(h.count(), threads * per_thread);
        assert_eq!(h.max(), per_thread);
        assert_eq!(h.min(), 1);
        // The values written are a (mixed) permutation-ish resampling of
        // 1..=per_thread, uniform enough that quantiles must land within
        // the documented 1/SUB relative error plus a small sampling slack.
        for (q, expect) in [(0.50, 5_000f64), (0.95, 9_500.0), (0.99, 9_900.0)] {
            let got = h.quantile(q) as f64;
            let err = (got - expect).abs() / expect;
            assert!(
                err <= 1.0 / SUB as f64 + 0.05,
                "q={q}: got {got}, want ~{expect}"
            );
        }
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = Histogram::new();
        let s = h.snapshot();
        assert_eq!(
            s,
            HistogramSnapshot {
                count: 0,
                sum: 0,
                min: 0,
                max: 0,
                mean: 0.0,
                p50: 0,
                p95: 0,
                p99: 0
            }
        );
    }
}
