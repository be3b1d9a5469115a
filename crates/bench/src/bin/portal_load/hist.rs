//! Fixed-resolution latency histogram and the reporting rules built on it.
//!
//! Latencies are recorded in nanoseconds into log-linear buckets (128 per
//! power of two, so a bucket is at most 0.8% wide); memory is fixed however
//! many samples a run produces. Quantiles interpolate inside the bucket that
//! holds the rank, so a reported value moves with the counts instead of
//! snapping to a bucket edge.

/// Sub-buckets per power of two, as a bit count.
const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
/// Bucket count covering the whole `u64` range.
const BUCKETS: usize = ((64 - SUB_BITS + 1) as usize) << SUB_BITS;

/// A reported percentile needs this many samples beyond it.
pub const MIN_BEYOND: u64 = 10;

/// Log-linear histogram of nanosecond values.
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u32>,
    total: u64,
    sum: u128,
}

fn bucket_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let shift = 63 - v.leading_zeros() - SUB_BITS;
    (((shift + 1) as usize) << SUB_BITS) + ((v >> shift) - SUB) as usize
}

/// Lowest value of bucket `idx` and the bucket's width.
fn bucket_bounds(idx: usize) -> (u64, u64) {
    if idx < SUB as usize {
        return (idx as u64, 1);
    }
    let shift = (idx >> SUB_BITS) as u32 - 1;
    ((SUB + (idx as u64 & (SUB - 1))) << shift, 1 << shift)
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; BUCKETS],
            total: 0,
            sum: 0,
        }
    }
}

impl Hist {
    /// Record one value.
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket_of(ns)] += 1;
        self.total += 1;
        self.sum += ns as u128;
    }

    /// Add every sample of `other`.
    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Exact mean, `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.total > 0).then(|| self.sum as f64 / self.total as f64)
    }

    /// Samples recorded above `limit_ns` (to bucket resolution).
    pub fn count_above(&self, limit_ns: u64) -> u64 {
        self.counts[bucket_of(limit_ns) + 1..]
            .iter()
            .map(|&c| c as u64)
            .sum()
    }

    /// The `q`-quantile (`0 < q <= 1`), whatever the sample count; `None`
    /// when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let rank = (q * self.total as f64).clamp(1.0, self.total as f64);
        let mut before = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            let c = c as u64;
            if c > 0 && (before + c) as f64 >= rank {
                let (low, width) = bucket_bounds(idx);
                return Some(low as f64 + width as f64 * (rank - before as f64) / c as f64);
            }
            before += c;
        }
        unreachable!("rank {rank} is at most the total {}", self.total)
    }

    /// The `q`-quantile, but only when at least [`MIN_BEYOND`] samples lie
    /// beyond it: a tail read off fewer samples is noise, so a workload that
    /// cannot supply them does not report the metric.
    pub fn quantile_checked(&self, q: f64) -> Option<f64> {
        let beyond = self.total - (q * self.total as f64).ceil() as u64;
        if beyond >= MIN_BEYOND {
            self.quantile(q)
        } else {
            None
        }
    }
}

/// Upper median of a non-empty list.
pub fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

/// Median of the per-slice values (mean of the middle two for an even
/// count). Slices that could not supply a value are skipped; `None` when
/// fewer than three remain, so one odd slice can never become the result.
pub fn median_of_slices(values: &[Option<f64>]) -> Option<f64> {
    let mut v: Vec<f64> = values.iter().flatten().copied().collect();
    if v.len() < 3.min(values.len()) || v.is_empty() {
        return None;
    }
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::site::Rng;

    #[test]
    fn buckets_tile_the_range_without_gaps() {
        let mut next = 0u64;
        for idx in 0..BUCKETS - 1 {
            let (low, width) = bucket_bounds(idx);
            assert_eq!(low, next, "bucket {idx}");
            assert_eq!(bucket_of(low), idx);
            assert_eq!(bucket_of(low + width - 1), idx);
            next = low + width;
        }
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_match_a_sorted_vector_within_bucket_resolution() {
        let mut rng = Rng::new(11, 0);
        let mut h = Hist::default();
        let mut all: Vec<u64> = (0..20_000)
            .map(|i| {
                // Hits around a microsecond with a millisecond-scale tail.
                let v = if i % 50 == 0 {
                    400_000 + rng.below(600_000)
                } else {
                    700 + rng.below(900)
                };
                h.record(v);
                v
            })
            .collect();
        all.sort_unstable();
        for q in [0.5, 0.9, 0.95, 0.99, 0.999] {
            let oracle = all[(q * all.len() as f64).ceil() as usize - 1] as f64;
            let got = h.quantile(q).unwrap();
            assert!(
                (got - oracle).abs() <= oracle * 0.01,
                "q={q}: {got} vs {oracle}"
            );
        }
        let exact_mean = all.iter().sum::<u64>() as f64 / all.len() as f64;
        assert_eq!(h.mean().unwrap(), exact_mean);
        let above = all.iter().filter(|&&v| v > 500_000).count() as f64;
        assert!((h.count_above(500_000) as f64 - above).abs() <= above * 0.02);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        let mut h = Hist::default();
        for v in 1..=199u64 {
            h.record(v * 1000);
        }
        // 199 samples: p95 leaves 9 beyond, p50 leaves 99.
        assert!(h.quantile_checked(0.95).is_none());
        assert!(h.quantile_checked(0.5).is_some());
        h.record(200_000);
        // 200 samples: p95 leaves exactly 10.
        assert!(h.quantile_checked(0.95).is_some());
        assert!(h.quantile_checked(0.99).is_none());
        assert!(Hist::default().quantile_checked(0.5).is_none());
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let (mut a, mut b, mut both) = (Hist::default(), Hist::default(), Hist::default());
        for v in 0..5000u64 {
            let x = v * v % 77_777;
            if v.is_multiple_of(2) {
                a.record(x)
            } else {
                b.record(x)
            }
            both.record(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), both.count());
        assert_eq!(a.quantile(0.9), both.quantile(0.9));
        assert_eq!(a.mean(), both.mean());
    }

    #[test]
    fn median_of_slices_skips_missing_and_resists_one_outlier() {
        assert_eq!(
            median_of_slices(&[Some(1.0), Some(9.0), Some(2.0), Some(3.0), Some(2.5)]),
            Some(2.5)
        );
        assert_eq!(
            median_of_slices(&[Some(1.0), None, Some(2.0), Some(4.0), Some(3.0)]),
            Some(2.5)
        );
        assert_eq!(
            median_of_slices(&[Some(1.0), None, None, None, Some(3.0)]),
            None
        );
        assert_eq!(median_of_slices(&[None; 5]), None);
        assert_eq!(median_of_slices(&[Some(4.0)]), Some(4.0));
    }
}
