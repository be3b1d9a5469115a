//! Cache statistics.

/// Counters kept by the page cache.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries stored (new pages and overwrites).
    pub insertions: u64,
    /// Entries removed by capacity pressure, or turned away by a capacity
    /// of 0.
    pub evictions: u64,
    /// Entries removed by invalidation messages.
    pub invalidations: u64,
    /// Entries removed by TTL expiry.
    pub expirations: u64,
}

impl CacheStats {
    /// Hit ratio over all lookups so far (0 when no lookups).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Total lookups (hits + misses).
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_handles_zero() {
        assert_eq!(CacheStats::default().hit_ratio(), 0.0);
        let s = CacheStats {
            hits: 7,
            misses: 3,
            ..Default::default()
        };
        assert!((s.hit_ratio() - 0.7).abs() < 1e-12);
        assert_eq!(s.lookups(), 10);
    }
}
