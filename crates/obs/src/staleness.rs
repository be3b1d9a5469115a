//! Staleness-window probe.
//!
//! CachePortal ejects stale pages asynchronously: a mutation commits at some
//! logical time, and only at the next sync point does the invalidator map it
//! to cached pages and eject them. The window between *commit* and *eject*
//! is exactly the interval during which the cache may serve stale content —
//! the paper's freshness argument is about keeping this window short.
//!
//! The probe stamps each committed mutation's LSN with the logical clock at
//! commit time. When a sync point consumes the update log up to some LSN and
//! ejects pages, the probe records one observation per ejected page: the age
//! (`now - commit_ts`) of the **oldest** mutation in the consumed batch,
//! i.e. the worst-case time that page could have been stale.

use crate::histogram::{Histogram, HistogramSnapshot};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Log sequence number (mirrors `cacheportal_db::Lsn` without depending on
/// the db crate).
pub type Lsn = u64;

/// The staleness section of a snapshot or flight bundle.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StalenessDoc {
    /// Committed mutations no sync point has consumed yet.
    pub pending_mutations: u64,
    /// The commit→eject window per ejected page, logical micros.
    pub commit_to_eject_micros: HistogramSnapshot,
}

/// Tracks commit timestamps per LSN and the commit→eject latency histogram.
#[derive(Default)]
pub struct StalenessProbe {
    /// Commit timestamp (logical micros) for each not-yet-consumed LSN.
    pending: Mutex<BTreeMap<Lsn, u64>>,
    /// Commit→eject latency per ejected page, logical micros.
    window: Histogram,
}

impl StalenessProbe {
    /// An empty probe.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record that the mutation with `lsn` committed at logical time `ts`.
    pub fn stamp(&self, lsn: Lsn, ts: u64) {
        self.pending.lock().insert(lsn, ts);
    }

    /// A sync point consumed the log through `consumed_lsn` (inclusive) at
    /// logical time `now`, ejecting `ejected_pages` pages. Records one
    /// worst-case staleness observation per ejected page and drains the
    /// consumed stamps. Returns the observed window (micros) if any
    /// mutation was consumed.
    pub fn on_sync_point(&self, consumed_lsn: Lsn, now: u64, ejected_pages: usize) -> Option<u64> {
        let mut pending = self.pending.lock();
        let mut oldest: Option<u64> = None;
        // BTreeMap keys are sorted; split off the consumed prefix.
        let still_pending = pending.split_off(&(consumed_lsn + 1));
        for ts in pending.values() {
            oldest = Some(oldest.map_or(*ts, |o: u64| o.min(*ts)));
        }
        *pending = still_pending;
        drop(pending);

        let window = oldest.map(|ts| now.saturating_sub(ts));
        if let Some(w) = window {
            // One observation per ejected page; a sync point that ejects
            // nothing still closes the window for the consumed mutations,
            // so record it once to keep "no cached page affected" visible
            // in the distribution.
            for _ in 0..ejected_pages.max(1) {
                self.window.record(w);
            }
        }
        window
    }

    /// Number of committed mutations not yet consumed by a sync point.
    pub fn pending_len(&self) -> usize {
        self.pending.lock().len()
    }

    /// Snapshot of the commit→eject latency distribution.
    pub fn window_snapshot(&self) -> HistogramSnapshot {
        self.window.snapshot()
    }

    /// The probe's section of a snapshot.
    pub fn doc(&self) -> StalenessDoc {
        StalenessDoc {
            pending_mutations: self.pending_len() as u64,
            commit_to_eject_micros: self.window_snapshot(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_uses_oldest_consumed_commit() {
        let p = StalenessProbe::new();
        p.stamp(1, 100);
        p.stamp(2, 250);
        p.stamp(3, 400); // not consumed below
        let w = p.on_sync_point(2, 1_000, 3);
        assert_eq!(w, Some(900)); // 1000 - 100 (oldest consumed)
        assert_eq!(p.pending_len(), 1); // lsn 3 survives
        let s = p.window_snapshot();
        assert_eq!(s.count, 3); // one observation per ejected page
        assert_eq!(s.max, 900);
    }

    #[test]
    fn sync_with_no_ejections_still_closes_window() {
        let p = StalenessProbe::new();
        p.stamp(7, 50);
        let w = p.on_sync_point(7, 80, 0);
        assert_eq!(w, Some(30));
        assert_eq!(p.window_snapshot().count, 1);
        assert_eq!(p.pending_len(), 0);
    }

    #[test]
    fn sync_with_nothing_consumed_records_nothing() {
        let p = StalenessProbe::new();
        assert_eq!(p.on_sync_point(10, 500, 4), None);
        assert_eq!(p.window_snapshot().count, 0);
    }
}
