//! Invalidation provenance: the causal chain behind every page eject.
//!
//! CachePortal's promise is invalidating *exactly* the pages affected by a
//! database update (PAPER.md §4). This module makes each such decision
//! explainable after the fact: when the invalidator ejects a URL it records
//! an [`EjectRecord`] — the consumed update-log LSN range and per-table ΔR
//! group sizes, the matched query types with their bound parameters, and the
//! verdict that flagged each one (local predicate check, issued polling
//! query, poll-cache/index answer, conservative policy, ...) — into a
//! bounded ring indexed both by URL and by LSN.
//!
//! [`ProvenanceLog::explain_url`] and [`ProvenanceLog::explain_lsn`] answer
//! "why was this page ejected?" and "what did this update invalidate?". Like
//! the [`crate::Tracer`] ring, the log is bounded: once full, the oldest
//! records are dropped and counted, and every [`Explanation`] carries an
//! explicit truncation marker so a miss on an old URL is distinguishable
//! from "never ejected".

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::ring::Ring;
use crate::Lsn;

/// Eject records retained.
pub(crate) const CAPACITY: usize = 512;

/// Per-table ΔR group summary for one sync point's consumed update batch.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeltaGroup {
    /// Table the updates touched.
    pub table: String,
    /// Rows in Δ⁺R (inserted, including the new image of UPDATEs).
    pub inserted: u64,
    /// Rows in Δ⁻R (deleted, including the old image of UPDATEs).
    pub deleted: u64,
}

/// One affected query instance in an eject chain: the matched query type,
/// its bound parameters, and the verdict that flagged it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Cause {
    /// Registered query-type id the update matched.
    pub query_type: u32,
    /// The query type's parameterised SQL.
    pub type_sql: String,
    /// Bound parameter values of the affected instance (rendered as text).
    pub params: Vec<String>,
    /// Verdict kind, e.g. `local-predicate`, `polling-query`, `conservative`.
    pub verdict: String,
    /// Free-form verdict detail (polling SQL, predicate description, ...).
    pub detail: String,
}

/// The full causal chain behind one ejected URL at one sync point:
/// LSN range → ΔR groups → matched query types/verdicts → URL. A ring
/// entry, an `/explain` match and a JSONL `eject` line.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EjectRecord {
    /// Dense per-log sequence number (assigned by [`ProvenanceLog::record`]).
    pub seq: u64,
    /// Sync-point ordinal this eject happened at.
    pub sync_seq: u64,
    /// Logical timestamp (microseconds) of the sync point.
    pub ts: u64,
    /// First update-log LSN consumed by the sync point.
    pub lsn_first: Lsn,
    /// Last update-log LSN consumed by the sync point.
    pub lsn_last: Lsn,
    /// Per-table ΔR group sizes for the consumed batch.
    pub deltas: Vec<DeltaGroup>,
    /// The ejected page URL (canonical cache key).
    pub url: Arc<str>,
    /// Whether the page was actually resident in the cache when ejected
    /// (false = the invalidation named it but it was not cached).
    pub resident: bool,
    /// Affected query instances that named this URL, with their verdicts.
    pub causes: Vec<Cause>,
    /// Lifecycle trace this eject belongs to (0 = untraced, e.g. recovery
    /// ejects or tracing disabled).
    pub trace_id: u64,
    /// This eject's span id within the trace (allocated by the tracer; the
    /// record itself is the span — no separate ring event per eject).
    pub span_id: u64,
    /// Parent span: the sync point's eject-phase span.
    pub parent_span: u64,
}

/// One QI/URL map row of a page: the query instance it is registered
/// against (the QI→URL half of an explanation).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QiRow {
    /// Map row id.
    pub id: u64,
    /// The bound query instance's SQL.
    pub sql: String,
    /// The servlet that issued it.
    pub servlet: String,
}

/// Answer to an `explain_*` query (the `/explain` document): matching
/// records plus an explicit truncation marker so callers can tell "not
/// found" from "rotated out".
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Explanation {
    /// Matching eject records, oldest first.
    pub matches: Vec<EjectRecord>,
    /// True when the ring has dropped records: an empty `matches` may mean
    /// the evidence rotated out rather than that the event never happened.
    pub truncated: bool,
    /// Records dropped from the ring so far.
    pub dropped_records: u64,
    /// The page's current QI/URL map rows; only an explanation by URL
    /// carries the key.
    #[serde(skip_if = "self.qi_map.is_none()")]
    pub qi_map: Option<Vec<QiRow>>,
}

/// The provenance section of a snapshot or flight bundle: the log's totals
/// and its newest records.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProvenanceDoc {
    /// Records ever recorded.
    pub recorded: u64,
    /// Records the ring bound evicted.
    pub dropped: u64,
    /// The newest records, oldest first.
    pub recent: Vec<EjectRecord>,
}

/// Ring state. The ring numbers its records densely, so the secondary
/// indexes store bare sequence numbers.
struct Inner {
    ring: Ring<EjectRecord>,
    by_url: HashMap<Arc<str>, Vec<u64>>,
    /// Keyed by `lsn_first`. Sync points consume disjoint LSN ranges, so the
    /// record(s) covering an LSN are exactly those at the greatest
    /// `lsn_first <= lsn` whose `lsn_last >= lsn`.
    by_first_lsn: BTreeMap<Lsn, Vec<u64>>,
}

/// Bounded, shareable log of [`EjectRecord`]s with URL and LSN indexes.
///
/// All methods take `&self`; ring and indexes are guarded by one mutex held
/// only for short record/lookup critical sections.
pub struct ProvenanceLog {
    inner: Mutex<Inner>,
    enabled: AtomicBool,
}

impl Default for ProvenanceLog {
    fn default() -> Self {
        Self::new(CAPACITY)
    }
}

impl ProvenanceLog {
    /// A log retaining at most `capacity` eject records.
    fn new(capacity: usize) -> Self {
        ProvenanceLog {
            inner: Mutex::new(Inner {
                ring: Ring::new(capacity),
                by_url: HashMap::new(),
                by_first_lsn: BTreeMap::new(),
            }),
            enabled: AtomicBool::new(true),
        }
    }

    /// Turn recording on/off (lookups keep working either way).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Append one eject record, assigning its `seq`. Returns the assigned
    /// sequence number, or `None` when recording is disabled.
    pub fn record(&self, mut rec: EjectRecord) -> Option<u64> {
        if !self.enabled.load(Ordering::Relaxed) {
            return None;
        }
        let mut inner = self.inner.lock();
        let (url, lsn_first) = (rec.url.clone(), rec.lsn_first);
        let (seq, evicted) = inner.ring.push(|seq| {
            rec.seq = seq;
            rec
        });
        if let Some(old) = evicted {
            Self::unindex(&mut inner, &old);
        }
        inner.by_url.entry(url).or_default().push(seq);
        inner.by_first_lsn.entry(lsn_first).or_default().push(seq);
        Some(seq)
    }

    fn unindex(inner: &mut Inner, old: &EjectRecord) {
        if let Some(seqs) = inner.by_url.get_mut(&old.url) {
            seqs.retain(|&s| s != old.seq);
            if seqs.is_empty() {
                inner.by_url.remove(&old.url);
            }
        }
        if let Some(seqs) = inner.by_first_lsn.get_mut(&old.lsn_first) {
            seqs.retain(|&s| s != old.seq);
            if seqs.is_empty() {
                inner.by_first_lsn.remove(&old.lsn_first);
            }
        }
    }

    /// Total records ever recorded.
    pub fn recorded(&self) -> u64 {
        self.inner.lock().ring.recorded()
    }

    /// Records dropped to stay within capacity.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().ring.dropped()
    }

    /// Records currently retained.
    pub fn len(&self) -> usize {
        self.inner.lock().ring.len()
    }

    /// True when no records are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Why was `url` ejected? All retained records for that URL, oldest
    /// first, plus the truncation marker.
    pub fn explain_url(&self, url: &str) -> Explanation {
        let inner = self.inner.lock();
        let matches = inner
            .by_url
            .get(url)
            .map(|seqs| seqs.iter().filter_map(|&s| inner.ring.get(s).cloned()).collect())
            .unwrap_or_default();
        Self::explanation(&inner, matches)
    }

    /// What did the update at `lsn` invalidate? All retained records whose
    /// consumed LSN range covers `lsn`, plus the truncation marker.
    pub fn explain_lsn(&self, lsn: Lsn) -> Explanation {
        let inner = self.inner.lock();
        // Sync batches are disjoint, so only the greatest lsn_first <= lsn
        // can cover it; verify against lsn_last.
        let matches = inner
            .by_first_lsn
            .range(..=lsn)
            .next_back()
            .map(|(_, seqs)| {
                seqs.iter()
                    .filter_map(|&s| inner.ring.get(s))
                    .filter(|r| r.lsn_last >= lsn)
                    .cloned()
                    .collect()
            })
            .unwrap_or_default();
        Self::explanation(&inner, matches)
    }

    fn explanation(inner: &Inner, matches: Vec<EjectRecord>) -> Explanation {
        let dropped = inner.ring.dropped();
        Explanation {
            matches,
            truncated: dropped > 0,
            dropped_records: dropped,
            qi_map: None,
        }
    }

    /// The most recent `n` records, oldest first.
    pub fn recent(&self, n: usize) -> Vec<EjectRecord> {
        self.inner.lock().ring.recent(n).cloned().collect()
    }

    /// Records with `seq >= since`, oldest first (for incremental export).
    pub fn since(&self, since: u64) -> Vec<EjectRecord> {
        self.inner.lock().ring.since(since).cloned().collect()
    }

    /// Totals plus the most recent `limit` records.
    pub fn doc(&self, limit: usize) -> ProvenanceDoc {
        let inner = self.inner.lock();
        ProvenanceDoc {
            recorded: inner.ring.recorded(),
            dropped: inner.ring.dropped(),
            recent: inner.ring.recent(limit).cloned().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(url: &str, lsn_first: Lsn, lsn_last: Lsn) -> EjectRecord {
        EjectRecord {
            seq: 0,
            sync_seq: 0,
            ts: 42,
            lsn_first,
            lsn_last,
            deltas: vec![DeltaGroup {
                table: "car".to_string(),
                inserted: 1,
                deleted: 0,
            }],
            url: url.into(),
            resident: true,
            causes: vec![Cause {
                query_type: 0,
                type_sql: "SELECT * FROM car WHERE price < $1".to_string(),
                params: vec!["20000".to_string()],
                verdict: "polling-query".to_string(),
                detail: "SELECT COUNT(*) ...".to_string(),
            }],
            trace_id: 0,
            span_id: 0,
            parent_span: 0,
        }
    }

    #[test]
    fn explain_by_url_and_lsn() {
        let log = ProvenanceLog::new(8);
        log.record(rec("/a", 0, 2));
        log.record(rec("/b", 0, 2));
        log.record(rec("/a", 3, 3));

        let a = log.explain_url("/a");
        assert_eq!(a.matches.len(), 2);
        assert!(!a.truncated);
        assert_eq!(a.matches[0].lsn_first, 0);
        assert_eq!(a.matches[1].lsn_first, 3);

        // LSN 1 falls inside the first batch [0, 2]: both its URLs match.
        let batch = log.explain_lsn(1);
        assert_eq!(batch.matches.len(), 2);
        // LSN 3 is the second batch.
        let l3 = log.explain_lsn(3);
        assert_eq!(l3.matches.len(), 1);
        assert_eq!(&*l3.matches[0].url, "/a");
        // LSN 4 was never consumed: greatest lsn_first <= 4 is 3, but the
        // check against lsn_last must still pass — here it does not.
        assert!(log.explain_lsn(4).matches.is_empty());
    }

    #[test]
    fn ring_evicts_oldest_and_marks_truncation() {
        let log = ProvenanceLog::new(2);
        log.record(rec("/old", 0, 0));
        log.record(rec("/mid", 1, 1));
        assert_eq!(log.dropped(), 0);
        log.record(rec("/new", 2, 2));
        assert_eq!(log.len(), 2);
        assert_eq!(log.recorded(), 3);
        assert_eq!(log.dropped(), 1);

        // The evicted record is gone, but the explanation says so instead of
        // silently returning nothing.
        let old = log.explain_url("/old");
        assert!(old.matches.is_empty());
        assert!(old.truncated);
        assert_eq!(old.dropped_records, 1);
        let old_lsn = log.explain_lsn(0);
        assert!(old_lsn.matches.is_empty());
        assert!(old_lsn.truncated);

        // Retained records still resolve.
        assert_eq!(log.explain_url("/new").matches.len(), 1);
        assert_eq!(log.explain_lsn(1).matches.len(), 1);
    }

    #[test]
    fn disabled_log_records_nothing() {
        let log = ProvenanceLog::new(4);
        log.set_enabled(false);
        assert_eq!(log.record(rec("/a", 0, 0)), None);
        assert_eq!(log.recorded(), 0);
        assert!(log.explain_url("/a").matches.is_empty());
        log.set_enabled(true);
        assert!(log.record(rec("/a", 1, 1)).is_some());
        assert_eq!(log.explain_url("/a").matches.len(), 1);
    }

    #[test]
    fn an_explanation_round_trips_and_only_names_qi_rows_it_has() {
        let log = ProvenanceLog::new(4);
        log.record(rec("/a", 5, 7));
        let mut doc = log.explain_url("/a");
        let text = serde_json::to_string(&doc).unwrap();
        assert!(text.ends_with(r#""truncated":false,"dropped_records":0}"#), "{text}");
        assert_eq!(serde_json::from_str::<Explanation>(&text).unwrap(), doc);
        doc.qi_map = Some(vec![QiRow { id: 3, sql: "SELECT 1".into(), servlet: "s".into() }]);
        let text = serde_json::to_string(&doc).unwrap();
        assert!(text.ends_with(r#""qi_map":[{"id":3,"sql":"SELECT 1","servlet":"s"}]}"#), "{text}");
        assert_eq!(serde_json::from_str::<Explanation>(&text).unwrap(), doc);
    }

    #[test]
    fn an_evicted_record_leaves_both_indexes() {
        let log = ProvenanceLog::new(2);
        log.record(rec("/a", 0, 0));
        log.record(rec("/a", 1, 1));
        log.record(rec("/b", 2, 2)); // evicts the first "/a"
        {
            let inner = log.inner.lock();
            assert_eq!(inner.by_url["/a"], vec![1]);
            assert!(!inner.by_first_lsn.contains_key(&0));
        }
        log.record(rec("/b", 3, 3)); // evicts the second: the URL's entry goes
        let inner = log.inner.lock();
        assert!(!inner.by_url.contains_key("/a"));
        assert_eq!(inner.by_url["/b"], vec![2, 3]);
        assert_eq!(inner.by_first_lsn.keys().copied().collect::<Vec<_>>(), vec![2, 3]);
    }

    #[test]
    fn recent_and_since_are_ordered() {
        let log = ProvenanceLog::new(8);
        for i in 0..5 {
            log.record(rec(&format!("/p{i}"), i, i));
        }
        let recent = log.recent(2);
        assert_eq!(recent.len(), 2);
        assert_eq!(&*recent[0].url, "/p3");
        assert_eq!(&*recent[1].url, "/p4");
        let since = log.since(3);
        assert_eq!(since.len(), 2);
        assert_eq!(since[0].seq, 3);
    }
}
