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
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use crate::Lsn;

/// Default ring capacity (eject records retained).
pub const DEFAULT_PROVENANCE_CAPACITY: usize = 512;

/// Per-table ΔR group summary for one sync point's consumed update batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaGroup {
    /// Table the updates touched.
    pub table: String,
    /// Rows in Δ⁺R (inserted, including the new image of UPDATEs).
    pub inserted: u64,
    /// Rows in Δ⁻R (deleted, including the old image of UPDATEs).
    pub deleted: u64,
}

impl DeltaGroup {
    fn to_json(&self) -> serde_json::Value {
        use serde_json::Value;
        Value::Object(vec![
            ("table".to_string(), Value::String(self.table.clone())),
            ("inserted".to_string(), Value::UInt(self.inserted)),
            ("deleted".to_string(), Value::UInt(self.deleted)),
        ])
    }
}

/// One affected query instance in an eject chain: the matched query type,
/// its bound parameters, and the verdict that flagged it.
#[derive(Debug, Clone, PartialEq, Eq)]
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

impl Cause {
    fn to_json(&self) -> serde_json::Value {
        use serde_json::Value;
        Value::Object(vec![
            ("query_type".to_string(), Value::UInt(self.query_type as u64)),
            ("type_sql".to_string(), Value::String(self.type_sql.clone())),
            (
                "params".to_string(),
                Value::Array(self.params.iter().cloned().map(Value::String).collect()),
            ),
            ("verdict".to_string(), Value::String(self.verdict.clone())),
            ("detail".to_string(), Value::String(self.detail.clone())),
        ])
    }
}

/// The full causal chain behind one ejected URL at one sync point:
/// LSN range → ΔR groups → matched query types/verdicts → URL.
#[derive(Debug, Clone, PartialEq, Eq)]
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

impl EjectRecord {
    /// Render as a JSON object.
    pub fn to_json(&self) -> serde_json::Value {
        use serde_json::Value;
        Value::Object(vec![
            ("seq".to_string(), Value::UInt(self.seq)),
            ("sync_seq".to_string(), Value::UInt(self.sync_seq)),
            ("ts".to_string(), Value::UInt(self.ts)),
            ("lsn_first".to_string(), Value::UInt(self.lsn_first)),
            ("lsn_last".to_string(), Value::UInt(self.lsn_last)),
            (
                "deltas".to_string(),
                Value::Array(self.deltas.iter().map(|d| d.to_json()).collect()),
            ),
            ("url".to_string(), Value::String(self.url.to_string())),
            ("resident".to_string(), Value::Bool(self.resident)),
            (
                "causes".to_string(),
                Value::Array(self.causes.iter().map(|c| c.to_json()).collect()),
            ),
            ("trace_id".to_string(), Value::UInt(self.trace_id)),
            ("span_id".to_string(), Value::UInt(self.span_id)),
            ("parent_span".to_string(), Value::UInt(self.parent_span)),
        ])
    }
}

/// Answer to an `explain_*` query: matching records plus an explicit
/// truncation marker so callers can tell "not found" from "rotated out".
#[derive(Debug, Clone, PartialEq)]
pub struct Explanation {
    /// Matching eject records, oldest first.
    pub matches: Vec<EjectRecord>,
    /// True when the ring has dropped records: an empty `matches` may mean
    /// the evidence rotated out rather than that the event never happened.
    pub truncated: bool,
    /// Records dropped from the ring so far.
    pub dropped_records: u64,
}

impl Explanation {
    /// Render as a JSON object.
    pub fn to_json(&self) -> serde_json::Value {
        use serde_json::Value;
        Value::Object(vec![
            (
                "matches".to_string(),
                Value::Array(self.matches.iter().map(|m| m.to_json()).collect()),
            ),
            ("truncated".to_string(), Value::Bool(self.truncated)),
            ("dropped_records".to_string(), Value::UInt(self.dropped_records)),
        ])
    }
}

/// Ring state. `ring` holds records in `seq` order; because `seq` is dense,
/// a record's position is `seq - front.seq`, so the secondary indexes store
/// bare sequence numbers.
#[derive(Default)]
struct Inner {
    ring: VecDeque<EjectRecord>,
    by_url: HashMap<Arc<str>, Vec<u64>>,
    /// Keyed by `lsn_first`. Sync points consume disjoint LSN ranges, so the
    /// record(s) covering an LSN are exactly those at the greatest
    /// `lsn_first <= lsn` whose `lsn_last >= lsn`.
    by_first_lsn: BTreeMap<Lsn, Vec<u64>>,
}

/// Bounded, shareable log of [`EjectRecord`]s with URL and LSN indexes.
///
/// All methods take `&self`; the ring is guarded by a mutex held only for
/// short record/lookup critical sections, while the monotone `recorded` /
/// `dropped` counters are plain atomics readable without the lock.
pub struct ProvenanceLog {
    inner: Mutex<Inner>,
    capacity: usize,
    seq: AtomicU64,
    dropped: AtomicU64,
    enabled: AtomicBool,
}

impl Default for ProvenanceLog {
    fn default() -> Self {
        Self::new(DEFAULT_PROVENANCE_CAPACITY)
    }
}

impl ProvenanceLog {
    /// A log retaining at most `capacity` eject records.
    pub fn new(capacity: usize) -> Self {
        ProvenanceLog {
            inner: Mutex::new(Inner::default()),
            capacity: capacity.max(1),
            seq: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
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
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        rec.seq = seq;
        if inner.ring.len() == self.capacity {
            if let Some(old) = inner.ring.pop_front() {
                Self::unindex(&mut inner, &old);
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
        inner.by_url.entry(rec.url.clone()).or_default().push(seq);
        inner.by_first_lsn.entry(rec.lsn_first).or_default().push(seq);
        inner.ring.push_back(rec);
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
        self.seq.load(Ordering::Relaxed)
    }

    /// Records dropped to stay within capacity.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
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
            .map(|seqs| seqs.iter().filter_map(|&s| Self::by_seq(&inner, s).cloned()).collect())
            .unwrap_or_default();
        self.explanation(matches)
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
                    .filter_map(|&s| Self::by_seq(&inner, s))
                    .filter(|r| r.lsn_last >= lsn)
                    .cloned()
                    .collect()
            })
            .unwrap_or_default();
        self.explanation(matches)
    }

    fn explanation(&self, matches: Vec<EjectRecord>) -> Explanation {
        let dropped = self.dropped();
        Explanation {
            matches,
            truncated: dropped > 0,
            dropped_records: dropped,
        }
    }

    fn by_seq(inner: &Inner, seq: u64) -> Option<&EjectRecord> {
        let front = inner.ring.front()?.seq;
        inner.ring.get(seq.checked_sub(front)? as usize)
    }

    /// The most recent `n` records, oldest first.
    pub fn recent(&self, n: usize) -> Vec<EjectRecord> {
        let inner = self.inner.lock();
        let skip = inner.ring.len().saturating_sub(n);
        inner.ring.iter().skip(skip).cloned().collect()
    }

    /// Records with `seq >= since`, oldest first (for incremental export).
    pub fn since(&self, since: u64) -> Vec<EjectRecord> {
        let inner = self.inner.lock();
        inner.ring.iter().filter(|r| r.seq >= since).cloned().collect()
    }

    /// Summary + the most recent `limit` records as JSON.
    pub fn to_json(&self, limit: usize) -> serde_json::Value {
        use serde_json::Value;
        Value::Object(vec![
            ("recorded".to_string(), Value::UInt(self.recorded())),
            ("dropped".to_string(), Value::UInt(self.dropped())),
            (
                "recent".to_string(),
                Value::Array(self.recent(limit).iter().map(|r| r.to_json()).collect()),
            ),
        ])
    }

    /// Drop all retained records (counters keep their totals).
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.ring.clear();
        inner.by_url.clear();
        inner.by_first_lsn.clear();
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
    fn json_shape_round_trips() {
        let log = ProvenanceLog::new(4);
        log.record(rec("/a", 5, 7));
        let doc = log.explain_url("/a").to_json();
        let text = serde_json::to_string(&doc).unwrap();
        let back: serde_json::Value = serde_json::from_str(&text).unwrap();
        assert_eq!(back["truncated"].as_bool(), Some(false));
        let m = &back["matches"][0];
        assert_eq!(m["url"].as_str(), Some("/a"));
        assert_eq!(m["lsn_first"].as_u64(), Some(5));
        assert_eq!(m["lsn_last"].as_u64(), Some(7));
        assert_eq!(m["deltas"][0]["table"].as_str(), Some("car"));
        assert_eq!(m["causes"][0]["verdict"].as_str(), Some("polling-query"));
        assert_eq!(m["causes"][0]["params"][0].as_str(), Some("20000"));
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
