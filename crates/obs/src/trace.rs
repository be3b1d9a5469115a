//! Causal lifecycle tracer with a bounded ring buffer.
//!
//! Components emit [`TraceEvent`]s at pipeline milestones (request served,
//! SQL executed, cache admission, sync point phases, page ejection). Events
//! carry optional causal identity — a trace id shared by every event of one
//! logical lifecycle plus span ids with parent links — so an eject can be
//! walked back to the sync-point phase and commit that caused it. The tracer
//! keeps only the most recent `capacity` events, so it is safe to leave
//! enabled in long benchmarks; it can also be disabled entirely, which
//! reduces `event` to one atomic load.
//!
//! Timestamps are the caller's logical clock (the portal's microsecond
//! `ManualClock`), and trace/span ids are allocated from monotone counters
//! under the portal's serialized orchestration, keeping traces deterministic
//! under simulation; wall-clock durations for spans are measured separately
//! with [`Tracer::span`] or supplied via [`Tracer::child_span`].

use crate::stripe::Striped;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Causal identity of a span: which lifecycle it belongs to and its own id.
/// `TraceContext::NONE` (all zeros) means "uncorrelated" — the id counters
/// start at 1, so 0 is never a real id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceContext {
    /// Lifecycle (trace) this span belongs to; 0 = none.
    pub trace_id: u64,
    /// This span's id within the trace; 0 = none.
    pub span_id: u64,
}

impl TraceContext {
    /// The uncorrelated context (tracer disabled, or legacy events).
    pub const NONE: TraceContext = TraceContext { trace_id: 0, span_id: 0 };

    /// Does this context carry real causal identity?
    pub fn is_some(&self) -> bool {
        self.trace_id != 0
    }
}

/// One pipeline milestone: a ring entry, a `/trace` row and a JSONL `trace`
/// line. A point event carries no `duration_micros` key and an uncorrelated
/// one none of the three causal ids.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Global sequence number (monotone, gap-free per tracer).
    pub seq: u64,
    /// Logical timestamp supplied by the caller (microseconds).
    pub ts: u64,
    /// Subsystem: `"web"`, `"db"`, `"cache"`, `"sniffer"`, `"invalidator"`, `"core"`.
    pub scope: Cow<'static, str>,
    /// Milestone name, e.g. `"sql.exec"`, `"cache.admit"`, `"sync.eject"`.
    pub name: Cow<'static, str>,
    /// Free-form context (page key, SQL template, poll count, ...). A
    /// request's events share its path's and its page key's text.
    pub detail: Arc<str>,
    /// Wall-clock duration in microseconds for span events, `None` for
    /// point events.
    #[serde(skip_if = "self.duration_micros.is_none()")]
    pub duration_micros: Option<u64>,
    /// Lifecycle this event belongs to; 0 = uncorrelated.
    #[serde(skip_if = "self.trace_id == 0")]
    pub trace_id: u64,
    /// This event's span id; 0 = uncorrelated.
    #[serde(skip_if = "self.trace_id == 0")]
    pub span_id: u64,
    /// Parent span within the same trace; 0 = trace root (or uncorrelated).
    #[serde(skip_if = "self.trace_id == 0")]
    pub parent_span: u64,
}

impl TraceEvent {
    /// This event's causal identity as a context for child spans.
    pub fn context(&self) -> TraceContext {
        TraceContext { trace_id: self.trace_id, span_id: self.span_id }
    }
}

/// The `/trace` document (and a flight bundle's `trace` section): the
/// ring's totals and its newest events.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceDoc {
    /// Events ever recorded.
    pub recorded: u64,
    /// Events the ring bound evicted.
    pub dropped: u64,
    /// Whether any were: a chain that does not resolve may have rotated out.
    pub truncated: bool,
    /// The newest events, oldest first.
    pub recent: Vec<TraceEvent>,
}

impl TraceDoc {
    /// Zero what the wall clock fed (span durations); ids, parents and
    /// logical timestamps stay.
    pub fn stabilize(&mut self) {
        for e in &mut self.recent {
            e.duration_micros = e.duration_micros.map(|_| 0);
        }
    }
}

/// Trace events kept, and commit ranges indexed: one bound, so the ring and
/// the [`CommitIndex`] truncate together.
const CAPACITY: usize = 1024;

/// Bounded event recorder; all methods take `&self`.
///
/// The events are striped per thread: a thread appends to a ring of its
/// own, and takes its event's sequence number under that ring's lock. A
/// reader locks every ring, in stripe order, and merges them by number, so
/// it sees the numbers without a gap and the newest `capacity` events as
/// one ring would have kept them.
pub struct Tracer {
    stripes: Striped<Mutex<VecDeque<TraceEvent>>>,
    capacity: usize,
    next_seq: AtomicU64,
    enabled: AtomicBool,
    next_trace: AtomicU64,
    next_span: AtomicU64,
}

impl Tracer {
    /// A tracer retaining the `capacity` most recent events.
    fn new(capacity: usize) -> Self {
        Tracer {
            stripes: Striped::default(),
            capacity: capacity.max(1),
            next_seq: AtomicU64::new(0),
            enabled: AtomicBool::new(true),
            next_trace: AtomicU64::new(1),
            next_span: AtomicU64::new(1),
        }
    }

    /// Turn event recording on or off (span closures still run either way).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Is recording enabled?
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Record a point event with no causal identity.
    pub fn event(&self, scope: &'static str, name: &'static str, ts: u64, detail: impl Into<Arc<str>>) {
        self.push(scope, name, ts, detail, None, 0, 0, 0);
    }

    /// Run `f`, recording a span event carrying its wall-clock duration
    /// (no causal identity).
    pub fn span<R>(
        &self,
        scope: &'static str,
        name: &'static str,
        ts: u64,
        detail: impl Into<Arc<str>>,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.enabled() {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let micros = start.elapsed().as_micros().min(u64::MAX as u128) as u64;
        self.push(scope, name, ts, detail, Some(micros), 0, 0, 0);
        out
    }

    /// Begin a new lifecycle: allocate a trace id, record its root span, and
    /// return the context children attach to. Returns [`TraceContext::NONE`]
    /// (recording nothing) when disabled.
    pub fn start_trace(
        &self,
        scope: &'static str,
        name: &'static str,
        ts: u64,
        detail: impl Into<Arc<str>>,
    ) -> TraceContext {
        if !self.enabled() {
            return TraceContext::NONE;
        }
        let trace_id = self.next_trace.fetch_add(1, Ordering::Relaxed);
        let span_id = self.next_span.fetch_add(1, Ordering::Relaxed);
        self.push(scope, name, ts, detail, None, trace_id, span_id, 0);
        TraceContext { trace_id, span_id }
    }

    /// Record a point event as a child span of `parent`, returning the child's
    /// context. With an uncorrelated parent (or disabled tracer) this degrades
    /// to [`Tracer::event`] and returns [`TraceContext::NONE`].
    pub fn child_event(
        &self,
        parent: TraceContext,
        scope: &'static str,
        name: &'static str,
        ts: u64,
        detail: impl Into<Arc<str>>,
    ) -> TraceContext {
        self.child(parent, scope, name, ts, detail, None)
    }

    /// Record a completed span (duration measured by the caller) as a child
    /// of `parent`, returning the child's context.
    pub fn child_span(
        &self,
        parent: TraceContext,
        scope: &'static str,
        name: &'static str,
        ts: u64,
        detail: impl Into<Arc<str>>,
        duration_micros: u64,
    ) -> TraceContext {
        self.child(parent, scope, name, ts, detail, Some(duration_micros))
    }

    fn child(
        &self,
        parent: TraceContext,
        scope: &'static str,
        name: &'static str,
        ts: u64,
        detail: impl Into<Arc<str>>,
        duration: Option<u64>,
    ) -> TraceContext {
        if !self.enabled() {
            return TraceContext::NONE;
        }
        if !parent.is_some() {
            self.push(scope, name, ts, detail, duration, 0, 0, 0);
            return TraceContext::NONE;
        }
        let span_id = self.next_span.fetch_add(1, Ordering::Relaxed);
        self.push(scope, name, ts, detail, duration, parent.trace_id, span_id, parent.span_id);
        TraceContext { trace_id: parent.trace_id, span_id }
    }

    /// Allocate a span id under `parent` WITHOUT recording a ring event.
    /// Used when the span's record lives elsewhere (e.g. an [`EjectRecord`]
    /// in the provenance ring carries its own causal identity, avoiding one
    /// ring event per ejected page).
    ///
    /// [`EjectRecord`]: crate::provenance::EjectRecord
    pub fn alloc_span(&self, parent: TraceContext) -> TraceContext {
        if !self.enabled() || !parent.is_some() {
            return TraceContext::NONE;
        }
        let span_id = self.next_span.fetch_add(1, Ordering::Relaxed);
        TraceContext { trace_id: parent.trace_id, span_id }
    }

    /// Find a buffered event by causal identity (ring scan; `None` once the
    /// event has rotated out — check [`Tracer::dropped`] to distinguish
    /// "never existed" from "truncated").
    pub fn find_span(&self, trace_id: u64, span_id: u64) -> Option<TraceEvent> {
        if trace_id == 0 || span_id == 0 {
            return None;
        }
        self.view(|_, events| {
            events
                .into_iter()
                .find(|e| e.trace_id == trace_id && e.span_id == span_id)
                .cloned()
        })
    }

    /// Walk parent links from `(trace_id, span_id)` up to the trace root,
    /// returning the chain innermost-first. Stops early if a hop has rotated
    /// out of the ring.
    pub fn resolve_chain(&self, trace_id: u64, span_id: u64) -> Vec<TraceEvent> {
        let mut chain = Vec::new();
        let mut cursor = span_id;
        while cursor != 0 {
            match self.find_span(trace_id, cursor) {
                Some(e) => {
                    cursor = e.parent_span;
                    chain.push(e);
                }
                None => break,
            }
        }
        chain
    }

    #[allow(clippy::too_many_arguments)]
    fn push(
        &self,
        scope: &'static str,
        name: &'static str,
        ts: u64,
        detail: impl Into<Arc<str>>,
        duration: Option<u64>,
        trace_id: u64,
        span_id: u64,
        parent_span: u64,
    ) {
        // `detail` becomes an `Arc<str>` only past this check: a switched-off
        // tracer costs its callers no allocation.
        if !self.enabled() {
            return;
        }
        let detail = detail.into();
        let mut ring = self.stripes.mine().lock();
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        // What one ring of `capacity` would have let go by now goes here
        // too, however long ago this thread pushed.
        let front = (seq + 1).saturating_sub(self.capacity as u64);
        while ring.front().is_some_and(|e| e.seq < front) {
            ring.pop_front();
        }
        ring.push_back(TraceEvent {
            seq,
            ts,
            scope: Cow::Borrowed(scope),
            name: Cow::Borrowed(name),
            detail,
            duration_micros: duration,
            trace_id,
            span_id,
            parent_span,
        });
    }

    /// Run `read` over the events a single ring of `capacity` would hold,
    /// oldest first, with the count ever recorded.
    /// The rings let go of what they hold past that, and an emptied ring
    /// of its buffer.
    fn view<R>(&self, read: impl FnOnce(u64, Vec<&TraceEvent>) -> R) -> R {
        let mut stripes: Vec<_> = self.stripes.iter().map(|ring| ring.lock()).collect();
        let recorded = self.next_seq.load(Ordering::Relaxed);
        let front = recorded.saturating_sub(self.capacity as u64);
        for ring in &mut stripes {
            while ring.front().is_some_and(|e| e.seq < front) {
                ring.pop_front();
            }
            if ring.is_empty() {
                **ring = VecDeque::new();
            }
        }
        let mut events: Vec<&TraceEvent> = stripes.iter().flat_map(|ring| ring.iter()).collect();
        events.sort_unstable_by_key(|e| e.seq);
        read(recorded, events)
    }

    /// Total events ever recorded (including since-dropped ones).
    pub fn recorded(&self) -> u64 {
        self.view(|recorded, _| recorded)
    }

    /// Events evicted by the ring bound.
    pub fn dropped(&self) -> u64 {
        self.view(|recorded, events| recorded - events.len() as u64)
    }

    /// The most recent `n` events, oldest first.
    pub fn recent(&self, n: usize) -> Vec<TraceEvent> {
        self.view(|_, events| {
            let skip = events.len().saturating_sub(n);
            events.into_iter().skip(skip).cloned().collect()
        })
    }

    /// The buffered events numbered `cursor` and up, oldest first (the
    /// exporter's cursor).
    pub fn since(&self, cursor: u64) -> Vec<TraceEvent> {
        self.view(|_, events| events.into_iter().filter(|e| e.seq >= cursor).cloned().collect())
    }

    /// The `/trace` document: totals plus the `limit` most recent events.
    pub fn doc(&self, limit: usize) -> TraceDoc {
        self.view(|recorded, events| {
            let dropped = recorded - events.len() as u64;
            let skip = events.len().saturating_sub(limit);
            TraceDoc {
                recorded,
                dropped,
                truncated: dropped > 0,
                recent: events.into_iter().skip(skip).cloned().collect(),
            }
        })
    }
}

impl Default for Tracer {
    /// 1024-event ring, enabled.
    fn default() -> Self {
        Tracer::new(CAPACITY)
    }
}

/// One committed update batch's trace root, keyed by its LSN range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitRoot {
    /// First LSN of the committed batch (inclusive).
    pub lsn_first: u64,
    /// Last LSN of the committed batch (inclusive).
    pub lsn_last: u64,
    /// Trace id of the `update.commit` root event.
    pub trace_id: u64,
    /// Span id of the `update.commit` root event.
    pub span_id: u64,
}

/// Bounded map from committed LSN ranges to their trace roots, so a sync
/// point's consumed range `[first, last]` resolves to the commit trace(s)
/// that caused each eject. Oldest ranges are evicted first; evictions are
/// counted so causal checks can tell truncation from corruption.
pub struct CommitIndex {
    inner: Mutex<BTreeMap<u64, CommitRoot>>,
    capacity: usize,
    dropped: AtomicU64,
}

impl CommitIndex {
    /// An index retaining the `capacity` most recent commit ranges.
    fn new(capacity: usize) -> Self {
        CommitIndex {
            inner: Mutex::new(BTreeMap::new()),
            capacity: capacity.max(1),
            dropped: AtomicU64::new(0),
        }
    }

    /// Record a committed batch `[lsn_first, lsn_last]` rooted at `ctx`.
    /// No-op for uncorrelated contexts (tracer disabled).
    pub fn note(&self, lsn_first: u64, lsn_last: u64, ctx: TraceContext) {
        if !ctx.is_some() {
            return;
        }
        let mut inner = self.inner.lock();
        if inner.len() == self.capacity {
            if let Some(oldest) = inner.keys().next().copied() {
                inner.remove(&oldest);
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
        inner.insert(
            lsn_first,
            CommitRoot { lsn_first, lsn_last, trace_id: ctx.trace_id, span_id: ctx.span_id },
        );
    }

    /// Every commit root whose LSN range overlaps `[lsn_first, lsn_last]`,
    /// in ascending LSN order.
    pub fn roots_covering(&self, lsn_first: u64, lsn_last: u64) -> Vec<CommitRoot> {
        let inner = self.inner.lock();
        inner
            .values()
            .filter(|r| r.lsn_first <= lsn_last && r.lsn_last >= lsn_first)
            .copied()
            .collect()
    }

    /// Commit ranges evicted by the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Ranges currently indexed.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// Is the index empty?
    pub fn is_empty(&self) -> bool {
        self.inner.lock().is_empty()
    }
}

impl Default for CommitIndex {
    /// 1024-range index.
    fn default() -> Self {
        CommitIndex::new(CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_bounded_and_ordered() {
        let t = Tracer::new(4);
        for i in 0..10u64 {
            t.event("core", "tick", i, format!("i={i}"));
        }
        let recent = t.recent(10);
        assert_eq!(recent.len(), 4);
        assert_eq!(recent.first().unwrap().seq, 6);
        assert_eq!(recent.last().unwrap().seq, 9);
        assert_eq!(t.recorded(), 10);
        assert_eq!(t.dropped(), 6);
    }

    /// A detail whose text must never be built.
    struct Unasked;

    impl From<Unasked> for Arc<str> {
        fn from(_: Unasked) -> Arc<str> {
            panic!("a disabled tracer built an event's detail")
        }
    }

    #[test]
    fn disabled_tracer_records_nothing_and_builds_no_detail() {
        let t = Tracer::new(8);
        t.set_enabled(false);
        t.event("db", "sql.exec", 1, Unasked);
        let out = t.span("db", "sql.exec", 2, Unasked, || 42);
        assert_eq!(out, 42);
        let ctx = t.start_trace("web", "request", 3, Unasked);
        assert_eq!(ctx, TraceContext::NONE);
        assert_eq!(t.child_event(ctx, "cache", "hit", 3, Unasked), TraceContext::NONE);
        assert_eq!(t.child_span(ctx, "web", "request.generate", 3, Unasked, 1), TraceContext::NONE);
        assert_eq!(t.alloc_span(ctx), TraceContext::NONE);
        assert_eq!(t.recorded(), 0);
        assert!(t.recent(8).is_empty());
    }

    #[test]
    fn span_measures_duration() {
        let t = Tracer::new(8);
        t.span("cache", "lookup", 5, "k", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let e = &t.recent(1)[0];
        assert_eq!(e.name, "lookup");
        assert!(e.duration_micros.unwrap() >= 1_000);
    }

    #[test]
    fn causal_chain_resolves_to_root() {
        let t = Tracer::new(16);
        let root = t.start_trace("core", "sync.point", 10, "sync#0");
        assert!(root.is_some());
        let phase = t.child_span(root, "invalidator", "sync.phase.eject", 11, "pages=2", 7);
        let leaf = t.child_event(phase, "cache", "eject", 12, "page:a");
        assert_eq!(leaf.trace_id, root.trace_id);

        let chain = t.resolve_chain(leaf.trace_id, leaf.span_id);
        assert_eq!(chain.len(), 3);
        assert_eq!(chain[0].name, "eject");
        assert_eq!(chain[1].name, "sync.phase.eject");
        assert_eq!(chain[1].duration_micros, Some(7));
        assert_eq!(chain[2].name, "sync.point");
        assert_eq!(chain[2].parent_span, 0);
    }

    #[test]
    fn alloc_span_reserves_identity_without_event() {
        let t = Tracer::new(16);
        let root = t.start_trace("core", "sync.point", 1, "");
        let before = t.recorded();
        let eject = t.alloc_span(root);
        assert_eq!(t.recorded(), before);
        assert!(eject.is_some());
        assert_eq!(eject.trace_id, root.trace_id);
        assert_ne!(eject.span_id, root.span_id);
        // The allocated span has no ring event, but its parent resolves.
        assert!(t.find_span(root.trace_id, eject.span_id).is_none());
        assert!(t.find_span(root.trace_id, root.span_id).is_some());
    }

    #[test]
    fn ids_are_deterministic_across_tracers() {
        let mk = || {
            let t = Tracer::new(16);
            let a = t.start_trace("web", "request", 1, "/a");
            let b = t.child_event(a, "cache", "hit", 1, "k");
            let c = t.start_trace("db", "update.commit", 2, "lsns 1..3");
            (a, b, c)
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn commit_index_overlap_and_eviction() {
        let idx = CommitIndex::new(2);
        idx.note(1, 3, TraceContext { trace_id: 7, span_id: 70 });
        idx.note(4, 4, TraceContext { trace_id: 8, span_id: 80 });
        let roots = idx.roots_covering(2, 4);
        assert_eq!(roots.len(), 2);
        assert_eq!(roots[0].trace_id, 7);
        assert_eq!(roots[1].trace_id, 8);
        assert!(idx.roots_covering(5, 9).is_empty());

        // Third range evicts the oldest and counts the drop.
        idx.note(5, 6, TraceContext { trace_id: 9, span_id: 90 });
        assert_eq!(idx.dropped(), 1);
        assert!(idx.roots_covering(1, 3).is_empty());
        // Uncorrelated contexts are ignored.
        idx.note(7, 8, TraceContext::NONE);
        assert_eq!(idx.len(), 2);
    }

    #[test]
    fn document_omits_what_an_event_does_not_carry() {
        let t = Tracer::new(8);
        t.event("web", "request", 3, "/page");
        let root = t.start_trace("core", "sync.point", 4, "sync#0");
        t.child_span(root, "invalidator", "sync.phase.eject", 5, "pages=1", 17);
        let mut doc = t.doc(8);
        assert_eq!((doc.recorded, doc.truncated), (3, false));
        let text = serde_json::to_string(&doc.recent).unwrap();
        // Uncorrelated point event: no duration, no causal ids. A trace
        // root keeps its `parent_span` of 0.
        assert_eq!(
            text,
            format!(
                r#"[{{"seq":0,"ts":3,"scope":"web","name":"request","detail":"/page"}},{{"seq":1,"ts":4,"scope":"core","name":"sync.point","detail":"sync#0","trace_id":{t},"span_id":{s},"parent_span":0}},{{"seq":2,"ts":5,"scope":"invalidator","name":"sync.phase.eject","detail":"pages=1","duration_micros":17,"trace_id":{t},"span_id":{c},"parent_span":{s}}}]"#,
                t = root.trace_id,
                s = root.span_id,
                c = root.span_id + 1,
            )
        );
        let back: Vec<TraceEvent> = serde_json::from_str(&text).unwrap();
        assert_eq!(back, doc.recent);
        doc.stabilize();
        assert_eq!(doc.recent[0].duration_micros, None);
        assert_eq!(doc.recent[2].duration_micros, Some(0));
    }
}
