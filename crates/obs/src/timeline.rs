//! Per-sync-point stage timeline behind the `/timeline` admin endpoint.
//!
//! Every sync point records one [`SyncTimeline`] — the sync's causal identity
//! plus one [`StageSample`] per pipeline phase (mapper, registration, delta
//! collection, shard analysis, poll wait, eject, WAL persist). Each stage
//! carries two measures:
//!
//! * `micros` — wall-clock duration, for humans and chrome://tracing;
//! * `work` — a deterministic unit count (records mapped, tuples analyzed,
//!   polls issued, pages ejected, ...) that is byte-stable across seeded
//!   runs, which is what the determinism tests and the harness gate on.
//!
//! [`TimelineLog::doc`] is the full document; [`TimelineDoc::stabilize`]
//! zeroes its wall-clock fields so two runs of the same seed render identical
//! bytes. [`TimelineLog::to_chrome_trace`] emits Chrome `trace_event` JSON
//! (open in chrome://tracing or Perfetto).

use crate::ring::Ring;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

/// One pipeline phase inside a sync point.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageSample {
    /// Phase name: `"mapper"`, `"registration"`, `"delta"`, `"analysis"`,
    /// `"poll_wait"`, `"eject"`, `"persist"`.
    pub name: Cow<'static, str>,
    /// Wall-clock duration in microseconds (nondeterministic; `poll_wait`
    /// is modeled as `polls x rtt` and therefore deterministic).
    pub micros: u64,
    /// Deterministic work units processed by the phase.
    pub work: u64,
}

/// One sync point's timeline entry.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SyncTimeline {
    /// Portal sync sequence number.
    pub sync_seq: u64,
    /// Logical timestamp (microseconds) at sync start.
    pub ts: u64,
    /// Trace id of the `sync.point` root span (0 if tracing disabled).
    pub trace_id: u64,
    /// Span id of the `sync.point` root span.
    pub span_id: u64,
    /// First consumed update-log LSN (0 when no records were consumed).
    pub lsn_first: u64,
    /// Last consumed update-log LSN (inclusive).
    pub lsn_last: u64,
    /// Update-log records consumed.
    pub records: u64,
    /// Pages ejected by this sync point.
    pub ejected: u64,
    /// Polling queries issued.
    pub polls: u64,
    /// End-to-end wall-clock duration in microseconds.
    pub wall_micros: u64,
    /// Phase samples in pipeline order.
    pub stages: Vec<StageSample>,
}

/// The `/timeline` document (and a flight bundle's `timeline` section).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimelineDoc {
    /// Timelines ever recorded.
    pub recorded: u64,
    /// Timelines the ring bound evicted.
    pub dropped: u64,
    /// The tracer ring's eviction count: the causal chains old entries
    /// name may no longer resolve.
    pub trace_dropped: u64,
    /// Whether either ring has let anything go.
    pub truncated: bool,
    /// Whether [`TimelineDoc::stabilize`] has been applied.
    pub stable: bool,
    /// The newest sync points, oldest first.
    pub sync_points: Vec<SyncTimeline>,
}

impl TimelineDoc {
    /// Zero every wall-clock field, making the document byte-stable across
    /// runs of the same seed (work units, ids and the modelled `poll_wait`
    /// stage are deterministic; that stage's time is zeroed with the rest).
    pub fn stabilize(&mut self) {
        self.stable = true;
        for t in &mut self.sync_points {
            t.wall_micros = 0;
            for s in &mut t.stages {
                s.micros = 0;
            }
        }
    }
}

/// Bounded ring of sync-point timelines.
pub struct TimelineLog {
    ring: Mutex<Ring<SyncTimeline>>,
}

impl TimelineLog {
    /// A log retaining the `capacity` most recent sync points.
    fn new(capacity: usize) -> Self {
        TimelineLog { ring: Mutex::new(Ring::new(capacity)) }
    }

    /// Append one sync point's timeline, evicting the oldest at capacity.
    pub fn record(&self, entry: SyncTimeline) {
        self.ring.lock().push(|_| entry);
    }

    /// Timelines ever recorded.
    pub fn recorded(&self) -> u64 {
        self.ring.lock().recorded()
    }

    /// Timelines evicted by the ring bound.
    pub fn dropped(&self) -> u64 {
        self.ring.lock().dropped()
    }

    /// The most recent `n` timelines, oldest first.
    pub fn recent(&self, n: usize) -> Vec<SyncTimeline> {
        self.ring.lock().recent(n).cloned().collect()
    }

    /// The `/timeline` document over the newest `limit` sync points.
    /// `trace_dropped` is the tracer ring's eviction count, surfaced here
    /// (with a combined `truncated` marker) so a consumer knows when causal
    /// chains referenced by old entries may no longer resolve.
    pub fn doc(&self, limit: usize, trace_dropped: u64) -> TimelineDoc {
        let ring = self.ring.lock();
        TimelineDoc {
            recorded: ring.recorded(),
            dropped: ring.dropped(),
            trace_dropped,
            truncated: ring.dropped() > 0 || trace_dropped > 0,
            stable: false,
            sync_points: ring.recent(limit).cloned().collect(),
        }
    }

    /// Chrome `trace_event` JSON (the `{"traceEvents": [...]}` object
    /// format). Each sync point renders as one complete ("X") event on
    /// tid 0 with its phases laid out end-to-end on tid 1, all stamped in
    /// logical-clock microseconds so concurrent runs don't interleave.
    ///
    /// The format is Chrome's, not this crate's: its keys are spelled here
    /// by hand and no document type stands behind it.
    pub fn to_chrome_trace(&self, limit: usize) -> serde_json::Value {
        use serde_json::Value;
        let mut events = Vec::new();
        for t in self.recent(limit) {
            let args = vec![
                ("sync_seq".to_string(), Value::UInt(t.sync_seq)),
                ("trace_id".to_string(), Value::UInt(t.trace_id)),
                ("lsn_first".to_string(), Value::UInt(t.lsn_first)),
                ("lsn_last".to_string(), Value::UInt(t.lsn_last)),
                ("records".to_string(), Value::UInt(t.records)),
                ("ejected".to_string(), Value::UInt(t.ejected)),
            ];
            events.push(Value::Object(vec![
                ("name".to_string(), Value::String(format!("sync#{}", t.sync_seq))),
                ("cat".to_string(), Value::String("sync".to_string())),
                ("ph".to_string(), Value::String("X".to_string())),
                ("ts".to_string(), Value::UInt(t.ts)),
                ("dur".to_string(), Value::UInt(t.wall_micros.max(1))),
                ("pid".to_string(), Value::UInt(1)),
                ("tid".to_string(), Value::UInt(0)),
                ("args".to_string(), Value::Object(args)),
            ]));
            let mut offset = 0u64;
            for s in &t.stages {
                let dur = s.micros.max(1);
                events.push(Value::Object(vec![
                    ("name".to_string(), Value::String(s.name.to_string())),
                    ("cat".to_string(), Value::String("stage".to_string())),
                    ("ph".to_string(), Value::String("X".to_string())),
                    ("ts".to_string(), Value::UInt(t.ts + offset)),
                    ("dur".to_string(), Value::UInt(dur)),
                    ("pid".to_string(), Value::UInt(1)),
                    ("tid".to_string(), Value::UInt(1)),
                    (
                        "args".to_string(),
                        Value::Object(vec![
                            ("work".to_string(), Value::UInt(s.work)),
                            ("sync_seq".to_string(), Value::UInt(t.sync_seq)),
                        ]),
                    ),
                ]));
                offset += dur;
            }
        }
        Value::Object(vec![
            ("displayTimeUnit".to_string(), Value::String("ms".to_string())),
            ("traceEvents".to_string(), Value::Array(events)),
        ])
    }
}

impl Default for TimelineLog {
    /// 256-entry ring.
    fn default() -> Self {
        TimelineLog::new(256)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(seq: u64, wall: u64) -> SyncTimeline {
        SyncTimeline {
            sync_seq: seq,
            ts: 100 * seq,
            trace_id: seq + 1,
            span_id: seq + 10,
            lsn_first: 1,
            lsn_last: 3,
            records: 3,
            ejected: 2,
            polls: 1,
            stages: vec![
                StageSample { name: "delta".into(), micros: wall, work: 3 },
                StageSample { name: "analysis".into(), micros: wall * 2, work: 9 },
                StageSample { name: "eject".into(), micros: wall / 2, work: 2 },
            ],
            wall_micros: wall * 4,
        }
    }

    #[test]
    fn ring_bounds_and_truncation_marker() {
        let log = TimelineLog::new(2);
        for i in 0..3 {
            log.record(entry(i, 50));
        }
        assert_eq!(log.recorded(), 3);
        assert_eq!(log.dropped(), 1);
        let doc = log.doc(10, 0);
        assert!(doc.truncated);
        assert_eq!(doc.sync_points.len(), 2);
        assert_eq!(doc.sync_points[0].sync_seq, 1);

        // A dropped-tracer-events count also marks the output truncated.
        let fresh = TimelineLog::new(8);
        fresh.record(entry(0, 50));
        assert!(!fresh.doc(10, 0).truncated);
        assert!(fresh.doc(10, 5).truncated);
        assert_eq!(fresh.doc(10, 5).trace_dropped, 5);
    }

    #[test]
    fn stable_rendering_is_byte_identical_despite_wall_jitter() {
        let a = TimelineLog::new(8);
        let b = TimelineLog::new(8);
        // Same deterministic fields, different wall-clock noise.
        a.record(entry(0, 37));
        b.record(entry(0, 9001));
        let stable = |log: &TimelineLog| {
            let mut doc = log.doc(10, 0);
            doc.stabilize();
            serde_json::to_string(&doc).unwrap()
        };
        assert_eq!(stable(&a), stable(&b));
        assert!(stable(&a).contains(r#""stable":true"#));
        // The unstable renderings differ (sanity: wall noise is visible).
        let ua = serde_json::to_string(&a.doc(10, 0)).unwrap();
        let ub = serde_json::to_string(&b.doc(10, 0)).unwrap();
        assert_ne!(ua, ub);
    }

    #[test]
    fn chrome_trace_shape() {
        let log = TimelineLog::new(8);
        log.record(entry(0, 50));
        let j = log.to_chrome_trace(10);
        let events = j["traceEvents"].as_array().unwrap();
        // 1 sync event + 3 stage events.
        assert_eq!(events.len(), 4);
        assert_eq!(events[0]["ph"].as_str(), Some("X"));
        assert_eq!(events[0]["name"].as_str(), Some("sync#0"));
        assert_eq!(events[0]["tid"].as_u64(), Some(0));
        assert_eq!(events[1]["name"].as_str(), Some("delta"));
        assert_eq!(events[1]["tid"].as_u64(), Some(1));
        // Stages tile end-to-end: analysis starts where delta ends.
        let delta_end = events[1]["ts"].as_u64().unwrap() + events[1]["dur"].as_u64().unwrap();
        assert_eq!(events[2]["ts"].as_u64(), Some(delta_end));
    }
}
