//! Black-box flight recorder: on any SLO breach (or on demand) a
//! self-contained snapshot bundle — recent causal traces, the sync
//! timeline, metrics, scorecards, the provenance tail, breaker/WAL health,
//! and the SLO evaluation itself — is captured as one versioned JSON
//! document (`cacheportal.flightrecord.v1`) for offline post-mortems.
//!
//! The recorder owns storage only; the portal assembles the bundle (it is
//! the one holding every section). Bundles land in a bounded in-memory
//! ring (served by `/flightrecord?seq=N`) as the text they were rendered to
//! — a bundle is read rarely, and its value tree is some twenty times its
//! text in heap blocks — and, when a directory is armed,
//! are atomically persisted as `flightrecord-<seq>.json` — written to a
//! temp file first, then renamed, so a crash mid-dump never leaves a torn
//! bundle.
//!
//! [`verify_flight_record`] checks the bundle's *internal* coherence: every
//! provenance record's causal chain must resolve against the bundle's own
//! trace section (eject-phase span → `sync.point` root), the offline
//! mirror of `CachePortal::verify_causal_chains`.

use parking_lot::Mutex;
use serde_json::Value;
use std::collections::VecDeque;
use std::io;
use std::path::{Path, PathBuf};

/// Schema marker stamped into every bundle.
pub const FLIGHT_RECORD_SCHEMA: &str = "cacheportal.flightrecord.v1";

/// Index entry for one captured bundle.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightRecordMeta {
    /// Monotone capture sequence number (exporter cursor key).
    pub seq: u64,
    /// Logical timestamp of the capture.
    pub ts: u64,
    /// Why the bundle was captured ("on-demand", "slo-breach:…").
    pub reason: String,
    /// On-disk path when a dump directory is armed.
    pub path: Option<String>,
    /// Serialized bundle size in bytes.
    pub bytes: u64,
}

impl FlightRecordMeta {
    /// JSON object (one index row / exporter line body).
    pub fn to_json(&self) -> Value {
        let mut fields = vec![
            ("seq".to_string(), Value::UInt(self.seq)),
            ("ts".to_string(), Value::UInt(self.ts)),
            ("reason".to_string(), Value::String(self.reason.clone())),
            ("bytes".to_string(), Value::UInt(self.bytes)),
        ];
        match &self.path {
            Some(p) => fields.push(("path".to_string(), Value::String(p.clone()))),
            None => fields.push(("path".to_string(), Value::Null)),
        }
        Value::Object(fields)
    }
}

struct RecorderInner {
    dir: Option<PathBuf>,
    index: VecDeque<FlightRecordMeta>,
    index_cap: usize,
    index_dropped: u64,
    /// Capture sequence number and rendered document, oldest first.
    bundles: VecDeque<(u64, Box<str>)>,
    bundle_cap: usize,
    next_seq: u64,
}

/// Bounded storage for flight-record bundles (in-memory ring + optional
/// atomic disk dumps).
pub struct FlightRecorder {
    inner: Mutex<RecorderInner>,
}

impl Default for FlightRecorder {
    /// 8 retained bundles, 64 index rows, no disk directory.
    fn default() -> Self {
        FlightRecorder::new(8, 64)
    }
}

impl FlightRecorder {
    /// Recorder retaining the newest `bundle_cap` full bundles and
    /// `index_cap` index rows.
    pub fn new(bundle_cap: usize, index_cap: usize) -> FlightRecorder {
        FlightRecorder {
            inner: Mutex::new(RecorderInner {
                dir: None,
                index: VecDeque::new(),
                index_cap: index_cap.max(1),
                index_dropped: 0,
                bundles: VecDeque::new(),
                bundle_cap: bundle_cap.max(1),
                next_seq: 0,
            }),
        }
    }

    /// Arm on-disk persistence: bundles are atomically written under
    /// `dir` (created if missing) as `flightrecord-<seq>.json`.
    pub fn set_dir(&self, dir: impl Into<PathBuf>) -> io::Result<()> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        self.inner.lock().dir = Some(dir);
        Ok(())
    }

    /// The armed dump directory, if any.
    pub fn dir(&self) -> Option<PathBuf> {
        self.inner.lock().dir.clone()
    }

    /// Store one bundle: ring + index, plus an atomic disk dump when a
    /// directory is armed. The caller passes the assembled document; the
    /// recorder never mutates it, so byte-stable inputs stay byte-stable.
    pub fn record(&self, reason: &str, ts: u64, doc: &Value) -> io::Result<FlightRecordMeta> {
        let rendered = serde_json::to_string_pretty(doc)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{e:?}")))?;
        let mut inner = self.inner.lock();
        let seq = inner.next_seq;
        inner.next_seq += 1;
        let path = match inner.dir.clone() {
            Some(dir) => Some(write_atomic(&dir, seq, &rendered)?),
            None => None,
        };
        let meta = FlightRecordMeta {
            seq,
            ts,
            reason: reason.to_string(),
            path,
            bytes: rendered.len() as u64,
        };
        if inner.index.len() >= inner.index_cap {
            inner.index.pop_front();
            inner.index_dropped += 1;
        }
        inner.index.push_back(meta.clone());
        if inner.bundles.len() >= inner.bundle_cap {
            inner.bundles.pop_front();
        }
        inner.bundles.push_back((seq, rendered.into_boxed_str()));
        Ok(meta)
    }

    /// Total bundles ever captured.
    pub fn recorded(&self) -> u64 {
        self.inner.lock().next_seq
    }

    /// Index rows evicted from the bounded index.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().index_dropped
    }

    /// Index rows with `seq >= since`, oldest first (exporter cursor).
    pub fn index_since(&self, since: u64) -> Vec<FlightRecordMeta> {
        let inner = self.inner.lock();
        inner.index.iter().filter(|m| m.seq >= since).cloned().collect()
    }

    /// The newest `n` index rows, oldest first.
    pub fn index_recent(&self, n: usize) -> Vec<FlightRecordMeta> {
        let inner = self.inner.lock();
        let skip = inner.index.len().saturating_sub(n);
        inner.index.iter().skip(skip).cloned().collect()
    }

    /// A retained bundle by capture sequence number (None once it has
    /// rotated out of the in-memory ring — the disk copy, if armed,
    /// outlives the ring).
    pub fn bundle(&self, seq: u64) -> Option<Value> {
        let inner = self.inner.lock();
        let (_, rendered) = inner.bundles.iter().find(|(s, _)| *s == seq)?;
        Some(parsed(rendered))
    }

    /// The newest retained bundle.
    pub fn latest(&self) -> Option<Value> {
        let inner = self.inner.lock();
        inner.bundles.back().map(|(_, rendered)| parsed(rendered))
    }

    /// The `/flightrecord` index document.
    pub fn index_to_json(&self) -> Value {
        let inner = self.inner.lock();
        Value::Object(vec![
            ("schema".to_string(), Value::String(format!("{FLIGHT_RECORD_SCHEMA}.index"))),
            ("recorded".to_string(), Value::UInt(inner.next_seq)),
            ("dropped".to_string(), Value::UInt(inner.index_dropped)),
            (
                "dir".to_string(),
                match &inner.dir {
                    Some(d) => Value::String(d.display().to_string()),
                    None => Value::Null,
                },
            ),
            (
                "dumps".to_string(),
                Value::Array(inner.index.iter().map(|m| m.to_json()).collect()),
            ),
        ])
    }
}

/// A retained bundle, read back: the document that was recorded, as far as
/// its rendering tells (an unsigned number that fits comes back signed).
fn parsed(rendered: &str) -> Value {
    serde_json::from_str(rendered).expect("the ring holds documents this module rendered")
}

/// Write `rendered` to `dir/flightrecord-<seq>.json` atomically (temp file
/// then rename) and return the final path.
fn write_atomic(dir: &Path, seq: u64, rendered: &str) -> io::Result<String> {
    let tmp = dir.join(format!(".flightrecord-{seq:06}.json.tmp"));
    let fin = dir.join(format!("flightrecord-{seq:06}.json"));
    std::fs::write(&tmp, rendered)?;
    std::fs::rename(&tmp, &fin)?;
    Ok(fin.display().to_string())
}

/// Verify a bundle's internal causal coherence: every provenance record
/// carrying a trace id must resolve, *within the bundle's own trace
/// section*, through its eject-phase parent span up to a `sync.point`
/// root. Returns the number of records verified; `Ok(0)` when the
/// bundle's trace section is truncated (evidence legitimately rotated
/// out) or carries no traced records.
pub fn verify_flight_record(doc: &Value) -> Result<u64, String> {
    if doc["schema"].as_str() != Some(FLIGHT_RECORD_SCHEMA) {
        return Err(format!(
            "not a flight record: schema {:?}",
            doc["schema"].as_str()
        ));
    }
    let trace = &doc["trace"];
    if trace["truncated"].as_bool() == Some(true) {
        return Ok(0);
    }
    // (trace_id, span_id) → (name, parent_span) over the embedded events.
    let mut spans = std::collections::HashMap::new();
    if let Some(events) = trace["recent"].as_array() {
        for e in events {
            let (Some(tid), Some(sid)) = (e["trace_id"].as_u64(), e["span_id"].as_u64()) else {
                continue;
            };
            let name = e["name"].as_str().unwrap_or("").to_string();
            let parent = e["parent_span"].as_u64().unwrap_or(0);
            spans.insert((tid, sid), (name, parent));
        }
    }
    let records = doc["provenance"]["recent"]
        .as_array()
        .ok_or_else(|| "bundle has no provenance section".to_string())?;
    let mut verified = 0u64;
    for rec in records {
        let tid = rec["trace_id"].as_u64().unwrap_or(0);
        if tid == 0 {
            continue; // untraced eject (recovery gap, tracing disabled)
        }
        let url = rec["url"].as_str().unwrap_or("?");
        let mut span = rec["parent_span"]
            .as_u64()
            .ok_or_else(|| format!("record for {url} lacks parent_span"))?;
        let Some((first_name, mut parent)) = spans.get(&(tid, span)).cloned() else {
            return Err(format!(
                "record for {url}: span {span} of trace {tid} not in bundle trace section"
            ));
        };
        if first_name != "sync.phase.eject" {
            return Err(format!(
                "record for {url}: parent span is {first_name:?}, expected sync.phase.eject"
            ));
        }
        let mut root_name = first_name;
        let mut hops = 0;
        while parent != 0 {
            span = parent;
            let Some((name, next)) = spans.get(&(tid, span)).cloned() else {
                return Err(format!(
                    "record for {url}: chain breaks at span {span} of trace {tid}"
                ));
            };
            root_name = name;
            parent = next;
            hops += 1;
            if hops > 64 {
                return Err(format!("record for {url}: span cycle in trace {tid}"));
            }
        }
        if root_name != "sync.point" {
            return Err(format!(
                "record for {url}: chain roots at {root_name:?}, expected sync.point"
            ));
        }
        verified += 1;
    }
    Ok(verified)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bundle(reason: &str) -> Value {
        Value::Object(vec![
            ("schema".to_string(), Value::String(FLIGHT_RECORD_SCHEMA.to_string())),
            ("reason".to_string(), Value::String(reason.to_string())),
            ("trace".to_string(), Value::Object(vec![
                ("truncated".to_string(), Value::Bool(false)),
                ("recent".to_string(), Value::Array(vec![])),
            ])),
            ("provenance".to_string(), Value::Object(vec![
                ("recent".to_string(), Value::Array(vec![])),
            ])),
        ])
    }

    fn trace_event(tid: u64, sid: u64, parent: u64, name: &str) -> Value {
        Value::Object(vec![
            ("name".to_string(), Value::String(name.to_string())),
            ("trace_id".to_string(), Value::UInt(tid)),
            ("span_id".to_string(), Value::UInt(sid)),
            ("parent_span".to_string(), Value::UInt(parent)),
        ])
    }

    fn eject_record(tid: u64, parent: u64, url: &str) -> Value {
        Value::Object(vec![
            ("url".to_string(), Value::String(url.to_string())),
            ("trace_id".to_string(), Value::UInt(tid)),
            ("span_id".to_string(), Value::UInt(99)),
            ("parent_span".to_string(), Value::UInt(parent)),
        ])
    }

    fn coherent_bundle() -> Value {
        let mut doc = bundle("test");
        let trace = Value::Object(vec![
            ("truncated".to_string(), Value::Bool(false)),
            ("recent".to_string(), Value::Array(vec![
                trace_event(7, 1, 0, "sync.point"),
                trace_event(7, 2, 1, "sync.phase.eject"),
            ])),
        ]);
        let prov = Value::Object(vec![(
            "recent".to_string(),
            Value::Array(vec![eject_record(7, 2, "http://x/a")]),
        )]);
        if let Value::Object(fields) = &mut doc {
            for (k, v) in fields.iter_mut() {
                if k == "trace" {
                    *v = trace.clone();
                }
                if k == "provenance" {
                    *v = prov.clone();
                }
            }
        }
        doc
    }

    #[test]
    fn ring_and_index_are_bounded() {
        let r = FlightRecorder::new(2, 3);
        for i in 0..5 {
            r.record(&format!("r{i}"), i, &bundle("x")).unwrap();
        }
        assert_eq!(r.recorded(), 5);
        assert_eq!(r.dropped(), 2);
        assert_eq!(r.index_since(0).len(), 3);
        assert_eq!(r.index_since(0)[0].seq, 2);
        // Only the newest 2 bundles are retained in memory.
        assert!(r.bundle(2).is_none());
        assert!(r.bundle(4).is_some());
        let idx = r.index_to_json();
        assert_eq!(idx["recorded"].as_u64(), Some(5));
        assert_eq!(idx["dumps"].as_array().unwrap().len(), 3);
    }

    #[test]
    fn a_retained_bundle_reads_back_as_it_was_rendered() {
        let doc = Value::Object(vec![
            ("schema".to_string(), Value::String(FLIGHT_RECORD_SCHEMA.to_string())),
            ("unsigned".to_string(), Value::UInt(7)),
            ("beyond_i64".to_string(), Value::UInt(u64::MAX)),
            ("signed".to_string(), Value::Int(-7)),
            ("floats".to_string(), Value::Array(vec![
                Value::Float(1.0),
                Value::Float(0.1 + 0.2),
                Value::Float(-0.0),
                Value::Float(f64::NAN),
            ])),
            ("text".to_string(), Value::String("quote \" slash \\ tab \t é \u{1}".to_string())),
            ("nested".to_string(), Value::Object(vec![
                ("empty".to_string(), Value::Array(vec![])),
                ("none".to_string(), Value::Null),
                ("flag".to_string(), Value::Bool(true)),
            ])),
        ]);
        let r = FlightRecorder::default();
        let meta = r.record("on-demand", 1, &doc).unwrap();
        let rendered = serde_json::to_string_pretty(&doc).unwrap();
        assert_eq!(meta.bytes, rendered.len() as u64);
        for back in [r.bundle(meta.seq).unwrap(), r.latest().unwrap()] {
            assert_eq!(serde_json::to_string_pretty(&back).unwrap(), rendered);
            assert_eq!(
                serde_json::to_string(&back).unwrap(),
                serde_json::to_string(&doc).unwrap()
            );
            assert_eq!(back["nested"], doc["nested"]);
            assert_eq!(back["beyond_i64"], doc["beyond_i64"]);
        }
    }

    #[test]
    fn atomic_disk_dump_round_trips() {
        let dir = std::env::temp_dir().join(format!(
            "cacheportal-fr-test-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let r = FlightRecorder::default();
        r.set_dir(&dir).unwrap();
        let meta = r.record("on-demand", 42, &coherent_bundle()).unwrap();
        let path = meta.path.clone().expect("disk path");
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.len() as u64, meta.bytes);
        let back: Value = serde_json::from_str(&text).unwrap();
        assert_eq!(back["schema"].as_str(), Some(FLIGHT_RECORD_SCHEMA));
        assert_eq!(verify_flight_record(&back), Ok(1));
        // No temp files left behind.
        let stray: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .file_name()
                    .to_string_lossy()
                    .ends_with(".tmp")
            })
            .collect();
        assert!(stray.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn verify_rejects_broken_chains() {
        // Wrong schema.
        let mut doc = coherent_bundle();
        if let Value::Object(fields) = &mut doc {
            fields[0].1 = Value::String("bogus".to_string());
        }
        assert!(verify_flight_record(&doc).is_err());

        // A record whose parent span is missing from the trace section.
        let mut doc = coherent_bundle();
        if let Value::Object(fields) = &mut doc {
            for (k, v) in fields.iter_mut() {
                if k == "provenance" {
                    *v = Value::Object(vec![(
                        "recent".to_string(),
                        Value::Array(vec![eject_record(7, 999, "http://x/b")]),
                    )]);
                }
            }
        }
        let err = verify_flight_record(&doc).unwrap_err();
        assert!(err.contains("not in bundle trace section"), "{err}");

        // Truncated trace: verification degrades to Ok(0), not an error.
        let mut doc = coherent_bundle();
        if let Value::Object(fields) = &mut doc {
            for (k, v) in fields.iter_mut() {
                if k == "trace" {
                    *v = Value::Object(vec![
                        ("truncated".to_string(), Value::Bool(true)),
                        ("recent".to_string(), Value::Array(vec![])),
                    ]);
                }
            }
        }
        assert_eq!(verify_flight_record(&doc), Ok(0));
    }

    #[test]
    fn untraced_records_are_skipped_not_failed() {
        let mut doc = coherent_bundle();
        if let Value::Object(fields) = &mut doc {
            for (k, v) in fields.iter_mut() {
                if k == "provenance" {
                    *v = Value::Object(vec![(
                        "recent".to_string(),
                        Value::Array(vec![
                            eject_record(0, 0, "http://x/recovery"),
                            eject_record(7, 2, "http://x/a"),
                        ]),
                    )]);
                }
            }
        }
        assert_eq!(verify_flight_record(&doc), Ok(1));
    }
}
