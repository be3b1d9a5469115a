//! Black-box flight recorder: on any SLO breach (or on demand) a
//! self-contained snapshot bundle — recent causal traces, the sync
//! timeline, metrics, scorecards, the provenance tail, breaker/WAL health,
//! and the SLO evaluation itself — is captured as one versioned JSON
//! document (`cacheportal.flightrecord.v1`) for offline post-mortems.
//!
//! The recorder owns storage only; [`crate::Obs::flight_bundle`] assembles
//! the bundle (it is the one holding every section). Bundles land in a
//! bounded in-memory ring (served by `/flightrecord?seq=N`) as the text they
//! were rendered to — a bundle is read rarely — and, when a directory is
//! armed,
//! are atomically persisted as `flightrecord-<seq>.json` — written to a
//! temp file first, then renamed, so a crash mid-dump never leaves a torn
//! bundle.
//!
//! [`verify_flight_record`] checks the bundle's *internal* coherence: every
//! provenance record's causal chain must resolve against the bundle's own
//! trace section (eject-phase span → `sync.point` root). It walks the chains
//! as [`crate::Obs::verify_causal_chains`] does over the live rings: both go
//! through one walk.

use crate::health::HealthSnapshot;
use crate::provenance::ProvenanceDoc;
use crate::registry::MetricsDoc;
use crate::ring::Ring;
use crate::scorecard::ScorecardsDoc;
use crate::slo::SloDoc;
use crate::staleness::StalenessDoc;
use crate::timeline::TimelineDoc;
use crate::trace::{TraceDoc, TraceEvent};
use crate::EjectRecord;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};

/// Schema marker stamped into every bundle.
pub const FLIGHT_RECORD_SCHEMA: &str = "cacheportal.flightrecord.v1";

/// Index entry for one captured bundle: a row of the `/flightrecord` index
/// and a JSONL `flightrecord` line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlightRecordMeta {
    /// Monotone capture sequence number (exporter cursor key).
    pub seq: u64,
    /// Logical timestamp of the capture.
    pub ts: u64,
    /// Why the bundle was captured ("on-demand", "slo-breach:…").
    pub reason: String,
    /// Serialized bundle size in bytes.
    pub bytes: u64,
    /// On-disk path when a dump directory is armed.
    pub path: Option<String>,
}

/// The `/flightrecord` index document.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlightIndexDoc {
    /// `cacheportal.flightrecord.v1.index`.
    pub schema: String,
    /// Bundles ever captured.
    pub recorded: u64,
    /// Index rows the bound evicted.
    pub dropped: u64,
    /// The armed dump directory, if any.
    pub dir: Option<String>,
    /// The retained index rows, oldest first.
    pub dumps: Vec<FlightRecordMeta>,
}

/// One black-box bundle: everything an offline post-mortem needs,
/// resolvable against itself (see [`verify_flight_record`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlightBundle {
    /// [`FLIGHT_RECORD_SCHEMA`].
    pub schema: String,
    /// Why the bundle was assembled.
    pub reason: String,
    /// Logical timestamp of the assembly.
    pub ts: u64,
    /// Whether [`FlightBundle::stabilize`] has been applied.
    pub stable: bool,
    /// The SLO evaluation (without `context`: `health` is beside it).
    pub slo: SloDoc,
    /// Breaker, recovery, WAL and alert health.
    pub health: HealthSnapshot,
    /// Every registered instrument.
    pub metrics: MetricsDoc,
    /// The commit→eject window.
    pub staleness: StalenessDoc,
    /// The newest 1024 trace events.
    pub trace: TraceDoc,
    /// The newest 64 sync points.
    pub timeline: TimelineDoc,
    /// The per-type scorecards.
    pub scorecards: ScorecardsDoc,
    /// The newest 64 eject records.
    pub provenance: ProvenanceDoc,
}

impl FlightBundle {
    /// Omit or zero what the wall clock fed, so the document is
    /// byte-identical for a fixed seed: non-deterministic SLO objectives
    /// and their alerts go, trace durations and timeline stage times are
    /// zeroed, and the metrics keep only what carries no wall time.
    pub fn stabilize(&mut self) {
        self.stable = true;
        self.slo.stabilize();
        self.metrics.stabilize();
        self.trace.stabilize();
        self.timeline.stabilize();
    }
}

/// Index rows and rendered documents are pushed together, so one capture
/// has one sequence number in both rings.
struct RecorderInner {
    dir: Option<PathBuf>,
    index: Ring<FlightRecordMeta>,
    bundles: Ring<Box<str>>,
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
    fn new(bundle_cap: usize, index_cap: usize) -> FlightRecorder {
        FlightRecorder {
            inner: Mutex::new(RecorderInner {
                dir: None,
                index: Ring::new(index_cap),
                bundles: Ring::new(bundle_cap),
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
    /// directory is armed. The bundle is kept as the text it renders to
    /// here, so byte-stable inputs stay byte-stable.
    pub fn record(&self, reason: &str, ts: u64, doc: &FlightBundle) -> io::Result<FlightRecordMeta> {
        let rendered = serde_json::to_string_pretty(doc).expect("a bundle renders");
        let mut inner = self.inner.lock();
        let seq = inner.index.recorded();
        let path = match &inner.dir {
            Some(dir) => Some(write_atomic(dir, seq, &rendered)?),
            None => None,
        };
        let meta = FlightRecordMeta {
            seq,
            ts,
            reason: reason.to_string(),
            bytes: rendered.len() as u64,
            path,
        };
        inner.index.push(|_| meta.clone());
        inner.bundles.push(|_| rendered.into_boxed_str());
        Ok(meta)
    }

    /// Total bundles ever captured.
    pub fn recorded(&self) -> u64 {
        self.inner.lock().index.recorded()
    }

    /// Index rows evicted from the bounded index.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().index.dropped()
    }

    /// Index rows with `seq >= since`, oldest first (exporter cursor).
    pub fn index_since(&self, since: u64) -> Vec<FlightRecordMeta> {
        self.inner.lock().index.since(since).cloned().collect()
    }

    /// A retained bundle by capture sequence number, as the text it was
    /// recorded as (None once it has rotated out of the in-memory ring —
    /// the disk copy, if armed, outlives the ring).
    pub fn bundle(&self, seq: u64) -> Option<String> {
        self.inner.lock().bundles.get(seq).map(|text| text.to_string())
    }

    /// The newest retained bundle, read back.
    pub fn latest(&self) -> Option<FlightBundle> {
        let inner = self.inner.lock();
        let text = inner.bundles.iter().next_back()?;
        Some(serde_json::from_str(text).expect("the ring holds bundles this module rendered"))
    }

    /// The `/flightrecord` index document.
    pub fn index(&self) -> FlightIndexDoc {
        let inner = self.inner.lock();
        FlightIndexDoc {
            schema: format!("{FLIGHT_RECORD_SCHEMA}.index"),
            recorded: inner.index.recorded(),
            dropped: inner.index.dropped(),
            dir: inner.dir.as_ref().map(|d| d.display().to_string()),
            dumps: inner.index.iter().cloned().collect(),
        }
    }
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
pub fn verify_flight_record(doc: &FlightBundle) -> Result<u64, String> {
    if doc.schema != FLIGHT_RECORD_SCHEMA {
        return Err(format!("not a flight record: schema {:?}", doc.schema));
    }
    if doc.trace.truncated {
        return Ok(0);
    }
    let records = &doc.provenance.recent;
    walk_chains(&doc.trace.recent, records, "bundle trace section", |_| Ok(()))
}

/// Walk each traced record's causal chain through `events`, named `source`
/// in an error: the record's parent span must be a `sync.phase.eject` span
/// whose parent links lead to a `sync.point` root, and `also` must accept
/// the record. Returns the number of records walked; an untraced record (a
/// recovery-gap eject, a disabled tracer) is skipped.
pub(crate) fn walk_chains(
    events: &[TraceEvent],
    records: &[EjectRecord],
    source: &str,
    also: impl Fn(&EjectRecord) -> Result<(), String>,
) -> Result<u64, String> {
    // (trace_id, span_id) → (name, parent_span).
    let spans: HashMap<(u64, u64), (&str, u64)> = events
        .iter()
        .filter(|e| e.trace_id != 0)
        .map(|e| ((e.trace_id, e.span_id), (&*e.name, e.parent_span)))
        .collect();
    let mut verified = 0u64;
    for rec in records.iter().filter(|rec| rec.trace_id != 0) {
        let (tid, url) = (rec.trace_id, &rec.url);
        let mut span = rec.parent_span;
        let Some(&(first_name, mut parent)) = spans.get(&(tid, span)) else {
            return Err(format!("record for {url}: span {span} of trace {tid} not in {source}"));
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
            let Some(&(name, next)) = spans.get(&(tid, span)) else {
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
        also(rec)?;
        verified += 1;
    }
    Ok(verified)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EjectRecord, Obs, TraceContext};

    /// A bundle whose one eject record resolves through its own trace
    /// section: `sync.point` root → `sync.phase.eject` → the record.
    fn coherent_obs() -> (Obs, TraceContext) {
        let obs = Obs::new();
        let root = obs.tracer.start_trace("core", "sync.point", 1, "sync#0");
        let phase = obs.tracer.child_span(root, "invalidator", "sync.phase.eject", 2, "pages=1", 9);
        obs.provenance.record(eject(phase, "http://x/a"));
        (obs, phase)
    }

    fn eject(parent: TraceContext, url: &str) -> EjectRecord {
        EjectRecord {
            seq: 0,
            sync_seq: 0,
            ts: 3,
            lsn_first: 1,
            lsn_last: 1,
            deltas: Vec::new(),
            url: url.into(),
            resident: true,
            causes: Vec::new(),
            trace_id: parent.trace_id,
            span_id: if parent.is_some() { 99 } else { 0 },
            parent_span: parent.span_id,
        }
    }

    #[test]
    fn ring_and_index_are_bounded() {
        let r = FlightRecorder::new(2, 3);
        let doc = Obs::new().flight_bundle("x", 0);
        for i in 0..5 {
            r.record(&format!("r{i}"), i, &doc).unwrap();
        }
        assert_eq!(r.recorded(), 5);
        assert_eq!(r.dropped(), 2);
        assert_eq!(r.index_since(0).len(), 3);
        assert_eq!(r.index_since(0)[0].seq, 2);
        // Only the newest 2 bundles are retained in memory.
        assert!(r.bundle(2).is_none());
        assert!(r.bundle(4).is_some());
        let idx = r.index();
        assert_eq!((idx.recorded, idx.dumps.len()), (5, 3));
        assert_eq!(idx.dir, None);
    }

    #[test]
    fn a_retained_bundle_reads_back_as_it_was_rendered() {
        let (obs, _) = coherent_obs();
        obs.metrics.counter("beyond_i64").set_total(u64::MAX);
        obs.metrics.gauge("signed").set(-7);
        obs.metrics.histogram("thirds").record(1);
        obs.metrics.histogram("thirds").record(2);
        obs.tracer.event("web", "request", 4, "quote \" slash \\ tab \t é \u{1}");
        let doc = obs.flight_bundle("on-demand", 5);
        let meta = obs.recorder.record("on-demand", 5, &doc).unwrap();
        let rendered = serde_json::to_string_pretty(&doc).unwrap();
        assert_eq!(meta.bytes, rendered.len() as u64);
        assert_eq!(obs.recorder.bundle(meta.seq).unwrap(), rendered);
        assert_eq!(obs.recorder.latest().unwrap(), doc);
    }

    #[test]
    fn atomic_disk_dump_round_trips() {
        let dir = std::env::temp_dir().join(format!(
            "cacheportal-fr-test-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let (obs, _) = coherent_obs();
        obs.recorder.set_dir(&dir).unwrap();
        let meta = obs.recorder.record("on-demand", 42, &obs.flight_bundle("on-demand", 42)).unwrap();
        let path = meta.path.clone().expect("disk path");
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.len() as u64, meta.bytes);
        let back: FlightBundle = serde_json::from_str(&text).unwrap();
        assert_eq!(back.schema, FLIGHT_RECORD_SCHEMA);
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
        let (obs, phase) = coherent_obs();
        let mut doc = obs.flight_bundle("test", 4);
        doc.schema = "bogus".to_string();
        assert!(verify_flight_record(&doc).is_err());

        // A record whose parent span is missing from the trace section.
        let mut doc = obs.flight_bundle("test", 4);
        doc.provenance.recent = vec![eject(TraceContext { span_id: 999, ..phase }, "http://x/b")];
        let err = verify_flight_record(&doc).unwrap_err();
        assert!(err.contains("not in bundle trace section"), "{err}");

        // Truncated trace: verification degrades to Ok(0), not an error.
        doc.trace.truncated = true;
        assert_eq!(verify_flight_record(&doc), Ok(0));
    }

    #[test]
    fn untraced_records_are_skipped_not_failed() {
        let (obs, _) = coherent_obs();
        obs.provenance.record(eject(TraceContext::NONE, "http://x/recovery"));
        assert_eq!(verify_flight_record(&obs.flight_bundle("test", 4)), Ok(1));
    }
}
