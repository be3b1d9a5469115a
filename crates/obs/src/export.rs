//! JSONL event export: stream trace events and provenance records to any
//! `io::Write` for offline analysis.
//!
//! The exporter is cursor-based: each call emits only events recorded since
//! the previous call, one JSON object per line. Five kinds of lines:
//!
//! ```json
//! {"kind":"trace","seq":3,"ts":120,"scope":"core","name":"sync.point","detail":"...","duration_micros":17,"trace_id":2,"span_id":5,"parent_span":0}
//! {"kind":"eject","seq":0,"sync_seq":1,"lsn_first":0,...,"url":"...","causes":[...]}
//! {"kind":"scorecard","version":4,"type_id":0,"hits":12,"hit_rate":0.75,...}
//! {"kind":"alert","seq":0,"ts":120,"objective":"staleness-p99","pair":"fast","severity":"page","state":"firing",...}
//! {"kind":"flightrecord","seq":0,"ts":130,"reason":"slo-breach:...","bytes":4096,"path":"..."}
//! ```
//!
//! Trace lines carry causal ids when present, and scorecard lines are a
//! full snapshot of every per-query-type row, re-emitted only when the
//! board's version counter moved — downstream admission-policy tooling can
//! keep the latest version per `type_id`.
//!
//! Because both rings are bounded, events that rotate out between calls are
//! lost; the per-call [`ExportStats`] reports how many were skipped so the
//! gap is visible in tooling.

use std::io;

use serde::Serialize;

use crate::Obs;

/// What one [`JsonlExporter::export`] call wrote.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExportStats {
    /// Trace-event lines written.
    pub trace_events: u64,
    /// Eject-record lines written.
    pub eject_records: u64,
    /// Scorecard rows written.
    pub scorecard_rows: u64,
    /// SLO alert-transition lines written.
    pub alerts: u64,
    /// Flight-record index lines written.
    pub flight_records: u64,
    /// Events that rotated out of the bounded rings before this call and
    /// were therefore never written.
    pub skipped: u64,
}

/// Incremental JSONL exporter over an [`Obs`] bundle.
#[derive(Debug, Default)]
pub struct JsonlExporter {
    next_trace_seq: u64,
    next_eject_seq: u64,
    last_scorecard_version: u64,
    next_alert_seq: u64,
    next_flight_seq: u64,
}

/// One line: the document's own object with `head` (`"kind":"…"` and any
/// other leading members) in front of its first key.
fn write_line<W: io::Write, T: Serialize>(w: &mut W, head: &str, doc: &T) -> io::Result<()> {
    let body = serde_json::to_string(doc).expect("a document renders");
    let members = body.strip_prefix('{').expect("a document is an object");
    writeln!(w, "{{{head},{members}")
}

/// Write what a ring holds from `cursor` on as lines of `kind`, move the
/// cursor past them and add the numbers that rotated out unwritten to
/// `skipped`. Returns the lines written.
fn drain<W: io::Write, T: Serialize>(
    w: &mut W,
    kind: &str,
    tail: Vec<T>,
    seq: impl Fn(&T) -> u64,
    cursor: &mut u64,
    skipped: &mut u64,
) -> io::Result<u64> {
    if let Some(first) = tail.first() {
        *skipped += seq(first).saturating_sub(*cursor);
    }
    let head = format!("\"kind\":\"{kind}\"");
    for doc in &tail {
        write_line(w, &head, doc)?;
        *cursor = seq(doc) + 1;
    }
    Ok(tail.len() as u64)
}

impl JsonlExporter {
    /// An exporter starting from the beginning of both rings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Write all trace events and eject records recorded since the last
    /// call as JSONL, advancing the cursors.
    pub fn export<W: io::Write>(&mut self, obs: &Obs, w: &mut W) -> io::Result<ExportStats> {
        let mut stats = ExportStats::default();
        let skipped = &mut stats.skipped;

        let events = obs.tracer.since(self.next_trace_seq);
        stats.trace_events =
            drain(w, "trace", events, |e| e.seq, &mut self.next_trace_seq, skipped)?;
        let records = obs.provenance.since(self.next_eject_seq);
        stats.eject_records =
            drain(w, "eject", records, |r| r.seq, &mut self.next_eject_seq, skipped)?;

        // Not a ring: the whole board again whenever its version moved.
        let version = obs.scorecards.version();
        if version != self.last_scorecard_version {
            let head = format!("\"kind\":\"scorecard\",\"version\":{version}");
            for row in obs.scorecards.rows() {
                write_line(w, &head, &row)?;
                stats.scorecard_rows += 1;
            }
            self.last_scorecard_version = version;
        }

        let alerts = obs.slo.alerts_since(self.next_alert_seq);
        stats.alerts = drain(w, "alert", alerts, |a| a.seq, &mut self.next_alert_seq, skipped)?;
        let dumps = obs.recorder.index_since(self.next_flight_seq);
        stats.flight_records =
            drain(w, "flightrecord", dumps, |m| m.seq, &mut self.next_flight_seq, skipped)?;

        w.flush()?;
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provenance::{Cause, DeltaGroup, EjectRecord};

    fn eject(url: &str, lsn: u64) -> EjectRecord {
        EjectRecord {
            seq: 0,
            sync_seq: 1,
            ts: 99,
            lsn_first: lsn,
            lsn_last: lsn,
            deltas: vec![DeltaGroup {
                table: "car".into(),
                inserted: 1,
                deleted: 0,
            }],
            url: url.into(),
            resident: true,
            causes: vec![Cause {
                query_type: 0,
                type_sql: "SELECT 1".into(),
                params: vec![],
                verdict: "local-predicate".into(),
                detail: "".into(),
            }],
            trace_id: 0,
            span_id: 0,
            parent_span: 0,
        }
    }

    #[test]
    fn exports_incrementally_as_valid_jsonl() {
        let obs = Obs::new();
        obs.tracer.event("core", "update.commit", 10, "lsn=0");
        obs.provenance.record(eject("/a", 0));

        let mut exporter = JsonlExporter::new();
        let mut out = Vec::new();
        let stats = exporter.export(&obs, &mut out).unwrap();
        assert_eq!(stats.trace_events, 1);
        assert_eq!(stats.eject_records, 1);
        assert_eq!(stats.skipped, 0);

        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let first: serde_json::Value = serde_json::from_str(lines[0]).unwrap();
        assert_eq!(first["kind"].as_str(), Some("trace"));
        assert_eq!(first["name"].as_str(), Some("update.commit"));
        let second: serde_json::Value = serde_json::from_str(lines[1]).unwrap();
        assert_eq!(second["kind"].as_str(), Some("eject"));
        assert_eq!(second["url"].as_str(), Some("/a"));
        assert_eq!(second["causes"][0]["verdict"].as_str(), Some("local-predicate"));

        // Second export with nothing new writes nothing.
        let mut out2 = Vec::new();
        let stats2 = exporter.export(&obs, &mut out2).unwrap();
        assert_eq!(stats2, ExportStats::default());
        assert!(out2.is_empty());

        // New events only.
        obs.tracer.event("core", "sync.point", 20, "");
        let mut out3 = Vec::new();
        let stats3 = exporter.export(&obs, &mut out3).unwrap();
        assert_eq!(stats3.trace_events, 1);
        assert_eq!(stats3.eject_records, 0);
    }

    #[test]
    fn exports_causal_ids_and_scorecard_snapshots() {
        let obs = Obs::new();
        let root = obs.tracer.start_trace("core", "sync.point", 5, "sync#0");
        obs.tracer.child_event(root, "cache", "eject", 6, "page:a");
        obs.scorecards.note_sync(&[crate::TypeSyncOutcome {
            type_id: 2,
            sql: "SELECT 1".into(),
            invalidations: 1,
            ..Default::default()
        }]);

        let mut exporter = JsonlExporter::new();
        let mut out = Vec::new();
        let stats = exporter.export(&obs, &mut out).unwrap();
        assert_eq!(stats.trace_events, 2);
        assert_eq!(stats.scorecard_rows, 1);

        let text = String::from_utf8(out).unwrap();
        let lines: Vec<serde_json::Value> = text
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        assert_eq!(lines[0]["trace_id"].as_u64(), Some(root.trace_id));
        assert_eq!(lines[0]["parent_span"].as_u64(), Some(0));
        assert_eq!(lines[1]["parent_span"].as_u64(), Some(root.span_id));
        let card = &lines[2];
        assert_eq!(card["kind"].as_str(), Some("scorecard"));
        assert_eq!(card["type_id"].as_u64(), Some(2));
        assert_eq!(card["invalidations"].as_u64(), Some(1));

        // Unchanged board: no scorecard re-emission.
        let mut out2 = Vec::new();
        let stats2 = exporter.export(&obs, &mut out2).unwrap();
        assert_eq!(stats2.scorecard_rows, 0);
        assert!(out2.is_empty());

        // Board moved: the full snapshot is re-emitted at the new version.
        obs.scorecards.note_sync(&[crate::TypeSyncOutcome {
            type_id: 3,
            ..Default::default()
        }]);
        let mut out3 = Vec::new();
        let stats3 = exporter.export(&obs, &mut out3).unwrap();
        assert_eq!(stats3.scorecard_rows, 2);
    }

    #[test]
    fn reports_skipped_when_ring_rotates() {
        let cap = crate::provenance::CAPACITY as u64;
        let obs = Obs::new();
        let mut exporter = JsonlExporter::new();
        for i in 0..cap + 3 {
            obs.provenance.record(eject(&format!("/p{i}"), i));
        }
        let mut out = Vec::new();
        let stats = exporter.export(&obs, &mut out).unwrap();
        // Ring holds the last `cap`; the first 3 rotated out unexported.
        assert_eq!(stats.eject_records, cap);
        assert_eq!(stats.skipped, 3);
    }

    #[test]
    fn exports_alert_transitions_incrementally() {
        use crate::slo::SloKind;
        let obs = Obs::new();
        // Ten page ejects 5 s stale, against the 1 s objective.
        obs.slo.observe_latency(SloKind::StalenessP99, 1_000, 5_000_000, 10);
        obs.slo.evaluate(1_000);

        let mut exporter = JsonlExporter::new();
        let mut out = Vec::new();
        let stats = exporter.export(&obs, &mut out).unwrap();
        assert_eq!(stats.alerts, 2, "fast + slow firing transitions");
        let text = String::from_utf8(out).unwrap();
        let first: serde_json::Value =
            serde_json::from_str(text.lines().next().unwrap()).unwrap();
        assert_eq!(first["kind"].as_str(), Some("alert"));
        assert_eq!(first["objective"].as_str(), Some("staleness-p99"));
        assert_eq!(first["state"].as_str(), Some("firing"));
        assert_eq!(first["severity"].as_str(), Some("page"));

        // Steady firing: no new transitions, nothing re-exported.
        obs.slo.evaluate(2_000);
        let mut out2 = Vec::new();
        let stats2 = exporter.export(&obs, &mut out2).unwrap();
        assert_eq!(stats2.alerts, 0);
        assert!(out2.is_empty());

        // Resolution produces fresh lines past the cursor.
        obs.slo.evaluate(2_000 + 8 * 3_600_000_000);
        let mut out3 = Vec::new();
        let stats3 = exporter.export(&obs, &mut out3).unwrap();
        assert_eq!(stats3.alerts, 2);
        let text3 = String::from_utf8(out3).unwrap();
        assert!(text3.contains("\"resolved\""));
    }

    #[test]
    fn reports_skipped_when_alert_log_overflows() {
        use crate::slo::{SloKind, ALERT_LOG_CAP};
        let obs = Obs::new();
        // Each flap fires (bad burst) then resolves (age out) on both pairs:
        // four transitions. Two flaps more than the log holds push 8 out.
        let flaps = ALERT_LOG_CAP / 4 + 2;
        let mut now = 1_000u64;
        for _ in 0..flaps {
            obs.slo.observe_latency(SloKind::StalenessP99, now, 5_000_000, 10);
            obs.slo.evaluate(now);
            now += 8 * 3_600_000_000;
            obs.slo.evaluate(now);
            now += 60_000_000;
        }
        let mut exporter = JsonlExporter::new();
        let mut out = Vec::new();
        let stats = exporter.export(&obs, &mut out).unwrap();
        assert_eq!(stats.alerts, ALERT_LOG_CAP as u64, "only what survived the bounded log");
        assert_eq!(stats.skipped, 8, "the truncation gap is visible");
    }

    #[test]
    fn exports_flight_record_index_with_overflow_marker() {
        let obs = Obs::new();
        let doc = obs.flight_bundle("on-demand", 10);
        obs.recorder.record("on-demand", 10, &doc).unwrap();
        obs.recorder.record("slo-breach:staleness-p99:fast", 20, &doc).unwrap();

        let mut exporter = JsonlExporter::new();
        let mut out = Vec::new();
        let stats = exporter.export(&obs, &mut out).unwrap();
        assert_eq!(stats.flight_records, 2);
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<serde_json::Value> = text
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        assert_eq!(lines[0]["kind"].as_str(), Some("flightrecord"));
        assert_eq!(lines[1]["reason"].as_str(), Some("slo-breach:staleness-p99:fast"));
        assert!(lines[0]["bytes"].as_u64().unwrap() > 0);

        // Incremental: nothing new, nothing written.
        let mut out2 = Vec::new();
        assert_eq!(exporter.export(&obs, &mut out2).unwrap().flight_records, 0);

        // Overflow the bounded index (default cap 64): the cursor reports
        // the rotated-out rows as skipped instead of silently resuming.
        for i in 0..70u64 {
            obs.recorder.record(&format!("r{i}"), 100 + i, &doc).unwrap();
        }
        let mut out3 = Vec::new();
        let stats3 = exporter.export(&obs, &mut out3).unwrap();
        assert_eq!(stats3.flight_records, 64);
        assert_eq!(stats3.skipped, 6);
    }
}
