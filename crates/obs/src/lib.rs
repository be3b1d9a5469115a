//! `cacheportal-obs` — unified observability layer for the CachePortal
//! pipeline.
//!
//! Ten instruments, deliberately dependency-free (atomics, `parking_lot`,
//! and the `serde` stand-ins only) so every runtime crate can use them:
//!
//! * [`MetricsRegistry`] — named counters, gauges, and log-bucketed latency
//!   histograms with p50/p95/p99/max summaries.
//! * [`Tracer`] — a bounded ring buffer of pipeline events covering
//!   HTTP request → servlet → SQL execution → cache admission, and
//!   sync point → delta build → local check → polling query → eject fan-out.
//! * [`StalenessProbe`] — stamps each committed mutation's LSN with a
//!   logical timestamp and records the commit→eject staleness window per
//!   invalidated page.
//! * [`ProvenanceLog`] — bounded ring of [`EjectRecord`]s capturing the
//!   full update→query-type→verdict→URL chain behind every page eject,
//!   indexed by URL and by LSN for `explain_*` queries.
//! * [`HealthState`] — `/healthz`'s recovery flag; its counts are metrics.
//! * [`CommitIndex`] — committed LSN ranges → their update-commit trace
//!   roots.
//! * [`TimelineLog`] — per-sync-point stage timelines.
//! * [`ScorecardBoard`] — per-query-type cost/benefit scorecards.
//! * [`SloEngine`] — the freshness objectives with burn-rate alerting.
//! * [`FlightRecorder`] — black-box bundles captured on a breach or on
//!   demand.
//!
//! Nothing here is configured: every ring size and the SLO policy are
//! constants of the module that owns them.
//!
//! Live exposure: [`AdminServer`] serves every document below (and the
//! Prometheus text of [`MetricsRegistry::render_prometheus`]) over a plain
//! `TcpListener`, and [`JsonlExporter`] streams the rings as JSONL for
//! offline analysis.
//!
//! [`Obs`] bundles the instruments behind one `Arc`-shareable handle. Every
//! document the portal serves or exports is a struct here, in the module
//! that owns its data, deriving `Serialize`/`Deserialize`; [`Obs`] assembles
//! the ones that span modules ([`Obs::snapshot`], [`Obs::slo_doc`],
//! [`Obs::flight_bundle`], ...), and a `stable` rendering is the same struct
//! after its `stabilize()` pass. The admin routes, `CachePortal`'s accessors
//! and `obsctl` all go through these types.

mod admin;
mod export;
pub mod health;
mod histogram;
mod percent;
pub mod provenance;
pub mod recorder;
mod registry;
mod ring;
pub mod scorecard;
pub mod slo;
mod staleness;
// The request path's counters, trace rings, scorecard tallies and SLO
// observations are striped by the engine's scheme, compiled in from its one
// source: this crate does not depend on the database's.
#[path = "../../db/src/stripe.rs"]
mod stripe;
pub mod timeline;
mod trace;

pub use admin::{AdminServer, AdminSource};
pub use export::{ExportStats, JsonlExporter};
pub use health::{HealthResponse, HealthSnapshot, HealthState, HealthStatus, Reason, ReasonRow};
pub use histogram::{Histogram, HistogramSnapshot};
pub use provenance::{
    Cause, DeltaGroup, EjectRecord, Explanation, ProvenanceDoc, ProvenanceLog, QiRow,
};
pub use recorder::{
    verify_flight_record, FlightBundle, FlightIndexDoc, FlightRecordMeta, FlightRecorder,
    FLIGHT_RECORD_SCHEMA,
};
pub use registry::{prometheus_name, Counter, Gauge, MetricsDoc, MetricsRegistry};
pub use scorecard::{PageTally, ScorecardBoard, ScorecardsDoc, TypeScore, TypeSyncOutcome};
pub use slo::{AlertEvent, BurnPair, EvalOutcome, SloDoc, SloEngine, SloKind};
pub use staleness::{Lsn, StalenessDoc, StalenessProbe};
pub use timeline::{StageSample, SyncTimeline, TimelineDoc, TimelineLog};
pub use trace::{CommitIndex, CommitRoot, TraceContext, TraceDoc, TraceEvent, Tracer};

use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// The bundle of instruments one `CachePortal` owns.
pub struct Obs {
    /// Named counters/gauges/histograms.
    pub metrics: MetricsRegistry,
    /// Bounded pipeline event trace.
    pub tracer: Tracer,
    /// Commit→eject staleness window probe.
    pub staleness: StalenessProbe,
    /// Invalidation provenance ring (why was each page ejected?).
    pub provenance: ProvenanceLog,
    /// The recovery flag behind `/healthz`, which reads its counts (breakers,
    /// WAL errors, alerts, partitions) off `metrics`.
    pub health: HealthState,
    /// Commit LSN range → update-commit trace root (causal chain anchor).
    pub commits: CommitIndex,
    /// Per-sync-point stage timeline behind `/timeline`.
    pub timeline: TimelineLog,
    /// Per-query-type cost/benefit scorecards behind `/scorecards`.
    pub scorecards: ScorecardBoard,
    /// Sliding-window SLO evaluator with burn-rate alerting behind `/slo`.
    pub slo: SloEngine,
    /// Black-box flight recorder behind `/flightrecord`.
    pub recorder: FlightRecorder,
}

/// [`Obs::snapshot`]'s document: what `CachePortal::metrics_snapshot()`
/// returns and the bench artifacts embed under `"observability"`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Snapshot {
    /// Registry counters, gauges and histograms.
    pub metrics: MetricsDoc,
    /// The commit→eject staleness distribution.
    pub staleness: StalenessDoc,
    /// Recent trace events.
    pub trace: TraceDoc,
    /// Recent eject records.
    pub provenance: ProvenanceDoc,
    /// Recent sync points.
    pub timeline: TimelineDoc,
    /// The per-type scorecards.
    pub scorecards: ScorecardsDoc,
    /// The SLO evaluation as of its last pass.
    pub slo: SloDoc,
    /// The headline figures.
    pub derived: Derived,
}

/// Headline figures worked out from the registry's counters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Derived {
    /// `cache.page.hits` over all page-cache lookups (0 before the first).
    pub page_cache_hit_ratio: f64,
    /// Polling queries sent to the database.
    pub polls_issued: u64,
    /// Polls answered locally, from the poll cache or from an index.
    pub polls_avoided: u64,
    /// Ejections the invalidation audit found unnecessary.
    pub over_invalidations: u64,
    /// Pages ejected by sync points.
    pub pages_ejected: u64,
}

impl Default for Obs {
    fn default() -> Self {
        Obs::new()
    }
}

impl Obs {
    /// Every instrument, enabled and empty.
    pub fn new() -> Self {
        Obs {
            metrics: MetricsRegistry::new(),
            tracer: Tracer::default(),
            staleness: StalenessProbe::new(),
            provenance: ProvenanceLog::default(),
            health: HealthState::new(),
            commits: CommitIndex::default(),
            timeline: TimelineLog::default(),
            scorecards: ScorecardBoard::default(),
            slo: SloEngine::default(),
            recorder: FlightRecorder::default(),
        }
    }

    /// Same, pre-wrapped for sharing across components.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::new())
    }

    /// The combined observability document, with the 32 newest trace events.
    pub fn snapshot(&self) -> Snapshot {
        let metrics = self.metrics.snapshot();
        let count = |name: &str| metrics.counters.get(name).copied().unwrap_or(0);
        let lookups = count("cache.page.hits") + count("cache.page.misses");
        let derived = Derived {
            page_cache_hit_ratio: if lookups == 0 {
                0.0
            } else {
                count("cache.page.hits") as f64 / lookups as f64
            },
            polls_issued: count("invalidator.polls.issued"),
            polls_avoided: count("invalidator.polls.avoided_local")
                + count("invalidator.polls.from_cache")
                + count("invalidator.polls.from_index"),
            over_invalidations: count("invalidator.over_invalidations"),
            pages_ejected: count("invalidator.pages.ejected"),
        };
        Snapshot {
            metrics,
            staleness: self.staleness.doc(),
            trace: self.tracer.doc(32),
            provenance: self.provenance.doc(8),
            timeline: self.timeline.doc(8, self.tracer.dropped()),
            scorecards: self.scorecards.doc(),
            slo: self.slo.doc(self.slo.last_eval_ts()),
            derived,
        }
    }

    /// The `/timeline` document: the newest 64 sync points.
    pub fn timeline_doc(&self, stable: bool) -> TimelineDoc {
        let mut doc = self.timeline.doc(64, self.tracer.dropped());
        if stable {
            doc.stabilize();
        }
        doc
    }

    /// The `/slo` document at logical time `now`: the engine's burn-rate
    /// rendering plus the live health snapshot as `context`.
    pub fn slo_doc(&self, now: u64, stable: bool) -> SloDoc {
        let mut doc = self.slo.doc(now);
        doc.context = Some(self.health.snapshot(&self.metrics));
        if stable {
            doc.stabilize();
        }
        doc
    }

    /// The `/explain?url=` document: every retained eject of `url`, and the
    /// page's current QI/URL map rows (which the caller reads off the map).
    pub fn explain_url(&self, url: &str, qi_map: Vec<QiRow>) -> Explanation {
        Explanation { qi_map: Some(qi_map), ..self.provenance.explain_url(url) }
    }

    /// Assemble (without recording) a self-contained black-box bundle at
    /// logical time `now`; see [`FlightBundle::stabilize`] for the
    /// byte-stable rendering. Callers that mirror component-owned counters
    /// into the registry refresh them first.
    pub fn flight_bundle(&self, reason: &str, now: u64) -> FlightBundle {
        FlightBundle {
            schema: FLIGHT_RECORD_SCHEMA.to_string(),
            reason: reason.to_string(),
            ts: now,
            stable: false,
            slo: self.slo.doc(now),
            health: self.health.snapshot(&self.metrics),
            metrics: self.metrics.snapshot(),
            staleness: self.staleness.doc(),
            trace: self.tracer.doc(1024),
            timeline: self.timeline.doc(64, self.tracer.dropped()),
            scorecards: self.scorecards.doc(),
            provenance: self.provenance.doc(64),
        }
    }

    /// Check that every retained eject record's causal chain resolves in the
    /// trace ring — record → `sync.phase.eject` span → `sync.point` root —
    /// and that an `update.commit` trace root in the commit index covers
    /// the record's LSN range. Returns the number of records verified; the
    /// walk is [`verify_flight_record`]'s, over the live rings.
    ///
    /// Returns `Ok(0)` without checking when any bounded ring has dropped
    /// entries (a rotated-out hop is truncation, not incoherence); records
    /// with no causal identity (tracer disabled, recovery-gap ejects) are
    /// skipped the same way.
    pub fn verify_causal_chains(&self) -> Result<u64, String> {
        if self.tracer.dropped() > 0 || self.commits.dropped() > 0 || self.provenance.dropped() > 0
        {
            return Ok(0);
        }
        let events = self.tracer.recent(usize::MAX);
        let records = self.provenance.recent(usize::MAX);
        recorder::walk_chains(&events, &records, "the trace ring", |rec| {
            if self.commits.roots_covering(rec.lsn_first, rec.lsn_last).is_empty() {
                return Err(format!(
                    "record for {}: consumed lsns {}..={} but no update.commit trace root \
                     covers that range",
                    rec.url, rec.lsn_first, rec.lsn_last
                ));
            }
            Ok(())
        })
    }

    /// Assemble a full (non-stable) bundle and capture it into the
    /// recorder's ring and, when a flight directory is armed, onto disk.
    /// A failed disk write loses that capture and nothing else — a
    /// post-mortem aid must never take the portal down — and the bundle is
    /// returned either way.
    pub fn capture_flight_record(&self, reason: &str, now: u64) -> FlightBundle {
        let bundle = self.flight_bundle(reason, now);
        let _ = self.recorder.record(reason, now, &bundle);
        bundle
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combined_snapshot_has_all_sections() {
        let obs = Obs::new();
        obs.metrics.counter("cache.page.hits").add(3);
        obs.staleness.stamp(1, 1, 10);
        obs.staleness.on_sync_point(1, 50, 2);
        obs.tracer.event("core", "sync.point", 50, "lsn=1");
        obs.metrics.counter("cache.page.misses").add(1);
        let snap = obs.snapshot();
        assert_eq!(snap.metrics.counters["cache.page.hits"], 3);
        assert_eq!(snap.staleness.commit_to_eject_micros.count, 2);
        assert_eq!(snap.trace.recorded, 1);
        assert_eq!(snap.derived.page_cache_hit_ratio, 0.75);
        // The whole document renders and reads back as what it was.
        let text = serde_json::to_string_pretty(&snap).unwrap();
        assert_eq!(serde_json::from_str::<Snapshot>(&text).unwrap(), snap);
    }
}
