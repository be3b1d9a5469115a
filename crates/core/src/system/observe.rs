//! The sync point's observer: the one place a sync point becomes spans,
//! provenance records, registry counters, the staleness window, scorecard
//! rows, the timeline entry and SLO observations, and the telemetry the
//! admin server reads beyond the portal's [`Obs`]. `sync_point` calls
//! [`CachePortal::observe_sync`] once, after its last stage and under the
//! invalidator lock; nothing here changes what the stages decided.

use super::{CachePortal, Delivered, SyncRun};
use crate::durability::{micros_since, PersistOutcome};
use cacheportal_bus::InvalidationBus;
use cacheportal_invalidator::{InvalidationReport, Invalidator, QueryTypeId};
use cacheportal_obs::{
    AdminSource, Cause, Counter, DeltaGroup, EjectRecord, Gauge, Obs, QiRow, Reason, SloKind,
    StageSample, SyncTimeline, TraceContext, TypeSyncOutcome,
};
use cacheportal_sniffer::QiUrlMap;
use cacheportal_web::{AppServer, Clock, ManualClock, PageKey, SharedDb};
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

/// What the admin server needs of the portal beyond its [`Obs`]: the
/// component-owned cumulative statistics it mirrors into the registry, the
/// logical clock, the QI/URL map and the bus. The `cache.page.*` family is
/// absent from the mirroring on purpose — the page cache publishes its stats
/// live (see `PageCache::wire_metrics`), so mirroring it again could race a
/// concurrent cache mutation and step backwards. The mirror is refreshed
/// where it is read — `metrics_snapshot`, `flight_record`, an SLO breach's
/// capture and the admin routes — and not by every sync point.
pub(super) struct TelemetryHub {
    pub(super) db: SharedDb,
    /// Every node's application server (their connection pools are summed).
    pub(super) apps: Vec<Arc<AppServer>>,
    pub(super) map: Arc<QiUrlMap>,
    pub(super) obs: Arc<Obs>,
    pub(super) clock: Arc<ManualClock>,
    pub(super) bus: Arc<InvalidationBus>,
}

impl AdminSource for TelemetryHub {
    /// Mirror component-owned cumulative statistics (database, connection
    /// pool, QI/URL map, bus) into the registry.
    fn refresh(&self) {
        let m = &self.obs.metrics;
        let (s, log_pending) = {
            let db = self.db.read();
            (db.stats(), db.update_log().len())
        };
        m.counter("db.selects").set_total(s.selects);
        m.counter("db.inserts").set_total(s.inserts);
        m.counter("db.deletes").set_total(s.deletes);
        m.counter("db.updates").set_total(s.updates);
        m.counter("db.txn.begins").set_total(s.txn_begins);
        m.counter("db.txn.commits").set_total(s.txn_commits);
        m.counter("db.txn.aborts").set_total(s.txn_aborts);
        m.counter("db.exec.rows_scanned").set_total(s.exec.rows_scanned);
        m.counter("db.exec.rows_joined").set_total(s.exec.rows_joined);
        m.counter("db.exec.rows_output").set_total(s.exec.rows_output);
        m.counter("db.exec.index_probes").set_total(s.exec.index_probes);
        m.counter("db.exec.seq_scans").set_total(s.exec.seq_scans);
        m.gauge("db.log.pending").set(log_pending as i64);

        let pools = || self.apps.iter().map(|a| a.pool().stats());
        m.counter("web.pool.checkouts").set_total(pools().map(|p| p.checkouts).sum());
        m.counter("web.pool.created").set_total(pools().map(|p| p.created).sum());
        m.counter("web.pool.overflow").set_total(pools().map(|p| p.overflow).sum());

        m.gauge("sniffer.map.entries").set(self.map.len() as i64);

        let s = self.bus.stats();
        m.counter("bus.published").set_total(s.published);
        m.counter("bus.rounds").set_total(s.rounds);
        m.counter("bus.deliveries_ok").set_total(s.deliveries_ok);
        m.counter("bus.delivery_failures").set_total(s.delivery_failures);
        m.counter("bus.retries").set_total(s.retries);
        m.counter("bus.catch_up_batches").set_total(s.catch_up_batches);
        m.counter("bus.reboots").set_total(s.reboots);
        m.counter("bus.duplicates_absorbed").set_total(s.duplicates_absorbed);
        m.counter("bus.self_ejections").set_total(s.self_ejections);
        m.counter("bus.flushed_pages").set_total(s.flushed_pages);
        m.gauge("bus.edges").set(s.edges as i64);
        m.gauge("bus.retained").set(s.retained as i64);
    }

    fn now_micros(&self) -> u64 {
        self.clock.now_micros()
    }

    /// The QI→URL half of an explanation: the query instances this page is
    /// registered against in the sniffer's map.
    fn qi_rows(&self, url: &str) -> Vec<QiRow> {
        let rows = self.map.entries_for_page(&PageKey::raw(url));
        rows.into_iter()
            .map(|e| QiRow { id: e.id, sql: e.sql, servlet: e.servlet.to_string() })
            .collect()
    }

    /// `/bus`: per-edge watermark/lag/partition state plus the bus's
    /// aggregate delivery counters.
    fn bus(&self) -> String {
        serde_json::to_string_pretty(&self.bus.doc()).expect("the bus document renders")
    }
}

/// Pre-resolved SLO metric handles. `observe_slo` runs on every sync
/// point, so the registry lookups (and the `health.reason.*` name
/// formatting) happen once at assembly, keeping the per-sync cost to
/// plain atomic stores.
pub(super) struct SloMetricHandles {
    firing_fast: Arc<Gauge>,
    firing_slow: Arc<Gauge>,
    alerts_fired: Arc<Counter>,
    alerts_resolved: Arc<Counter>,
    flight_auto: Arc<Counter>,
    /// One gauge per canonical reason code, so `/metrics` tells the same
    /// story as `/healthz` and `/slo` (single `Reason` enum everywhere).
    reasons: [(Reason, Arc<Gauge>); Reason::ALL.len()],
}

impl SloMetricHandles {
    pub(super) fn resolve(obs: &Obs) -> Self {
        SloMetricHandles {
            firing_fast: obs.metrics.gauge("slo.firing.fast"),
            firing_slow: obs.metrics.gauge("slo.firing.slow"),
            alerts_fired: obs.metrics.counter("slo.alerts.fired"),
            alerts_resolved: obs.metrics.counter("slo.alerts.resolved"),
            flight_auto: obs.metrics.counter("slo.flight_records.auto"),
            reasons: Reason::ALL.map(|r| {
                (r, obs.metrics.gauge(&format!("health.reason.{}", r.as_str())))
            }),
        }
    }
}

impl CachePortal {
    /// The one place a sync point is observed: called once, after the last
    /// stage and still under the invalidator lock (so the registry the
    /// scorecards read is the one the verdicts were made against), it turns
    /// the stage outputs into spans, provenance records, registry counters,
    /// the staleness window, scorecard rows, the timeline entry and SLO
    /// observations. Each instrument sees its events in a pinned order
    /// (`tests/golden_sync.rs`); SLO evaluation runs last so its health
    /// snapshot — and the context a breach-triggered flight record carries
    /// — already reflects this sync's breaker, bus and journal state.
    pub(super) fn observe_sync(&self, invalidator: &Invalidator, run: &SyncRun) {
        let inv = &run.invalidation;
        let ejected = run.ejected.keys.len();
        let (root, stages) = self.trace_stages(run);
        self.observe_delivery(&run.delivered, run.ts);
        if let Some((outcome, stats)) = &run.persisted.journal {
            self.observe_journal(outcome, stats);
        }

        // `consumed` is a high-water position (one past the last consumed
        // record); the probe drains stamps by inclusive LSN.
        let staleness_window = self.obs.staleness.on_sync_point(
            run.consumed.saturating_sub(1),
            self.clock.now_micros(),
            ejected,
        );
        self.update_scorecards(invalidator, inv, staleness_window);
        let (lsn_first, lsn_last) = inv.lsn_range.unwrap_or((0, 0));
        self.obs.timeline.record(SyncTimeline {
            sync_seq: run.sync_seq,
            ts: run.ts,
            trace_id: root.trace_id,
            span_id: root.span_id,
            lsn_first,
            lsn_last,
            records: inv.records_consumed,
            ejected: ejected as u64,
            polls: inv.polls.issued,
            stages,
            wall_micros: micros_since(run.started),
        });

        self.count_sync(run);
        let now = self.clock.now_micros();
        self.obs.tracer.child_event(
            root,
            "core",
            "sync.summary",
            now,
            format!(
                "records={} polls={} local={} ejected={}",
                inv.records_consumed, inv.polls.issued, inv.local_decisions, ejected
            ),
        );
        if ejected > 0 {
            self.obs.tracer.child_event(root, "cache", "sync.eject", now, format!("{ejected} pages"));
        }
        self.observe_slo(run, staleness_window);
    }

    /// The sync point's trace: the `sync.point` root, one span per stage,
    /// the eject records under the eject span, the delivery round. Returns
    /// the root and the stages' timeline samples. The timeline lists the
    /// index probe before analysis, the trace the other way round, and both
    /// renderings are pinned byte for byte. Durations are measured
    /// wall-clock.
    fn trace_stages(&self, run: &SyncRun) -> (TraceContext, Vec<StageSample>) {
        struct Stage {
            component: &'static str,
            span: &'static str,
            detail: String,
            micros: u64,
            work: u64,
        }
        let stage = |component, span, detail, micros, work| Stage { component, span, detail, micros, work };
        let sample = |s: &Stage| StageSample {
            name: s.span["sync.phase.".len()..].into(),
            micros: s.micros,
            work: s.work,
        };
        let (mapper, inv) = (&run.mapper, &run.invalidation);
        let ejected = run.ejected.keys.len() as u64;
        let mapped = stage(
            "sniffer",
            "sync.phase.mapper",
            format!("mapped={} lost={}", mapper.mapped, mapper.lost),
            mapper.elapsed_micros,
            mapper.mapped,
        );
        let registration = stage(
            "invalidator",
            "sync.phase.registration",
            format!("registered={}", inv.registered),
            inv.registration_micros,
            inv.registered,
        );
        let delta = stage(
            "invalidator",
            "sync.phase.delta",
            format!("records={}", inv.records_consumed),
            inv.delta_micros,
            inv.records_consumed,
        );
        let analysis = stage(
            "invalidator",
            "sync.phase.analysis",
            format!("tuples={}", inv.tuples_analyzed),
            inv.analysis_micros,
            inv.tuples_analyzed,
        );
        let index = stage(
            "invalidator",
            "sync.phase.index",
            format!(
                "candidates={} skipped={} residual={}",
                inv.index_candidates, inv.index_skipped, inv.index_residual_scanned
            ),
            inv.index_probe_micros,
            inv.index_candidates,
        );
        let eject =
            stage("cache", "sync.phase.eject", format!("{ejected} pages"), run.ejected.micros, ejected);
        let persist = stage(
            "core",
            "sync.phase.persist",
            format!("watermarks={}", run.persisted.work),
            run.persisted.micros,
            run.persisted.work,
        );
        let samples =
            [&mapped, &registration, &delta, &index, &analysis, &eject, &persist].map(sample).to_vec();

        let tracer = &self.obs.tracer;
        let root =
            tracer.start_trace("core", "sync.point", run.ts, format!("sync#{}", run.sync_seq));
        let span =
            |s: Stage| tracer.child_span(root, s.component, s.span, run.ts, s.detail, s.micros);
        for s in [mapped, registration, delta, analysis, index] {
            span(s);
        }
        // The eject span is recorded before the provenance records so each
        // record's parent link resolves to it in the ring.
        let eject_ctx = span(eject);
        self.record_provenance(run, eject_ctx);
        let Delivered { published, round, micros, edges, partitioned } = &run.delivered;
        let bus_ctx = tracer.child_span(
            root,
            "bus",
            "sync.phase.bus",
            run.ts,
            format!(
                "seq={} ok={} failed={} catchup={} partitioned={}",
                published,
                round.deliveries_ok,
                round.failed_attempts,
                round.catch_up_batches,
                partitioned,
            ),
            *micros,
        );
        for row in edges.iter().filter(|row| row.connected) {
            tracer.child_event(
                bus_ctx,
                "bus",
                "edge.apply",
                run.ts,
                format!("{} acked={} lag={}", row.name, row.acked, row.lag),
            );
        }
        span(persist);
        (root, samples)
    }

    /// Fold one sync point's reports into the metrics registry (the breaker
    /// gauges are what `/healthz` reads).
    fn count_sync(&self, run: &SyncRun) {
        let (mapper, inv, guard) = (&run.mapper, &run.invalidation, &run.guard);
        let m = &self.obs.metrics;

        m.counter("invalidator.sync_points").inc();
        m.counter("sniffer.mapper.mapped").add(mapper.mapped);
        m.counter("sniffer.mapper.ambiguous").add(mapper.ambiguous);
        m.counter("sniffer.mapper.retained").add(mapper.retained);
        m.counter("sniffer.mapper.dropped").add(mapper.dropped);
        m.counter("sniffer.mapper.non_select").add(mapper.non_select);
        m.counter("sniffer.mapper.unparseable").add(mapper.unparseable);
        m.counter("sniffer.records.lost").add(mapper.lost);
        m.histogram("sniffer.mapper.run_micros").record(mapper.elapsed_micros);

        m.counter("invalidator.records_consumed").add(inv.records_consumed);
        m.counter("invalidator.tuples_analyzed").add(inv.tuples_analyzed);
        m.counter("invalidator.checked_instances").add(inv.checked_instances);
        m.counter("invalidator.invalidated_instances").add(inv.invalidated_instances);
        m.counter("invalidator.registered").add(inv.registered);
        m.counter("invalidator.bind_failures").add(inv.bind_failures);
        m.counter("invalidator.degraded_by_budget").add(inv.degraded_by_budget);
        m.counter("invalidator.newly_non_cacheable")
            .add(inv.newly_non_cacheable.len() as u64);
        m.counter("invalidator.polls.issued").add(inv.polls.issued);
        m.counter("invalidator.polls.from_cache").add(inv.polls.from_cache);
        m.counter("invalidator.polls.from_index").add(inv.polls.from_index);
        m.counter("invalidator.polls.delete_guard_hits")
            .add(inv.polls.delete_guard_hits);
        m.counter("invalidator.polls.faulted").add(inv.polls.faulted);
        m.counter("invalidator.polls.retries").add(inv.polls.retries);
        m.counter("invalidator.poll_fault_verdicts").add(inv.poll_faults);
        // Predicate-index telemetry: how much of the instance scan the
        // equality/range tiers skipped, how much fell through to the
        // residual full scan, and what the index costs to keep and probe.
        m.counter("invalidator.index.candidates").add(inv.index_candidates);
        m.counter("invalidator.index.skipped").add(inv.index_skipped);
        m.counter("invalidator.index.residual_scanned")
            .add(inv.index_residual_scanned);
        m.counter("invalidator.index.probed_types").add(inv.index_probed_types);
        m.counter("invalidator.index.residual_types").add(inv.index_residual_types);
        m.counter("invalidator.index.probe_micros").add(inv.index_probe_micros);
        m.counter("invalidator.index.divergences").add(inv.index_divergences);
        // Shape-rule telemetry: instances the TopK boundary / aggregate
        // delta rules kept cached, and the boundary polls they cost.
        m.counter("invalidator.shape.topk_skipped").add(inv.shape_topk_skipped);
        m.counter("invalidator.shape.agg_skipped").add(inv.shape_agg_skipped);
        m.counter("invalidator.shape.boundary_polls")
            .add(inv.shape_boundary_polls);
        m.counter("invalidator.shape.netting_guard_ejected")
            .add(guard.netting_guard_ejected as u64);
        m.gauge("invalidator.index.size").set(inv.index_size as i64);
        m.gauge("invalidator.index.maintenance_micros")
            .set(inv.index_maintenance_micros as i64);
        m.counter("invalidator.breaker.opened").add(inv.breaker_opened);
        m.counter("invalidator.breaker.half_opened").add(inv.breaker_half_opened);
        m.counter("invalidator.breaker.closed").add(inv.breaker_closed);
        m.counter("invalidator.breaker.degraded_verdicts").add(inv.breaker_degraded);
        m.gauge("invalidator.breaker.open_types").set(inv.breaker_open_types as i64);
        m.gauge("invalidator.breaker.half_open_types").set(inv.breaker_half_open_types as i64);
        m.counter("core.fault.ejected_conservative")
            .add(guard.fault_ejected as u64);
        m.counter("invalidator.polls.avoided_local").add(inv.local_decisions);
        m.counter("invalidator.pages.ejected").add(run.ejected.keys.len() as u64);
        if let Some(over) = guard.over_invalidations {
            m.counter("invalidator.audited_sync_points").inc();
            m.counter("invalidator.over_invalidations").add(over);
        }

        m.histogram("invalidator.sync.elapsed_micros")
            .record(inv.elapsed.as_micros().min(u64::MAX as u128) as u64);
        m.histogram("invalidator.sync.registration_micros").record(inv.registration_micros);
        m.histogram("invalidator.sync.delta_micros").record(inv.delta_micros);
        m.histogram("invalidator.sync.analysis_micros").record(inv.analysis_micros);
        m.histogram("invalidator.sync.collect_micros").record(inv.collect_micros);
        m.histogram("core.sync.wall_micros").record(micros_since(run.started));
    }

    /// Feed one sync point's outcomes to the freshness SLO engine and
    /// evaluate the burn-rate windows: the closed staleness window scores
    /// the staleness-p99 (weighted by pages ejected — each carried the
    /// exposure) and commit→eject objectives, the poll tallies score the
    /// poll-error-rate, and the measured sync wall-clock scores the
    /// (non-deterministic) sync-latency objective. Newly fired alerts
    /// update `/healthz` and trigger an automatic black-box capture per
    /// alert. The reason-code gauges are written on every sync point, the
    /// engine on or off.
    fn observe_slo(&self, run: &SyncRun, staleness_window: Option<u64>) {
        let slo = &self.obs.slo;
        let m = &self.slo_metrics;
        let now = self.clock.now_micros();
        let out = slo.enabled().then(|| {
            let polls = &run.invalidation.polls;
            if let Some(window) = staleness_window {
                let ejected = run.ejected.keys.len() as u64;
                slo.observe_latency(SloKind::StalenessP99, now, window, ejected.max(1));
                slo.observe_latency(SloKind::CommitEject, now, window, 1);
            }
            if polls.issued > 0 {
                let bad = polls.faulted.min(polls.issued);
                slo.observe_counts(SloKind::PollErrors, now, polls.issued - bad, bad);
            }
            slo.observe_latency(SloKind::SyncLatency, now, micros_since(run.started), 1);
            let out = slo.evaluate(now);
            m.firing_fast.set(out.fast_firing as i64);
            m.firing_slow.set(out.slow_firing as i64);
            m.alerts_fired.add(out.newly_fired.len() as u64);
            m.alerts_resolved.add(out.newly_resolved.len() as u64);
            out
        });
        // The reason gauges tell `/healthz`'s story whether or not the SLO
        // engine runs: a breaker or a journal error is a reason without it.
        let snap = self.obs.health.snapshot(&self.obs.metrics);
        for (r, gauge) in &m.reasons {
            gauge.set(snap.reason_count(*r) as i64);
        }
        // The black box flies itself: each newly fired alert captures a
        // bundle while the evidence (trace ring, provenance tail, timeline)
        // still covers the breach window.
        for alert in out.iter().flat_map(|out| &out.newly_fired) {
            m.flight_auto.inc();
            self.hub.refresh();
            let reason = format!("slo-breach:{}:{}", alert.objective, alert.pair);
            self.obs.capture_flight_record(&reason, now);
        }
    }

    /// One [`EjectRecord`] per page named by the invalidation: the consumed
    /// LSN range and ΔR groups, the affected query instances whose pages
    /// include the URL (with their verdicts), and whether the page was
    /// actually resident when ejected. Rolled-back transactions rewind the
    /// update log before any sync point sees them, so their LSNs can never
    /// appear here.
    fn record_provenance(&self, run: &SyncRun, eject_ctx: TraceContext) {
        let inv = &run.invalidation;
        let Some((lsn_first, lsn_last)) = inv.lsn_range else {
            return;
        };
        if inv.pages.is_empty() {
            return;
        }
        let ts = self.clock.now_micros();
        let deltas: Vec<DeltaGroup> = inv
            .delta_groups
            .iter()
            .map(|g| DeltaGroup {
                table: g.table.clone(),
                inserted: g.inserted,
                deleted: g.deleted,
            })
            .collect();
        let resident: HashSet<&PageKey> = run.ejected.keys.iter().collect();
        // HashSet iteration order is nondeterministic; sort so record
        // sequence numbers are stable run to run.
        let mut pages: Vec<&PageKey> = inv.pages.iter().collect();
        pages.sort();
        for page in pages {
            let causes: Vec<Cause> = inv
                .verdicts
                .iter()
                .filter(|v| v.pages.contains(page))
                .map(|v| Cause {
                    query_type: v.type_id.0,
                    type_sql: v.type_sql.clone(),
                    params: v.params.iter().map(|p| p.to_string()).collect(),
                    verdict: v.cause.kind.as_str().to_string(),
                    detail: v.cause.detail.clone(),
                })
                .collect();
            // Each record *is* a span of the sync's eject phase: it carries
            // its own allocated span id without burning a ring event per
            // page (the record itself is the span's storage).
            let span = self.obs.tracer.alloc_span(eject_ctx);
            self.obs.provenance.record(EjectRecord {
                seq: 0, // assigned by the log
                sync_seq: run.sync_seq,
                ts,
                lsn_first,
                lsn_last,
                deltas: deltas.clone(),
                url: page.text().clone(),
                resident: resident.contains(page),
                causes,
                trace_id: span.trace_id,
                span_id: span.span_id,
                parent_span: if span.is_some() { eject_ctx.span_id } else { 0 },
            });
        }
    }

    /// Fold one sync point into the per-query-type cost/benefit scorecards:
    /// attribute request tallies buffered since the last sync to the types
    /// now registered for those pages, then credit this window's
    /// invalidation churn, poll spend, and staleness to the types that
    /// caused it. Runs inside the sync critical section so the registry
    /// snapshot is consistent with the verdicts.
    fn update_scorecards(
        &self,
        invalidator: &Invalidator,
        inv: &InvalidationReport,
        staleness_window: Option<u64>,
    ) {
        if !self.obs.scorecards.enabled() {
            return;
        }
        let reg = invalidator.registry();
        self.obs.scorecards.attribute_pending(
            |url, types| types.extend(reg.types_of_page(url).iter().map(|id| id.0)),
            |id| reg.get(QueryTypeId(id)).sql.clone(),
        );

        let window = staleness_window.unwrap_or(0);
        let mut by_type: BTreeMap<u32, TypeSyncOutcome> = BTreeMap::new();
        for v in &inv.verdicts {
            let entry = by_type.entry(v.type_id.0).or_insert_with(|| TypeSyncOutcome {
                type_id: v.type_id.0,
                sql: v.type_sql.clone(),
                ..TypeSyncOutcome::default()
            });
            entry.invalidations += 1;
            entry.pages_ejected += v.pages.len() as u64;
            if window > 0 {
                // The window closed by this sync is credited to every type
                // it invalidated: each carried (at least) this much
                // commit-to-eject staleness exposure.
                entry.staleness_micros += window;
                entry.staleness_events += 1;
            }
        }
        for t in &inv.per_type {
            let entry = by_type.entry(t.id.0).or_insert_with(|| TypeSyncOutcome {
                type_id: t.id.0,
                sql: reg.get(t.id).sql.clone(),
                ..TypeSyncOutcome::default()
            });
            entry.polls += t.polls_attempted;
            entry.index_candidates += t.index_candidates;
            entry.index_skipped += t.index_skipped;
            entry.index_residual += t.index_residual;
            entry.shape = t.shape.as_str().to_string();
            entry.shape_skipped += t.shape_skipped;
        }
        let outcomes: Vec<TypeSyncOutcome> = by_type.into_values().collect();
        self.obs.scorecards.note_sync(&outcomes);
    }

    /// Publish the round's partitioned edges (`bus.partitioned_edges`, what
    /// `/healthz` reads; the bus's other counters are mirrored where they
    /// are read) and score the round against the bus-delivery SLO
    /// objective.
    fn observe_delivery(&self, delivered: &Delivered, now: u64) {
        let round = &delivered.round;
        self.obs.metrics.gauge("bus.partitioned_edges").set(delivered.partitioned as i64);
        if !delivered.edges.is_empty() && self.obs.slo.enabled() {
            self.obs.slo.observe_counts(
                SloKind::BusDelivery,
                now,
                round.deliveries_ok,
                round.failed_attempts,
            );
        }
    }

    /// Mirror the durable layer's cumulative WAL statistics and fold one
    /// persist pass's outcome into the registry (`durable.wal.errors` is
    /// what `/healthz` reads).
    fn observe_journal(&self, outcome: &PersistOutcome, stats: &cacheportal_durable::WalStats) {
        let m = &self.obs.metrics;
        m.counter("durable.wal.appends").set_total(stats.appends);
        m.counter("durable.wal.bytes").set_total(stats.bytes);
        m.counter("durable.wal.syncs").set_total(stats.syncs);
        m.counter("durable.wal.resets").set_total(stats.resets);
        m.histogram("durable.persist.micros").record(outcome.persist_micros);
        if outcome.checkpointed {
            m.counter("durable.checkpoints").inc();
            m.counter("durable.checkpoint.bytes").add(outcome.checkpoint_bytes);
            m.histogram("durable.checkpoint.micros").record(outcome.checkpoint_micros);
        }
        if outcome.errors > 0 {
            m.counter("durable.wal.errors").add(outcome.errors);
        }
    }
}
