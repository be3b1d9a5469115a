//! Freshness SLO engine: a fixed set of objectives evaluated over sliding
//! windows, with Prometheus-style multi-window burn-rate alerting.
//!
//! Every objective is reduced to a good/bad event stream — a latency
//! objective classifies each observation against its threshold, a ratio
//! objective (hit rate, poll success) counts outcomes directly — so the
//! burn-rate math is uniform:
//!
//! ```text
//! burn(window) = bad_fraction(window) / (1 - goal)
//! ```
//!
//! An alert pair fires when the burn rate exceeds its threshold in BOTH
//! the short and the long window (the short window makes the alert fast to
//! resolve, the long window keeps one bad minute from paging). The pairs
//! follow SRE practice: fast = 5m/1h at 14.4× (page severity),
//! slow = 30m/6h at 6× (ticket severity).
//!
//! There is one objective per [`SloKind`], whose threshold and goal are
//! match arms on the kind; there is nothing to configure.
//!
//! All windows run on the portal's *logical* clock, so evaluation is
//! deterministic under a fixed seed. The one wall-clock-fed objective
//! (sync-point latency) is marked `deterministic: false` and is skipped by
//! the `stable=1` rendering that the flight recorder's byte-stability
//! contract relies on.
//!
//! Firing/resolved transitions append to a bounded alert log that the
//! JSONL exporter cursors over, exactly like the trace and provenance
//! rings.

use crate::health::HealthSnapshot;
use crate::ring::Ring;
use crate::stripe::Striped;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};

const MINUTE: u64 = 60_000_000;
const HOUR: u64 = 60 * MINUTE;

/// What a sliding-window objective measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SloKind {
    /// Per-ejected-page commit→eject staleness window (weighted by pages).
    StalenessP99,
    /// Per-sync commit→eject latency (one sample per consuming sync point).
    CommitEject,
    /// Cache hit rate over routable (cacheable) requests.
    HitRate,
    /// Wall-clock sync-point latency (non-deterministic feed).
    SyncLatency,
    /// Poll success rate (faulted polls are the bad events).
    PollErrors,
    /// Bus delivery success rate (failed/dropped delivery attempts are the
    /// bad events; acked deliveries are good).
    BusDelivery,
}

impl SloKind {
    /// Every objective, in the order `/slo` lists them (each kind's
    /// discriminant is its place here).
    const ALL: [SloKind; 6] = [
        SloKind::StalenessP99,
        SloKind::CommitEject,
        SloKind::HitRate,
        SloKind::SyncLatency,
        SloKind::PollErrors,
        SloKind::BusDelivery,
    ];

    /// Stable kebab-case identifier (used as the objective id, in alert
    /// lines, and in metric names).
    pub fn as_str(self) -> &'static str {
        match self {
            SloKind::StalenessP99 => "staleness-p99",
            SloKind::CommitEject => "commit-eject",
            SloKind::HitRate => "hit-rate",
            SloKind::SyncLatency => "sync-latency-p95",
            SloKind::PollErrors => "poll-error-rate",
            SloKind::BusDelivery => "bus-delivery-rate",
        }
    }

    /// Good/bad classification threshold of a latency kind: an event is
    /// good when `value <= threshold`. Ratio kinds count outcomes and have
    /// none (0).
    fn threshold_micros(self) -> u64 {
        match self {
            SloKind::StalenessP99 => 1_000_000,
            SloKind::CommitEject => 2_000_000,
            SloKind::SyncLatency => 250_000,
            SloKind::HitRate | SloKind::PollErrors | SloKind::BusDelivery => 0,
        }
    }

    /// Required good fraction.
    fn goal(self) -> f64 {
        match self {
            SloKind::StalenessP99 | SloKind::PollErrors => 0.99,
            SloKind::CommitEject | SloKind::SyncLatency | SloKind::BusDelivery => 0.95,
            SloKind::HitRate => 0.50,
        }
    }

    /// Whether the feed is purely logical-clock driven. The one wall-fed
    /// objective is excluded from `stable=1` renderings.
    fn deterministic(self) -> bool {
        self != SloKind::SyncLatency
    }

    /// Error budget: the tolerated bad fraction.
    fn budget(self) -> f64 {
        1.0 - self.goal()
    }
}

/// A short/long burn-rate window pair with its firing threshold (a row of
/// the `/slo` document's `pairs`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BurnPair {
    /// Stable name ("fast" / "slow").
    pub name: Cow<'static, str>,
    /// Alerting severity rendered in alert lines ("page" / "ticket").
    pub severity: Cow<'static, str>,
    /// Short window (fast resolution) in logical micros.
    pub short_micros: u64,
    /// Long window (flap suppression) in logical micros.
    pub long_micros: u64,
    /// Burn-rate threshold that BOTH windows must exceed to fire.
    pub burn_threshold: f64,
}

impl BurnPair {
    /// A page-severity pair is a fast pair: it drives `/healthz` to
    /// unhealthy, any other to degraded.
    pub fn fast(&self) -> bool {
        self.severity == "page"
    }
}

/// The window pairs every objective is evaluated over: fast (5m/1h at
/// 14.4×, page) and slow (30m/6h at 6×, ticket).
static PAIRS: [BurnPair; 2] = [
    BurnPair {
        name: Cow::Borrowed("fast"),
        severity: Cow::Borrowed("page"),
        short_micros: 5 * MINUTE,
        long_micros: HOUR,
        burn_threshold: 14.4,
    },
    BurnPair {
        name: Cow::Borrowed("slow"),
        severity: Cow::Borrowed("ticket"),
        short_micros: 30 * MINUTE,
        long_micros: LONGEST_WINDOW,
        burn_threshold: 6.0,
    },
];

/// The longest window of [`PAIRS`] (the slow pair's long one): how far
/// back counts are kept.
const LONGEST_WINDOW: u64 = 6 * HOUR;

/// Window bucket width in logical micros.
const BUCKET: u64 = MINUTE;

/// Alert transitions the log keeps.
pub(crate) const ALERT_LOG_CAP: usize = 256;

/// Time-bucketed good/bad counts; windows query a suffix of buckets.
#[derive(Debug, Default)]
struct WindowedCounter {
    buckets: VecDeque<Bucket>,
}

#[derive(Debug, Clone, Copy)]
struct Bucket {
    start: u64,
    good: u64,
    bad: u64,
}

impl WindowedCounter {
    fn add(&mut self, now: u64, good: u64, bad: u64) {
        let start = now - now % BUCKET;
        match self.buckets.back_mut() {
            // The logical clock is monotone, but fold clock regressions
            // into the newest bucket rather than corrupting the order.
            Some(b) if b.start >= start => {
                b.good += good;
                b.bad += bad;
            }
            _ => self.buckets.push_back(Bucket { start, good, bad }),
        }
        // Keep what the longest window can still see.
        let cutoff = now.saturating_sub(LONGEST_WINDOW + BUCKET);
        while self.buckets.front().is_some_and(|b| b.start + BUCKET <= cutoff) {
            self.buckets.pop_front();
        }
    }

    /// (good, bad) totals over `[now - window, now]`.
    fn totals(&self, now: u64, window: u64) -> (u64, u64) {
        let cutoff = now.saturating_sub(window);
        let mut good = 0;
        let mut bad = 0;
        for b in self.buckets.iter().rev() {
            // A bucket contributes while any part of it overlaps the window.
            if b.start + BUCKET <= cutoff {
                break;
            }
            good += b.good;
            bad += b.bad;
        }
        (good, bad)
    }

    /// Burn rate of `kind`'s objective over `window` at logical time `now`.
    fn burn(&self, kind: SloKind, now: u64, window: u64) -> f64 {
        let (good, bad) = self.totals(now, window);
        let total = good + bad;
        if total == 0 {
            return 0.0;
        }
        (bad as f64 / total as f64) / kind.budget()
    }
}

/// One firing/resolved transition in the bounded alert log: a ring entry,
/// a row of `/slo`'s recent alerts and a JSONL `alert` line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AlertEvent {
    /// Monotone sequence number (exporter cursor key).
    pub seq: u64,
    /// Logical timestamp of the evaluation that produced the transition.
    pub ts: u64,
    /// Objective id ([`SloKind::as_str`] by default).
    pub objective: Cow<'static, str>,
    /// Window-pair name ("fast" / "slow").
    pub pair: Cow<'static, str>,
    /// Severity ("page" / "ticket").
    pub severity: Cow<'static, str>,
    /// "firing" or "resolved".
    pub state: Cow<'static, str>,
    /// Burn rate in the short window at transition time.
    pub burn_short: f64,
    /// Burn rate in the long window at transition time.
    pub burn_long: f64,
    /// Copied from the objective; false for wall-fed objectives.
    pub deterministic: bool,
}

/// One objective's burn over one window pair.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BurnStatus {
    /// Window-pair name.
    pub pair: Cow<'static, str>,
    /// Burn rate over the pair's short window.
    pub short: f64,
    /// Burn rate over the pair's long window.
    pub long: f64,
    /// Whether the pair is firing for this objective.
    pub firing: bool,
}

/// One objective as `/slo` shows it: its policy and where it stands.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObjectiveStatus {
    /// Objective id.
    pub id: Cow<'static, str>,
    /// The feeding event stream ([`SloKind::as_str`]).
    pub kind: Cow<'static, str>,
    /// Required good fraction.
    pub goal: f64,
    /// Good/bad threshold for latency kinds.
    pub threshold_micros: u64,
    /// False for a wall-fed objective (absent from a stable document).
    pub deterministic: bool,
    /// Good events over the longest window.
    pub good: u64,
    /// Bad events over the longest window.
    pub bad: u64,
    /// Burn per window pair.
    pub burn: Vec<BurnStatus>,
    /// Whether any pair is firing.
    pub firing: bool,
}

/// The alert log as `/slo` shows it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AlertLogDoc {
    /// Transitions ever recorded.
    pub recorded: u64,
    /// Transitions the log bound evicted.
    pub dropped: u64,
    /// The retained transitions, oldest first.
    pub recent: Vec<AlertEvent>,
}

/// Firing (objective, pair) combinations by pair speed.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FiringCounts {
    /// On fast (page) pairs.
    pub fast: u64,
    /// On slow (ticket) pairs.
    pub slow: u64,
}

/// The `/slo` document (and, without `context`, a flight bundle's `slo`
/// section).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SloDoc {
    /// `cacheportal.slo.v1`.
    pub schema: String,
    /// Whether the engine is observing and evaluating.
    pub enabled: bool,
    /// Whether [`SloDoc::stabilize`] has been applied.
    pub stable: bool,
    /// Logical time the burns were computed at.
    pub now: u64,
    /// The policy's window pairs.
    pub pairs: Vec<BurnPair>,
    /// Every objective's standing.
    pub objectives: Vec<ObjectiveStatus>,
    /// The bounded alert log.
    pub alerts: AlertLogDoc,
    /// What is firing now.
    pub firing: FiringCounts,
    /// The live health snapshot, so an operator sees which reason codes the
    /// firing alerts map to without a second fetch; `/slo` only.
    #[serde(skip_if = "self.context.is_none()")]
    pub context: Option<HealthSnapshot>,
}

impl SloDoc {
    /// Drop the wall-fed objectives and their alerts, so the rendering is
    /// byte-identical across replays of the same deterministic script.
    pub fn stabilize(&mut self) {
        self.stable = true;
        self.objectives.retain(|o| o.deterministic);
        self.alerts.recent.retain(|a| a.deterministic);
    }
}

/// What one [`SloEngine::evaluate`] pass produced.
#[derive(Debug, Default)]
pub struct EvalOutcome {
    /// Transitions that started firing this pass.
    pub newly_fired: Vec<AlertEvent>,
    /// Transitions that resolved this pass.
    pub newly_resolved: Vec<AlertEvent>,
    /// (objective, pair) combinations currently firing on a fast pair.
    pub fast_firing: u64,
    /// (objective, pair) combinations currently firing on a slow pair.
    pub slow_firing: u64,
}

struct EngineInner {
    /// One per objective, indexed by the kind's discriminant.
    counters: [WindowedCounter; SloKind::ALL.len()],
    /// `[objective][pair]`.
    firing: [[bool; PAIRS.len()]; SloKind::ALL.len()],
    alerts: Ring<AlertEvent>,
    last_eval_ts: u64,
}

/// The sliding-window SLO evaluator. Shared via `Obs`; all methods take
/// `&self`.
pub struct SloEngine {
    enabled: AtomicBool,
    /// Observations not yet folded into `inner`, per request thread, in the
    /// buckets of their logical time: a hit or a miss writes only its own
    /// thread's stripe. Evaluation and the document fold them first.
    observed: Striped<Mutex<[WindowedCounter; SloKind::ALL.len()]>>,
    inner: Mutex<EngineInner>,
}

impl Default for SloEngine {
    fn default() -> Self {
        SloEngine {
            enabled: AtomicBool::new(true),
            observed: Striped::default(),
            inner: Mutex::new(EngineInner {
                counters: Default::default(),
                firing: Default::default(),
                alerts: Ring::new(ALERT_LOG_CAP),
                last_eval_ts: 0,
            }),
        }
    }
}

impl SloEngine {
    /// Toggle evaluation (the off arm of `portal_load`'s `obs.*` layers and
    /// an operator kill switch). Disabling does not clear state; re-enabling
    /// resumes.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether observations and evaluation are live.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Feed `count` observations of `value_micros` to `kind`'s objective,
    /// classified against its threshold.
    pub fn observe_latency(&self, kind: SloKind, now: u64, value_micros: u64, count: u64) {
        if value_micros <= kind.threshold_micros() {
            self.observe_counts(kind, now, count, 0);
        } else {
            self.observe_counts(kind, now, 0, count);
        }
    }

    /// Feed pre-classified good/bad counts to `kind`'s objective.
    pub fn observe_counts(&self, kind: SloKind, now: u64, good: u64, bad: u64) {
        if !self.enabled() || good + bad == 0 {
            return;
        }
        self.observed.mine().lock()[kind as usize].add(now, good, bad);
    }

    /// Move every stripe's observations into the engine's counters, each
    /// objective's buckets in logical-time order.
    fn fold(&self, inner: &mut EngineInner) {
        let mut buckets = Vec::new();
        for kind in SloKind::ALL {
            for stripe in self.observed.iter() {
                buckets.extend(stripe.lock()[kind as usize].buckets.drain(..));
            }
            buckets.sort_by_key(|b: &Bucket| b.start);
            for b in buckets.drain(..) {
                inner.counters[kind as usize].add(b.start, b.good, b.bad);
            }
        }
    }

    /// Feed one boolean outcome (e.g. a cache hit/miss).
    pub fn observe_bool(&self, kind: SloKind, now: u64, good: bool) {
        self.observe_counts(kind, now, u64::from(good), u64::from(!good));
    }

    /// Evaluate every (objective, pair) combination at logical time `now`,
    /// appending firing/resolved transitions to the alert log.
    pub fn evaluate(&self, now: u64) -> EvalOutcome {
        let mut out = EvalOutcome::default();
        if !self.enabled() {
            return out;
        }
        let inner = &mut *self.inner.lock();
        self.fold(inner);
        inner.last_eval_ts = now;
        for kind in SloKind::ALL {
            let counter = &inner.counters[kind as usize];
            for (p, was) in PAIRS.iter().zip(&mut inner.firing[kind as usize]) {
                let burn_short = counter.burn(kind, now, p.short_micros);
                let burn_long = counter.burn(kind, now, p.long_micros);
                let firing = burn_short >= p.burn_threshold && burn_long >= p.burn_threshold;
                if firing {
                    if p.fast() {
                        out.fast_firing += 1;
                    } else {
                        out.slow_firing += 1;
                    }
                }
                if firing != *was {
                    let mut ev = AlertEvent {
                        seq: 0, // assigned on push
                        ts: now,
                        objective: Cow::Borrowed(kind.as_str()),
                        pair: p.name.clone(),
                        severity: p.severity.clone(),
                        state: Cow::Borrowed(if firing { "firing" } else { "resolved" }),
                        burn_short,
                        burn_long,
                        deterministic: kind.deterministic(),
                    };
                    inner.alerts.push(|seq| {
                        ev.seq = seq;
                        ev.clone()
                    });
                    if firing {
                        out.newly_fired.push(ev);
                    } else {
                        out.newly_resolved.push(ev);
                    }
                }
                *was = firing;
            }
        }
        out
    }

    /// Currently-firing (fast, slow) combination counts without
    /// re-evaluating.
    pub fn firing_counts(&self) -> (u64, u64) {
        let counts = firing_counts(&self.inner.lock().firing);
        (counts.fast, counts.slow)
    }

    /// Logical timestamp of the most recent [`SloEngine::evaluate`] pass.
    pub fn last_eval_ts(&self) -> u64 {
        self.inner.lock().last_eval_ts
    }

    /// Alert transitions with `seq >= since`, oldest first (exporter
    /// cursor access, mirroring `ProvenanceLog::since`).
    pub fn alerts_since(&self, since: u64) -> Vec<AlertEvent> {
        self.inner.lock().alerts.since(since).cloned().collect()
    }

    /// The newest `n` transitions, oldest first.
    pub fn alerts_recent(&self, n: usize) -> Vec<AlertEvent> {
        self.inner.lock().alerts.recent(n).cloned().collect()
    }

    /// The engine's part of the `/slo` document at logical time `now`
    /// (every objective, no `context`).
    pub fn doc(&self, now: u64) -> SloDoc {
        let mut inner = self.inner.lock();
        self.fold(&mut inner);
        let objectives = SloKind::ALL
            .iter()
            .map(|&kind| {
                let counter = &inner.counters[kind as usize];
                let burn: Vec<BurnStatus> = PAIRS
                    .iter()
                    .zip(inner.firing[kind as usize])
                    .map(|(p, firing)| BurnStatus {
                        pair: p.name.clone(),
                        short: counter.burn(kind, now, p.short_micros),
                        long: counter.burn(kind, now, p.long_micros),
                        firing,
                    })
                    .collect();
                let (good, bad) = counter.totals(now, LONGEST_WINDOW);
                ObjectiveStatus {
                    id: Cow::Borrowed(kind.as_str()),
                    kind: Cow::Borrowed(kind.as_str()),
                    goal: kind.goal(),
                    threshold_micros: kind.threshold_micros(),
                    deterministic: kind.deterministic(),
                    good,
                    bad,
                    firing: burn.iter().any(|b| b.firing),
                    burn,
                }
            })
            .collect();
        SloDoc {
            schema: "cacheportal.slo.v1".to_string(),
            enabled: self.enabled(),
            stable: false,
            now,
            pairs: PAIRS.to_vec(),
            objectives,
            alerts: AlertLogDoc {
                recorded: inner.alerts.recorded(),
                dropped: inner.alerts.dropped(),
                recent: inner.alerts.iter().cloned().collect(),
            },
            firing: firing_counts(&inner.firing),
            context: None,
        }
    }
}

/// Firing (objective, pair) combinations by pair speed.
fn firing_counts(firing: &[[bool; PAIRS.len()]]) -> FiringCounts {
    let mut counts = FiringCounts { fast: 0, slow: 0 };
    for row in firing {
        for (p, _) in PAIRS.iter().zip(row).filter(|(_, &f)| f) {
            if p.fast() {
                counts.fast += 1;
            } else {
                counts.slow += 1;
            }
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Five seconds: a bad event against the 1 s staleness objective.
    const BAD: u64 = 5_000_000;

    #[test]
    fn kinds_are_listed_in_discriminant_order() {
        for (i, kind) in SloKind::ALL.into_iter().enumerate() {
            assert_eq!(kind as usize, i, "{}", kind.as_str());
        }
    }

    #[test]
    fn burn_rate_fires_and_resolves() {
        let e = SloEngine::default();
        // All good: nothing fires.
        e.observe_latency(SloKind::StalenessP99, 1_000, 50, 10);
        let out = e.evaluate(1_000);
        assert!(out.newly_fired.is_empty());
        assert_eq!(e.firing_counts(), (0, 0));
        // A burst of bad windows: bad fraction 0.5 ≫ 14.4 × 0.01 budget.
        e.observe_latency(SloKind::StalenessP99, 2_000, BAD, 10);
        let out = e.evaluate(2_000);
        assert_eq!(out.newly_fired.len(), 2, "fast and slow pairs both fire");
        assert_eq!(out.fast_firing, 1);
        assert_eq!(out.slow_firing, 1);
        assert_eq!(e.firing_counts(), (1, 1));
        // Steady state: still firing, but no new transitions.
        let out = e.evaluate(3_000);
        assert!(out.newly_fired.is_empty() && out.newly_resolved.is_empty());
        assert_eq!(out.fast_firing, 1);
        // Advance past the longest window: the bad events age out.
        let later = 3_000 + 7 * HOUR;
        let out = e.evaluate(later);
        assert_eq!(out.newly_resolved.len(), 2);
        assert_eq!(e.firing_counts(), (0, 0));
        // Transition log: firing, firing, resolved, resolved.
        let alerts = e.alerts_since(0);
        assert_eq!(alerts.len(), 4);
        assert!(alerts[0].state == "firing" && alerts[3].state == "resolved");
        assert_eq!(alerts[0].objective, "staleness-p99");
    }

    #[test]
    fn short_window_recovers_before_long() {
        // After a breach, fresh good traffic clears the short window while
        // the long window still remembers the bad burst — the AND of the
        // two windows is what resolves the alert quickly.
        let e = SloEngine::default();
        e.observe_latency(SloKind::StalenessP99, 1_000, BAD, 100);
        assert_eq!(e.evaluate(1_000).newly_fired.len(), 2);
        // 10 minutes later (outside 5m, inside 1h), all-good traffic.
        let later = 1_000 + 10 * MINUTE;
        e.observe_latency(SloKind::StalenessP99, later, 10, 100);
        let out = e.evaluate(later);
        // Fast pair resolves: its 5m short window holds only the clean
        // traffic. The slow pair's 30m short window still spans the burst
        // (bad fraction 0.5 ≫ 6 × 0.01 budget), so it keeps firing.
        assert!(out.newly_resolved.iter().any(|a| a.pair == "fast"));
        assert!(e.firing_counts().1 >= 1, "slow pair still firing");
    }

    #[test]
    fn ratio_objective_counts_outcomes() {
        let e = SloEngine::default();
        e.observe_counts(SloKind::PollErrors, 500, 6, 6);
        let out = e.evaluate(500);
        assert_eq!(out.fast_firing, 1);
        let doc = e.doc(500);
        let polls = doc.objectives.iter().find(|o| o.id == "poll-error-rate").unwrap();
        assert_eq!(polls.bad, 6);
        assert_eq!(doc.firing.fast, 1);
    }

    #[test]
    fn alert_log_is_bounded_with_dropped_counter() {
        let e = SloEngine::default();
        // Flap the objective: bad burst → fire, age out → resolve, repeat,
        // two flaps more than the log holds.
        let flaps = ALERT_LOG_CAP / 4 + 2;
        let mut now = 1_000;
        for _ in 0..flaps {
            e.observe_latency(SloKind::StalenessP99, now, BAD, 10);
            e.evaluate(now);
            now += 7 * HOUR;
            e.evaluate(now);
            now += MINUTE;
        }
        // flaps × 2 pairs × 2 transitions recorded; the log keeps its cap.
        let alerts = e.doc(now).alerts;
        assert_eq!(alerts.recorded, 4 * flaps as u64);
        assert_eq!(alerts.dropped, 8);
        assert_eq!(e.alerts_since(0).len(), ALERT_LOG_CAP);
        // The cursor view only sees what survived the ring.
        let first_kept = e.alerts_since(0)[0].seq;
        assert_eq!(first_kept, 8);
    }

    #[test]
    fn disabled_engine_observes_nothing() {
        let e = SloEngine::default();
        e.set_enabled(false);
        e.observe_latency(SloKind::StalenessP99, 1_000, u64::MAX, 100);
        let out = e.evaluate(1_000);
        assert_eq!(out.fast_firing + out.slow_firing, 0);
        e.set_enabled(true);
        assert_eq!(e.doc(1_000).objectives[0].bad, 0);
    }

    #[test]
    fn stable_rendering_skips_wall_fed_objectives() {
        let e = SloEngine::default();
        e.observe_latency(SloKind::SyncLatency, 1_000, u64::MAX, 50);
        e.evaluate(1_000);
        let mut doc = e.doc(1_000);
        let full = serde_json::to_string_pretty(&doc).unwrap();
        doc.stabilize();
        let stable = serde_json::to_string_pretty(&doc).unwrap();
        assert!(full.contains("sync-latency-p95"));
        assert!(!stable.contains("sync-latency-p95"));
        assert!(stable.contains("\"stable\": true"));
    }
}
