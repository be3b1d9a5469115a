//! Freshness SLO engine: declarative objectives evaluated over sliding
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
//! resolve, the long window keeps one bad minute from paging). The default
//! pairs follow SRE practice: fast = 5m/1h at 14.4× (page severity),
//! slow = 30m/6h at 6× (ticket severity).
//!
//! All windows run on the portal's *logical* clock, so evaluation is
//! deterministic under a fixed seed. The one wall-clock-fed objective
//! (sync-point latency) is marked `deterministic: false` and is skipped by
//! the `stable=1` rendering that the flight recorder's byte-stability
//! contract relies on.
//!
//! Firing/resolved transitions append to a bounded alert log (a
//! [`Ring`]) that the JSONL exporter cursors over, exactly like the trace
//! and provenance rings.

use crate::health::HealthSnapshot;
use crate::ring::Ring;
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
}

/// One declarative objective: "`goal` of events must be good", where good
/// is `value <= threshold_micros` for latency kinds and the positive
/// outcome for ratio kinds.
#[derive(Debug, Clone)]
pub struct Objective {
    /// Stable identifier (defaults to the kind's name).
    pub id: &'static str,
    /// Which event stream feeds this objective.
    pub kind: SloKind,
    /// Good/bad classification threshold for latency kinds (ignored by
    /// ratio kinds).
    pub threshold_micros: u64,
    /// Required good fraction in [0, 1), e.g. 0.99.
    pub goal: f64,
    /// Whether the feed is purely logical-clock driven. Wall-fed
    /// objectives are excluded from `stable=1` renderings.
    pub deterministic: bool,
}

impl Objective {
    /// Objective with the kind's canonical id.
    pub fn new(kind: SloKind, threshold_micros: u64, goal: f64, deterministic: bool) -> Objective {
        Objective { id: kind.as_str(), kind, threshold_micros, goal, deterministic }
    }

    /// Error budget: the tolerated bad fraction, floored so burn rates
    /// stay finite even for goal=1.0 misconfigurations.
    fn budget(&self) -> f64 {
        (1.0 - self.goal).max(1e-4)
    }
}

/// A short/long burn-rate window pair with its firing threshold (policy,
/// and a row of the `/slo` document's `pairs`).
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

/// The full declarative policy: objectives, window pairs, and sizing.
#[derive(Debug, Clone)]
pub struct SloPolicy {
    /// Objectives, evaluated independently.
    pub objectives: Vec<Objective>,
    /// Burn-rate window pairs applied to every objective.
    pub pairs: Vec<BurnPair>,
    /// Window bucket width in logical micros (coarser = cheaper).
    pub bucket_micros: u64,
    /// Alert-log ring capacity.
    pub alert_log_cap: usize,
}

impl Default for SloPolicy {
    /// The shipped policy: the six objectives from the freshness contract
    /// and the standard fast(5m/1h@14.4×)/slow(30m/6h@6×) pairs.
    fn default() -> SloPolicy {
        SloPolicy {
            objectives: vec![
                Objective::new(SloKind::StalenessP99, 1_000_000, 0.99, true),
                Objective::new(SloKind::CommitEject, 2_000_000, 0.95, true),
                Objective::new(SloKind::HitRate, 0, 0.50, true),
                Objective::new(SloKind::SyncLatency, 250_000, 0.95, false),
                Objective::new(SloKind::PollErrors, 0, 0.99, true),
                Objective::new(SloKind::BusDelivery, 0, 0.95, true),
            ],
            pairs: SloPolicy::default_pairs(),
            bucket_micros: MINUTE,
            alert_log_cap: 256,
        }
    }
}

impl SloPolicy {
    /// The standard multi-window pairs (usable by custom policies).
    pub fn default_pairs() -> Vec<BurnPair> {
        vec![
            BurnPair {
                name: "fast".into(),
                severity: "page".into(),
                short_micros: 5 * MINUTE,
                long_micros: HOUR,
                burn_threshold: 14.4,
            },
            BurnPair {
                name: "slow".into(),
                severity: "ticket".into(),
                short_micros: 30 * MINUTE,
                long_micros: 6 * HOUR,
                burn_threshold: 6.0,
            },
        ]
    }

    fn longest_window(&self) -> u64 {
        self.pairs.iter().map(|p| p.long_micros).max().unwrap_or(6 * HOUR)
    }
}

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
    fn add(&mut self, now: u64, width: u64, good: u64, bad: u64) {
        let start = now - now % width.max(1);
        match self.buckets.back_mut() {
            // The logical clock is monotone, but fold clock regressions
            // into the newest bucket rather than corrupting the order.
            Some(b) if b.start >= start => {
                b.good += good;
                b.bad += bad;
            }
            _ => self.buckets.push_back(Bucket { start, good, bad }),
        }
    }

    /// (good, bad) totals over `[now - window, now]`.
    fn totals(&self, now: u64, width: u64, window: u64) -> (u64, u64) {
        let cutoff = now.saturating_sub(window);
        let mut good = 0;
        let mut bad = 0;
        for b in self.buckets.iter().rev() {
            // A bucket contributes while any part of it overlaps the window.
            if b.start + width.max(1) <= cutoff {
                break;
            }
            good += b.good;
            bad += b.bad;
        }
        (good, bad)
    }

    fn prune(&mut self, now: u64, width: u64, keep: u64) {
        let cutoff = now.saturating_sub(keep);
        while let Some(b) = self.buckets.front() {
            if b.start + width.max(1) > cutoff {
                break;
            }
            self.buckets.pop_front();
        }
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
    policy: SloPolicy,
    counters: Vec<WindowedCounter>,
    firing: Vec<Vec<bool>>,
    alerts: Ring<AlertEvent>,
    last_eval_ts: u64,
}

impl EngineInner {
    fn fresh(policy: SloPolicy) -> EngineInner {
        let n = policy.objectives.len();
        let pairs = policy.pairs.len();
        EngineInner {
            counters: (0..n).map(|_| WindowedCounter::default()).collect(),
            firing: vec![vec![false; pairs]; n],
            alerts: Ring::new(policy.alert_log_cap),
            last_eval_ts: 0,
            policy,
        }
    }
}

/// The sliding-window SLO evaluator. Shared via `Obs`; all methods take
/// `&self`.
pub struct SloEngine {
    enabled: AtomicBool,
    inner: Mutex<EngineInner>,
}

impl Default for SloEngine {
    fn default() -> Self {
        SloEngine::new(SloPolicy::default())
    }
}

impl SloEngine {
    /// Engine with an explicit policy.
    pub fn new(policy: SloPolicy) -> SloEngine {
        SloEngine {
            enabled: AtomicBool::new(true),
            inner: Mutex::new(EngineInner::fresh(policy)),
        }
    }

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

    /// Replace the policy, resetting counters, firing state, and the
    /// alert log.
    pub fn configure(&self, policy: SloPolicy) {
        *self.inner.lock() = EngineInner::fresh(policy);
    }

    /// Feed `count` observations of `value_micros` to every latency
    /// objective of `kind`.
    pub fn observe_latency(&self, kind: SloKind, now: u64, value_micros: u64, count: u64) {
        if !self.enabled() || count == 0 {
            return;
        }
        let inner = &mut *self.inner.lock();
        let width = inner.policy.bucket_micros;
        let keep = inner.policy.longest_window() + width;
        for (o, c) in inner.policy.objectives.iter().zip(inner.counters.iter_mut()) {
            if o.kind != kind {
                continue;
            }
            if value_micros <= o.threshold_micros {
                c.add(now, width, count, 0);
            } else {
                c.add(now, width, 0, count);
            }
            c.prune(now, width, keep);
        }
    }

    /// Feed pre-classified good/bad counts to every ratio objective of
    /// `kind`.
    pub fn observe_counts(&self, kind: SloKind, now: u64, good: u64, bad: u64) {
        if !self.enabled() || good + bad == 0 {
            return;
        }
        let inner = &mut *self.inner.lock();
        let width = inner.policy.bucket_micros;
        let keep = inner.policy.longest_window() + width;
        for (o, c) in inner.policy.objectives.iter().zip(inner.counters.iter_mut()) {
            if o.kind != kind {
                continue;
            }
            c.add(now, width, good, bad);
            c.prune(now, width, keep);
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
        let mut inner = self.inner.lock();
        inner.last_eval_ts = now;
        let width = inner.policy.bucket_micros;
        let mut transitions: Vec<AlertEvent> = Vec::new();
        for oi in 0..inner.policy.objectives.len() {
            for pi in 0..inner.policy.pairs.len() {
                let (o, p) = (&inner.policy.objectives[oi], &inner.policy.pairs[pi]);
                let burn_short = burn(&inner.counters[oi], now, width, p.short_micros, o);
                let burn_long = burn(&inner.counters[oi], now, width, p.long_micros, o);
                let firing = burn_short >= p.burn_threshold && burn_long >= p.burn_threshold;
                let was = inner.firing[oi][pi];
                if firing {
                    if p.fast() {
                        out.fast_firing += 1;
                    } else {
                        out.slow_firing += 1;
                    }
                }
                if firing != was {
                    transitions.push(AlertEvent {
                        seq: 0, // assigned on push below
                        ts: now,
                        objective: Cow::Borrowed(o.id),
                        pair: p.name.clone(),
                        severity: p.severity.clone(),
                        state: Cow::Borrowed(if firing { "firing" } else { "resolved" }),
                        burn_short,
                        burn_long,
                        deterministic: o.deterministic,
                    });
                }
                inner.firing[oi][pi] = firing;
            }
        }
        for mut ev in transitions {
            inner.alerts.push(|seq| {
                ev.seq = seq;
                ev.clone()
            });
            if ev.state == "firing" {
                out.newly_fired.push(ev);
            } else {
                out.newly_resolved.push(ev);
            }
        }
        out
    }

    /// Currently-firing (fast, slow) combination counts without
    /// re-evaluating.
    pub fn firing_counts(&self) -> (u64, u64) {
        let inner = self.inner.lock();
        let mut fast = 0;
        let mut slow = 0;
        for row in &inner.firing {
            for (pi, &f) in row.iter().enumerate() {
                if f {
                    if inner.policy.pairs[pi].fast() {
                        fast += 1;
                    } else {
                        slow += 1;
                    }
                }
            }
        }
        (fast, slow)
    }

    /// Logical timestamp of the most recent [`SloEngine::evaluate`] pass.
    pub fn last_eval_ts(&self) -> u64 {
        self.inner.lock().last_eval_ts
    }

    /// Total alert transitions ever recorded.
    pub fn alerts_recorded(&self) -> u64 {
        self.inner.lock().alerts.recorded()
    }

    /// Transitions evicted from the bounded log.
    pub fn alerts_dropped(&self) -> u64 {
        self.inner.lock().alerts.dropped()
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
        let inner = self.inner.lock();
        let width = inner.policy.bucket_micros;
        let longest = inner.policy.longest_window();
        let mut firing = FiringCounts { fast: 0, slow: 0 };
        let mut objectives = Vec::new();
        for (oi, o) in inner.policy.objectives.iter().enumerate() {
            let mut burns = Vec::new();
            for (pi, p) in inner.policy.pairs.iter().enumerate() {
                if inner.firing[oi][pi] {
                    if p.fast() {
                        firing.fast += 1;
                    } else {
                        firing.slow += 1;
                    }
                }
                burns.push(BurnStatus {
                    pair: p.name.clone(),
                    short: burn(&inner.counters[oi], now, width, p.short_micros, o),
                    long: burn(&inner.counters[oi], now, width, p.long_micros, o),
                    firing: inner.firing[oi][pi],
                });
            }
            let (good, bad) = inner.counters[oi].totals(now, width, longest);
            objectives.push(ObjectiveStatus {
                id: Cow::Borrowed(o.id),
                kind: Cow::Borrowed(o.kind.as_str()),
                goal: o.goal,
                threshold_micros: o.threshold_micros,
                deterministic: o.deterministic,
                good,
                bad,
                firing: burns.iter().any(|b| b.firing),
                burn: burns,
            });
        }
        SloDoc {
            schema: "cacheportal.slo.v1".to_string(),
            enabled: self.enabled(),
            stable: false,
            now,
            pairs: inner.policy.pairs.clone(),
            objectives,
            alerts: AlertLogDoc {
                recorded: inner.alerts.recorded(),
                dropped: inner.alerts.dropped(),
                recent: inner.alerts.iter().cloned().collect(),
            },
            firing,
            context: None,
        }
    }
}

/// Burn rate of one objective over one window at logical time `now`.
fn burn(c: &WindowedCounter, now: u64, width: u64, window: u64, o: &Objective) -> f64 {
    let (good, bad) = c.totals(now, width, window);
    let total = good + bad;
    if total == 0 {
        return 0.0;
    }
    (bad as f64 / total as f64) / o.budget()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tight_policy() -> SloPolicy {
        SloPolicy {
            objectives: vec![Objective::new(SloKind::StalenessP99, 100, 0.99, true)],
            pairs: SloPolicy::default_pairs(),
            bucket_micros: MINUTE,
            alert_log_cap: 4,
        }
    }

    #[test]
    fn burn_rate_fires_and_resolves() {
        let e = SloEngine::new(tight_policy());
        // All good: nothing fires.
        e.observe_latency(SloKind::StalenessP99, 1_000, 50, 10);
        let out = e.evaluate(1_000);
        assert!(out.newly_fired.is_empty());
        assert_eq!(e.firing_counts(), (0, 0));
        // A burst of bad windows: bad fraction 0.5 ≫ 14.4 × 0.01 budget.
        e.observe_latency(SloKind::StalenessP99, 2_000, 5_000, 10);
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
        let e = SloEngine::new(tight_policy());
        e.observe_latency(SloKind::StalenessP99, 1_000, 5_000, 100);
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
        let pol = SloPolicy {
            objectives: vec![Objective::new(SloKind::PollErrors, 0, 0.99, true)],
            pairs: SloPolicy::default_pairs(),
            bucket_micros: MINUTE,
            alert_log_cap: 8,
        };
        let e = SloEngine::new(pol);
        e.observe_counts(SloKind::PollErrors, 500, 6, 6);
        let out = e.evaluate(500);
        assert_eq!(out.fast_firing, 1);
        let doc = e.doc(500);
        assert_eq!(doc.objectives[0].bad, 6);
        assert_eq!(doc.firing.fast, 1);
    }

    #[test]
    fn alert_log_is_bounded_with_dropped_counter() {
        let e = SloEngine::new(tight_policy());
        // Flap the objective: bad burst → fire, age out → resolve, repeat.
        let mut now = 1_000;
        for _ in 0..3 {
            e.observe_latency(SloKind::StalenessP99, now, 5_000, 10);
            e.evaluate(now);
            now += 7 * HOUR;
            e.evaluate(now);
            now += MINUTE;
        }
        // 3 flaps × 2 pairs × 2 transitions = 12 recorded, cap 4.
        assert_eq!(e.alerts_recorded(), 12);
        assert_eq!(e.alerts_dropped(), 8);
        assert_eq!(e.alerts_since(0).len(), 4);
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

    #[test]
    fn configure_resets_state() {
        let e = SloEngine::new(tight_policy());
        e.observe_latency(SloKind::StalenessP99, 1_000, 5_000, 10);
        e.evaluate(1_000);
        assert_ne!(e.firing_counts(), (0, 0));
        e.configure(tight_policy());
        assert_eq!(e.firing_counts(), (0, 0));
        assert_eq!(e.alerts_recorded(), 0);
    }
}
