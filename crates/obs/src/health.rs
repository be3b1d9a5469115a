//! Live health state behind the admin endpoint's `/healthz`.
//!
//! The portal's components publish their condition into a [`HealthState`]
//! (lock-free atomics, cheap to update from the sync-point path); the admin
//! endpoint renders a [`HealthSnapshot`] per request. The contract:
//!
//! * **healthy** — every breaker closed, no recovery in progress, no WAL
//!   errors, no fast-burn SLO alert: `200` with the plain `ok` body probes
//!   expect.
//! * **degraded** — breakers half-open (probing) or a slow-burn SLO alert,
//!   but nothing worse: still `200` (the portal serves correctly —
//!   conservatively), JSON body.
//! * **unhealthy** — breakers open, recovery in progress, lost durability
//!   (crash safety compromised), or a fast-burn SLO alert firing: `503`
//!   with a JSON body naming every reason.
//!
//! Every degradation cause is a [`Reason`] with one canonical kebab-case
//! code — `/healthz`, `/slo` context, flight-record bundles, and the
//! `health.reason.*` metric gauges all render the same strings, so
//! dashboards, alert routes, and scripts key on a single vocabulary.

use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Canonical degradation causes. The `as_str` code is the single source
/// of truth for every rendering (`/healthz` reasons, `/slo` context,
/// `health.reason.*` gauges, flight-record bundles).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reason {
    /// Poll-path circuit breaker open for one or more query types.
    BreakerOpen,
    /// Breaker half-open (probing) for one or more query types.
    BreakerHalfOpen,
    /// Crash recovery rebuilding state.
    CrashRecovery,
    /// Durable-layer write errors (crash safety compromised, sticky).
    WalError,
    /// A fast-burn (page severity) SLO alert is firing.
    SloFastBurn,
    /// A slow-burn (ticket severity) SLO alert is firing.
    SloSlowBurn,
    /// One or more bus edges unreachable; they self-eject conservatively
    /// (TTL/Vcache-style degradation) until the partition heals.
    EdgePartitioned,
}

impl Reason {
    /// Every reason, in rendering order.
    pub const ALL: [Reason; 7] = [
        Reason::BreakerOpen,
        Reason::CrashRecovery,
        Reason::WalError,
        Reason::SloFastBurn,
        Reason::BreakerHalfOpen,
        Reason::SloSlowBurn,
        Reason::EdgePartitioned,
    ];

    /// The canonical kebab-case code.
    pub fn as_str(self) -> &'static str {
        match self {
            Reason::BreakerOpen => "breaker-open",
            Reason::BreakerHalfOpen => "breaker-half-open",
            Reason::CrashRecovery => "crash-recovery",
            Reason::WalError => "wal-error",
            Reason::SloFastBurn => "slo-fast-burn",
            Reason::SloSlowBurn => "slo-slow-burn",
            Reason::EdgePartitioned => "edge-partitioned",
        }
    }

    /// Whether this reason alone makes the portal unhealthy (`503`) or
    /// merely degraded (`200` + JSON). A partitioned edge is degraded,
    /// not unhealthy: the edge serves conservatively (self-ejected) and
    /// the origin portal is still correct.
    pub fn unhealthy(self) -> bool {
        !matches!(
            self,
            Reason::BreakerHalfOpen | Reason::SloSlowBurn | Reason::EdgePartitioned
        )
    }
}

/// Shared mutable health flags; one per portal, updated by the sync-point
/// and recovery paths, read by `/healthz`.
#[derive(Debug, Default)]
pub struct HealthState {
    breaker_open: AtomicU64,
    breaker_half_open: AtomicU64,
    recovering: AtomicBool,
    wal_errors: AtomicU64,
    recovery_gap_ejects: AtomicU64,
    recoveries: AtomicU64,
    slo_fast_firing: AtomicU64,
    slo_slow_firing: AtomicU64,
    edges_partitioned: AtomicU64,
}

impl HealthState {
    /// A fresh, healthy state.
    pub fn new() -> Self {
        HealthState::default()
    }

    /// Publish the breaker gauges after a sync point.
    pub fn set_breaker(&self, open: u64, half_open: u64) {
        self.breaker_open.store(open, Ordering::Relaxed);
        self.breaker_half_open.store(half_open, Ordering::Relaxed);
    }

    /// Publish the firing SLO alert counts after an evaluation pass.
    pub fn set_slo(&self, fast_firing: u64, slow_firing: u64) {
        self.slo_fast_firing.store(fast_firing, Ordering::Relaxed);
        self.slo_slow_firing.store(slow_firing, Ordering::Relaxed);
    }

    /// Publish how many bus edges are currently marked partitioned.
    pub fn set_edges_partitioned(&self, n: u64) {
        self.edges_partitioned.store(n, Ordering::Relaxed);
    }

    /// Mark crash recovery as started (`true`) or finished (`false`).
    pub fn set_recovering(&self, active: bool) {
        self.recovering.store(active, Ordering::Relaxed);
        if !active {
            self.recoveries.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Count a failed WAL append/sync/checkpoint. Durability errors are
    /// sticky: once the crash-safety guarantee is gone, the portal stays
    /// unhealthy until restarted.
    pub fn record_wal_error(&self) {
        self.wal_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Count pages ejected by the recovery gap scan (informational).
    pub fn add_recovery_gap_ejects(&self, n: u64) {
        self.recovery_gap_ejects.fetch_add(n, Ordering::Relaxed);
    }

    /// A point-in-time copy: the flags, the reasons they amount to and the
    /// status those add up to.
    pub fn snapshot(&self) -> HealthSnapshot {
        let mut snap = HealthSnapshot {
            status: Cow::Borrowed(HealthStatus::Healthy.as_str()),
            reasons: Vec::new(),
            breaker_open_types: self.breaker_open.load(Ordering::Relaxed),
            breaker_half_open_types: self.breaker_half_open.load(Ordering::Relaxed),
            recovering: self.recovering.load(Ordering::Relaxed),
            wal_errors: self.wal_errors.load(Ordering::Relaxed),
            recovery_gap_ejects: self.recovery_gap_ejects.load(Ordering::Relaxed),
            recoveries: self.recoveries.load(Ordering::Relaxed),
            slo_fast_firing: self.slo_fast_firing.load(Ordering::Relaxed),
            slo_slow_firing: self.slo_slow_firing.load(Ordering::Relaxed),
            edges_partitioned: self.edges_partitioned.load(Ordering::Relaxed),
        };
        let active = Reason::ALL.iter().filter(|&&r| snap.reason_count(r) > 0);
        snap.reasons = active.map(|&r| ReasonRow::new(r, snap.reason_count(r))).collect();
        snap.status = Cow::Borrowed(snap.classify().as_str());
        snap
    }
}

/// One active degradation cause as every rendering spells it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReasonRow {
    /// The canonical [`Reason`] code.
    pub code: Cow<'static, str>,
    /// How many instances are active.
    pub count: u64,
    /// A line for a human.
    pub detail: String,
}

impl ReasonRow {
    fn new(r: Reason, n: u64) -> ReasonRow {
        let detail = match r {
            Reason::BreakerOpen => {
                format!("{n} query type(s) breaker-open (polling degraded to conservative)")
            }
            Reason::BreakerHalfOpen => format!("{n} query type(s) half-open (probing)"),
            Reason::CrashRecovery => "crash recovery in progress".to_string(),
            Reason::WalError => {
                format!("{n} durable-layer write error(s); crash safety compromised")
            }
            Reason::SloFastBurn => format!(
                "{n} fast-burn SLO alert(s) firing (error budget burning at page rate)"
            ),
            Reason::SloSlowBurn => format!("{n} slow-burn SLO alert(s) firing"),
            Reason::EdgePartitioned => {
                format!("{n} bus edge(s) partitioned (self-ejecting until catch-up)")
            }
        };
        ReasonRow { code: Cow::Borrowed(r.as_str()), count: n, detail }
    }
}

/// Point-in-time health: the document a degraded `/healthz` answers with,
/// `/slo`'s `context` and a flight bundle's `health` section.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HealthSnapshot {
    /// [`HealthStatus::as_str`] of what the reasons add up to.
    pub status: Cow<'static, str>,
    /// Active reasons, in [`Reason::ALL`] order.
    pub reasons: Vec<ReasonRow>,
    /// Query types whose poll-path breaker is open (degraded).
    pub breaker_open_types: u64,
    /// Query types half-open (probing).
    pub breaker_half_open_types: u64,
    /// Crash recovery currently rebuilding state.
    pub recovering: bool,
    /// Durable-layer write failures since start (sticky).
    pub wal_errors: u64,
    /// Pages conservatively ejected by recovery gap scans.
    pub recovery_gap_ejects: u64,
    /// Completed crash recoveries since start.
    pub recoveries: u64,
    /// (objective, pair) combinations firing on a fast-burn pair.
    pub slo_fast_firing: u64,
    /// (objective, pair) combinations firing on a slow-burn pair.
    pub slo_slow_firing: u64,
    /// Bus edges currently marked partitioned (self-ejecting).
    pub edges_partitioned: u64,
}

/// Overall status bucket a snapshot maps to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthStatus {
    /// Everything nominal.
    Healthy,
    /// Serving correctly but conservatively (half-open breakers or a
    /// slow-burn SLO alert).
    Degraded,
    /// Open breakers, in-flight recovery, lost durability, or a fast-burn
    /// SLO alert.
    Unhealthy,
}

impl HealthStatus {
    /// Lowercase wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            HealthStatus::Healthy => "healthy",
            HealthStatus::Degraded => "degraded",
            HealthStatus::Unhealthy => "unhealthy",
        }
    }
}

/// A rendered `/healthz` reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthResponse {
    /// HTTP status code (`200` or `503`).
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: String,
}

impl HealthSnapshot {
    /// How many instances of `reason` the snapshot carries (0 = not
    /// active). One shared accessor so `/healthz`, `/slo`, and the
    /// `health.reason.*` gauges can never disagree.
    pub fn reason_count(&self, reason: Reason) -> u64 {
        match reason {
            Reason::BreakerOpen => self.breaker_open_types,
            Reason::BreakerHalfOpen => self.breaker_half_open_types,
            Reason::CrashRecovery => u64::from(self.recovering),
            Reason::WalError => self.wal_errors,
            Reason::SloFastBurn => self.slo_fast_firing,
            Reason::SloSlowBurn => self.slo_slow_firing,
            Reason::EdgePartitioned => self.edges_partitioned,
        }
    }

    /// Classify the snapshot's flags.
    pub fn classify(&self) -> HealthStatus {
        let active = |r: &Reason| self.reason_count(*r) > 0;
        if Reason::ALL.iter().any(|r| active(r) && r.unhealthy()) {
            HealthStatus::Unhealthy
        } else if Reason::ALL.iter().any(active) {
            HealthStatus::Degraded
        } else {
            HealthStatus::Healthy
        }
    }

    /// Render the `/healthz` reply. Healthy keeps the exact plain `ok`
    /// body existing probes and scripts match on; anything else is this
    /// snapshot as JSON, with `503` when unhealthy.
    pub fn to_response(&self) -> HealthResponse {
        let status = self.classify();
        if status == HealthStatus::Healthy {
            return HealthResponse {
                status: 200,
                content_type: "text/plain; charset=utf-8",
                body: "ok\n".to_string(),
            };
        }
        HealthResponse {
            status: if status == HealthStatus::Unhealthy { 503 } else { 200 },
            content_type: "application/json",
            body: serde_json::to_string_pretty(self).expect("a snapshot renders"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_state_keeps_the_plain_ok_contract() {
        let h = HealthState::new();
        let resp = h.snapshot().to_response();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, "ok\n");
    }

    #[test]
    fn open_breakers_flip_to_503_and_back() {
        let h = HealthState::new();
        h.set_breaker(2, 0);
        let resp = h.snapshot().to_response();
        assert_eq!(resp.status, 503);
        assert!(resp.body.contains("breaker-open"));
        assert_eq!(h.snapshot().classify(), HealthStatus::Unhealthy);

        h.set_breaker(0, 1);
        let resp = h.snapshot().to_response();
        assert_eq!(resp.status, 200, "half-open still serves correctly");
        assert!(resp.body.contains("half-open"));
        assert_eq!(h.snapshot().classify(), HealthStatus::Degraded);

        h.set_breaker(0, 0);
        assert_eq!(h.snapshot().to_response().body, "ok\n");
    }

    #[test]
    fn recovery_and_wal_errors_are_unhealthy() {
        let h = HealthState::new();
        h.set_recovering(true);
        assert_eq!(h.snapshot().classify(), HealthStatus::Unhealthy);
        h.set_recovering(false);
        assert_eq!(h.snapshot().classify(), HealthStatus::Healthy);
        assert_eq!(h.snapshot().recoveries, 1);

        h.record_wal_error();
        let resp = h.snapshot().to_response();
        assert_eq!(resp.status, 503);
        assert!(resp.body.contains("crash safety compromised"));
    }

    #[test]
    fn slo_burns_map_to_status_like_breakers() {
        let h = HealthState::new();
        h.set_slo(0, 1);
        let resp = h.snapshot().to_response();
        assert_eq!(resp.status, 200, "slow burn degrades, does not page");
        assert!(resp.body.contains("slo-slow-burn"));
        assert_eq!(h.snapshot().classify(), HealthStatus::Degraded);

        h.set_slo(2, 1);
        let resp = h.snapshot().to_response();
        assert_eq!(resp.status, 503, "fast burn is unhealthy");
        assert!(resp.body.contains("slo-fast-burn"));

        h.set_slo(0, 0);
        assert_eq!(h.snapshot().to_response().body, "ok\n");
    }

    #[test]
    fn partitioned_edges_degrade_without_paging() {
        let h = HealthState::new();
        h.set_edges_partitioned(1);
        let resp = h.snapshot().to_response();
        assert_eq!(resp.status, 200, "partitioned edge degrades, serves safely");
        assert!(resp.body.contains("edge-partitioned"));
        assert_eq!(h.snapshot().classify(), HealthStatus::Degraded);
        assert_eq!(h.snapshot().reason_count(Reason::EdgePartitioned), 1);

        h.set_edges_partitioned(0);
        assert_eq!(h.snapshot().to_response().body, "ok\n");
    }

    #[test]
    fn reasons_use_canonical_codes_everywhere() {
        let h = HealthState::new();
        h.set_breaker(1, 2);
        h.set_slo(1, 0);
        let snap = h.snapshot();
        let codes: Vec<&str> = snap.reasons.iter().map(|r| &*r.code).collect();
        assert_eq!(codes, vec!["breaker-open", "slo-fast-burn", "breaker-half-open"]);
        assert_eq!(snap.status, "unhealthy");
        // The JSON rendering carries the same codes as {code, count, detail},
        // and reads back as the snapshot it was.
        let text = serde_json::to_string(&snap).unwrap();
        assert!(text.starts_with(r#"{"status":"unhealthy","reasons":[{"code":"breaker-open","count":1,"#));
        assert_eq!(serde_json::from_str::<HealthSnapshot>(&text).unwrap(), snap);
        // Counts come from the single shared accessor.
        assert_eq!(snap.reason_count(Reason::BreakerHalfOpen), 2);
        assert_eq!(snap.reason_count(Reason::CrashRecovery), 0);
    }
}
