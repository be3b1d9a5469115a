//! Drive a scenario's action stream through a full [`CachePortal`] while a
//! shadow always-recompute oracle checks the safety contract.
//!
//! The oracle is [`CachePortal::stale_pages`]: after *every* synchronization
//! point it regenerates each cached page and compares bodies — the paper's
//! contract says the difference must be empty. The runner additionally
//! cross-checks the observability surfaces (fault counters may only be
//! non-zero when the plan can fire; sync counters must agree with the
//! actions driven) and accounts over-invalidation so precision per policy
//! and per fault class is reported, not just asserted away.

use crate::actions::{Action, Stmt};
use crate::gen::{policy_of, Scenario};
use cacheportal::db::{DbError, FaultPlan};
use cacheportal::web::{shared, SharedDb};
use cacheportal::{CachePortal, Served};
use serde::{Deserialize, Serialize};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A violated invariant: the index of the action that exposed it plus a
/// machine-stable kind and a human-readable detail.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Violation {
    /// Index into the action trace (`usize::MAX` = the final audit).
    pub action_index: usize,
    /// Stable kind: `stale-page`, `workload-error`, `metrics-incoherent`.
    pub kind: String,
    /// What exactly went wrong.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.action_index == usize::MAX {
            write!(f, "[{}] at final audit: {}", self.kind, self.detail)
        } else {
            write!(f, "[{}] at action {}: {}", self.kind, self.action_index, self.detail)
        }
    }
}

/// Aggregated run accounting (precision inputs for the soak report).
#[derive(Debug, Default, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunStats {
    /// Requests served.
    pub requests: u64,
    /// Requests answered from the page cache.
    pub cache_hits: u64,
    /// Synchronization points driven (incl. the final audit sync).
    pub syncs: u64,
    /// Pages actually ejected from the cache.
    pub ejected: u64,
    /// Ejects that were pure over-invalidation (page was not stale).
    pub over_invalidations: u64,
    /// Pages ejected conservatively because the sniffer lost records.
    pub fault_ejected: u64,
    /// Polling queries failed by the fault plan.
    pub polls_faulted: u64,
    /// Query-log records dropped by the fault plan.
    pub records_lost: u64,
    /// Query-log records duplicated by the fault plan.
    pub records_duplicated: u64,
    /// Transaction statements aborted by the fault plan.
    pub txn_aborts: u64,
    /// Portal crashes injected by the fault plan (crash-restart class).
    pub crashes: u64,
    /// Pages conservatively ejected at recovery because they were admitted
    /// in the durability gap.
    pub gap_ejected: u64,
    /// Bus deliveries dropped by the fault plan.
    pub bus_drops: u64,
    /// Bus deliveries duplicated by the fault plan.
    pub bus_dups: u64,
    /// Edge partition probes fired by the fault plan.
    pub edge_partitions: u64,
    /// Edge crash-and-rejoin events driven by the runner.
    pub edge_reboots: u64,
    /// Edge self-ejections under degraded mode (Vcache-style fallback).
    pub edge_self_ejections: u64,
}

/// Outcome of one run: accounting plus the first violated invariant.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunOutcome {
    /// Aggregated accounting.
    pub stats: RunStats,
    /// First violation, if the run failed.
    pub violation: Option<Violation>,
    /// Black-box flight record captured at the violation (rendered
    /// `stable=1` bundle, so replays of the same trace produce the same
    /// bytes and `PartialEq` still holds). `None` on clean runs.
    pub flight_record: Option<String>,
}

impl RunOutcome {
    fn fail(stats: RunStats, action_index: usize, kind: &str, detail: String) -> RunOutcome {
        RunOutcome {
            stats,
            violation: Some(Violation {
                action_index,
                kind: kind.to_string(),
                detail,
            }),
            flight_record: None,
        }
    }

    /// Attach the portal's black box to a failed outcome: the byte-stable
    /// bundle rendering, captured while the rings still cover the violation
    /// window. A clean outcome passes through untouched.
    fn with_flight_record(mut self, portal: &CachePortal) -> RunOutcome {
        if let Some(v) = &self.violation {
            let bundle = portal.flight_record(&format!("harness:{}", v.kind), true);
            self.flight_record = serde_json::to_string_pretty(&bundle).ok();
        }
        self
    }
}

/// Apply one mutation statement; injected aborts are expected, anything
/// else is a workload error.
fn apply_stmt(portal: &CachePortal, sc: &Scenario, s: &Stmt) -> Result<(), String> {
    match portal.update(&s.sql(sc)) {
        Ok(_) | Err(DbError::Faulted(_)) => Ok(()),
        Err(e) => Err(format!("{} failed: {e}", s.sql(sc))),
    }
}

/// Per-incarnation observability counters accumulated across crashes: each
/// recovered portal starts a fresh metrics registry, so the end-of-run
/// cross-checks compare `base + current` against what the runner drove.
#[derive(Default)]
struct CounterBases {
    sync_points: u64,
    pages_ejected: u64,
    records_lost: u64,
    fault_ejected: u64,
    over_invalidations: u64,
    polls_faulted: u64,
    gap_ejected: u64,
}

impl CounterBases {
    fn fold(&mut self, portal: &CachePortal) {
        let m = &portal.obs().metrics;
        self.sync_points += m.counter_value("invalidator.sync_points");
        self.pages_ejected += m.counter_value("invalidator.pages.ejected");
        self.records_lost += m.counter_value("sniffer.records.lost");
        self.fault_ejected += m.counter_value("core.fault.ejected_conservative");
        self.over_invalidations += m.counter_value("invalidator.over_invalidations");
        self.polls_faulted += m.counter_value("invalidator.polls.faulted");
        self.gap_ejected += m.counter_value("durable.recovery.gap_ejected");
    }
}

/// Crash-mode context: the pieces that survive a portal crash — the shared
/// DBMS, the durable journal directory, and the fault plan (whose counters
/// are shared by every portal incarnation).
struct CrashCtx {
    db: SharedDb,
    dir: PathBuf,
    plan: FaultPlan,
}

/// Removes the run's durable scratch directory on every exit path.
struct DirCleanup(Option<PathBuf>);

impl Drop for DirCleanup {
    fn drop(&mut self) {
        if let Some(d) = self.0.take() {
            let _ = std::fs::remove_dir_all(d);
        }
    }
}

static RUN_SEQ: AtomicU64 = AtomicU64::new(0);

/// Run the scenario's action stream end to end on a one-node portal.
/// Deterministic: the same scenario and actions always produce the same
/// [`RunOutcome`].
pub fn run_scenario(sc: &Scenario, actions: &[Action]) -> RunOutcome {
    run_scenario_on(sc, actions, 1)
}

/// [`run_scenario`] against a farm of `nodes` web/application servers: the
/// same actions, the same oracle and cross-checks. The node count is an
/// argument of the run, not part of the scenario, so reproducer files do not
/// carry it.
pub fn run_scenario_on(sc: &Scenario, actions: &[Action], nodes: usize) -> RunOutcome {
    let crash_ctx = if sc.fault.crash_restart > 0.0 {
        let dir = std::env::temp_dir().join(format!(
            "cp-harness-crash-{}-{}",
            std::process::id(),
            RUN_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        Some(CrashCtx {
            db: shared(sc.build_database()),
            dir,
            plan: FaultPlan::new(sc.fault.clone()),
        })
    } else {
        None
    };
    let _cleanup = DirCleanup(crash_ctx.as_ref().map(|c| c.dir.clone()));
    let mut portal = match &crash_ctx {
        Some(c) => sc.build_portal_durable(c.db.clone(), &c.dir, c.plan.clone(), nodes),
        None => sc.build_farm(nodes),
    };
    portal.set_invalidation_audit(true);
    let fault_active = portal.fault_plan().is_active();
    let mut stats = RunStats::default();
    let mut bases = CounterBases::default();

    let sync = |portal: &CachePortal, stats: &mut RunStats, idx: usize| -> Option<Violation> {
        let report = match portal.sync_point() {
            Ok(r) => r,
            Err(e) => {
                return Some(Violation {
                    action_index: idx,
                    kind: "workload-error".into(),
                    detail: format!("sync point failed: {e}"),
                })
            }
        };
        stats.syncs += 1;
        stats.ejected += report.ejected as u64;
        stats.fault_ejected += report.fault_ejected as u64;
        // THE safety contract: no cached page differs from regeneration.
        let stale = portal.stale_pages();
        if !stale.is_empty() {
            let urls: Vec<&str> = stale.iter().map(|k| k.as_str()).collect();
            return Some(Violation {
                action_index: idx,
                kind: "stale-page".into(),
                detail: format!("stale after sync under {:?}: {urls:?}", policy_of(sc.policy)),
            });
        }
        // Partition-tolerant degradation contract: after the sync's bus
        // delivery round every attached edge is either fully caught up or
        // empty (degraded edges self-ejected Vcache-style and decline
        // admission). An edge holding pages while behind the latest batch
        // is an open staleness window even if the oracle above happened to
        // find every body still fresh.
        let latest = portal.bus().latest_seq();
        for ep in portal.bus().endpoints() {
            if ep.applied_seq() < latest && !ep.cache().is_empty() {
                return Some(Violation {
                    action_index: idx,
                    kind: "bus-degradation".into(),
                    detail: format!(
                        "edge {} applied seq {} < latest {} but still holds {} page(s)",
                        ep.name(),
                        ep.applied_seq(),
                        latest,
                        ep.cache().len()
                    ),
                });
            }
        }
        // Index soundness: the scenario runs with index-vs-scan
        // differential mode on, so any sync where the predicate index and
        // the full scan disagree on the affected (type, params) set is a
        // correctness bug in the index, caught at the sync that diverged.
        if report.invalidation.index_divergences > 0 {
            return Some(Violation {
                action_index: idx,
                kind: "index-divergent".into(),
                detail: format!(
                    "predicate index and scan disagreed on {} affected instance(s)",
                    report.invalidation.index_divergences
                ),
            });
        }
        // Conservative degradation only: an inert plan must show zero fault
        // effects anywhere on the sync report.
        if !fault_active
            && (report.mapper.lost > 0
                || report.invalidation.poll_faults > 0
                || report.fault_ejected > 0)
        {
            return Some(Violation {
                action_index: idx,
                kind: "metrics-incoherent".into(),
                detail: format!(
                    "inert fault plan but lost={} poll_faults={} fault_ejected={}",
                    report.mapper.lost, report.invalidation.poll_faults, report.fault_ejected
                ),
            });
        }
        None
    };

    for (idx, action) in actions.iter().enumerate() {
        // Crash-restart: kill the portal (its in-memory sniffer logs,
        // invalidator, and metrics die with it), then recover from the
        // durable journal with the surviving DBMS and page cache.
        if let Some(c) = &crash_ctx {
            if c.plan.crash_before_action(idx as u64) {
                stats.crashes += 1;
                bases.fold(&portal);
                let cache = portal.page_cache().clone();
                drop(portal);
                portal =
                    sc.recover_portal(c.db.clone(), cache, &c.dir, c.plan.clone(), nodes);
                portal.set_invalidation_audit(true);
            }
        }
        // Edge crash-rejoin: an edge cache dies and rejoins from the bus's
        // acked watermark — the endpoint conservatively flushes everything
        // admitted past the mark before serving again.
        if sc.fault.edge_crash > 0.0 {
            for e in 0..portal.bus().edge_count() {
                if portal.fault_plan().edge_crash_before_action(idx as u64, e as u64) {
                    stats.edge_reboots += 1;
                    portal.reboot_bus_edge(e);
                }
            }
        }
        match action {
            Action::Request(s, g) => {
                let out = portal.request(&sc.request(*s, *g));
                stats.requests += 1;
                if out.served == Served::CacheHit {
                    stats.cache_hits += 1;
                }
                if out.response.status.code() != 200 {
                    return RunOutcome::fail(
                        stats,
                        idx,
                        "workload-error",
                        format!("request {:?} returned {}", action, out.response.status.code()),
                    )
                    .with_flight_record(&portal);
                }
            }
            Action::Mutate(s) => {
                if let Err(detail) = apply_stmt(&portal, sc, s) {
                    return RunOutcome::fail(stats, idx, "workload-error", detail)
                        .with_flight_record(&portal);
                }
            }
            Action::Txn(stmts) => {
                let r = portal.update_txn(|tx| {
                    for s in stmts {
                        tx.execute(&s.sql(sc))?;
                    }
                    Ok(())
                });
                match r {
                    Ok(()) => {}
                    // Injected mid-stream abort: the rollback must be
                    // invisible — checked by the oracle at the next sync.
                    Err(DbError::Faulted(_)) => {}
                    Err(e) => {
                        return RunOutcome::fail(
                            stats,
                            idx,
                            "workload-error",
                            format!("transaction failed: {e}"),
                        )
                        .with_flight_record(&portal)
                    }
                }
            }
            Action::Sync => {
                if let Some(v) = sync(&portal, &mut stats, idx) {
                    return RunOutcome { stats, violation: Some(v), flight_record: None }
                        .with_flight_record(&portal);
                }
            }
            Action::SetPolicy(p) => {
                let policy = policy_of(*p);
                portal.with_invalidator(|inv| {
                    inv.config_mut().policy.default_policy = policy;
                    let ids: Vec<_> = inv.registry().types().iter().map(|t| t.id).collect();
                    for id in ids {
                        inv.set_policy(id, policy);
                    }
                });
            }
        }
    }

    // Final audit: one more sync must always restore full freshness.
    if let Some(v) = sync(&portal, &mut stats, usize::MAX) {
        return RunOutcome { stats, violation: Some(v), flight_record: None }
            .with_flight_record(&portal);
    }

    // Fold the last incarnation's counters into the accumulated bases and
    // cross-check the observability surfaces against what the runner drove.
    // (In crash mode every recovered portal starts a fresh registry, so the
    // totals are base + last; the fault plan's counters are shared by all
    // incarnations and need no such accumulation.)
    bases.fold(&portal);
    stats.over_invalidations = bases.over_invalidations;
    stats.polls_faulted = bases.polls_faulted;
    stats.gap_ejected = bases.gap_ejected;
    let counts = portal.fault_plan().counts();
    stats.records_lost = counts.sniffer_dropped;
    stats.records_duplicated = counts.sniffer_duplicated;
    stats.txn_aborts = counts.txn_aborts;
    stats.bus_drops = counts.bus_dropped;
    stats.bus_dups = counts.bus_duplicated;
    stats.edge_partitions = counts.edge_partitions;
    stats.edge_self_ejections = portal.bus().stats().self_ejections;

    let mut incoherent = Vec::new();
    if bases.sync_points != stats.syncs {
        incoherent.push(format!(
            "sync_points counter {} != driven {}",
            bases.sync_points, stats.syncs
        ));
    }
    if bases.pages_ejected != stats.ejected {
        incoherent.push(format!(
            "pages.ejected counter {} != summed reports {}",
            bases.pages_ejected, stats.ejected
        ));
    }
    if bases.records_lost != counts.sniffer_dropped {
        incoherent.push(format!(
            "records.lost counter {} != injected drops {}",
            bases.records_lost, counts.sniffer_dropped
        ));
    }
    if bases.fault_ejected != stats.fault_ejected {
        incoherent.push(format!(
            "fault.ejected counter {} != summed reports {}",
            bases.fault_ejected, stats.fault_ejected
        ));
    }
    if stats.polls_faulted > 0
        && sc.fault.poll_error == 0.0
        && sc.fault.poll_timeout == 0.0
        && sc.fault.poll_flap_period == 0
    {
        incoherent.push(format!(
            "{} polls faulted under a plan with no poll faults",
            stats.polls_faulted
        ));
    }
    if stats.crashes != counts.crashes {
        incoherent.push(format!(
            "runner drove {} crashes but the plan counted {}",
            stats.crashes, counts.crashes
        ));
    }
    if stats.gap_ejected > 0 && sc.fault.crash_restart == 0.0 {
        incoherent.push(format!(
            "{} recovery-gap ejects without a crash-restart plan",
            stats.gap_ejected
        ));
    }
    if (stats.bus_drops > 0 || stats.bus_dups > 0)
        && sc.fault.bus_drop == 0.0
        && sc.fault.bus_dup == 0.0
    {
        incoherent.push(format!(
            "bus dropped {} / duplicated {} deliveries under a plan with no bus faults",
            stats.bus_drops, stats.bus_dups
        ));
    }
    if stats.edge_partitions > 0 && sc.fault.edge_partition == 0.0 {
        incoherent.push(format!(
            "{} edge partition probes fired under a plan with no partition faults",
            stats.edge_partitions
        ));
    }
    if stats.edge_reboots != counts.edge_crashes {
        incoherent.push(format!(
            "runner drove {} edge reboots but the plan counted {}",
            stats.edge_reboots, counts.edge_crashes
        ));
    }
    if !incoherent.is_empty() {
        return RunOutcome::fail(stats, usize::MAX, "metrics-incoherent", incoherent.join("; "))
            .with_flight_record(&portal);
    }

    // Causal-trace coherence: every traced eject must walk back to its
    // sync-point phase and to commit trace roots covering its LSN range.
    // Skipped after crash-restarts (commits before a crash rooted their
    // traces in the dead incarnation, so the chain legitimately breaks) —
    // and the check itself degrades to a no-op when any bounded ring
    // dropped entries (truncation, not incoherence).
    if stats.crashes == 0 {
        if let Err(detail) = portal.obs().verify_causal_chains() {
            return RunOutcome::fail(stats, usize::MAX, "trace-incoherent", detail)
                .with_flight_record(&portal);
        }
    }

    RunOutcome { stats, violation: None, flight_record: None }
}
