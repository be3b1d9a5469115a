//! Ablations over the *functional* CachePortal system (not the simulator):
//!
//! * **Policy ablation (Fig E3)** — Exact vs Conservative vs TableLevel vs
//!   a TTL-refresh baseline: invalidation volume, over-invalidation (pages
//!   ejected whose content had not actually changed), polling load, hit
//!   ratio, and staleness.
//! * **Grouping ablation (Fig E4)** — how many polling queries the
//!   per-sync-point dedup cache and the maintained indexes save relative to
//!   a naive per-(instance,tuple) poller.

use cacheportal::{CachePortal, Served};
use cacheportal_cache::PageCacheConfig;
use cacheportal_db::schema::ColType;
use cacheportal_db::Database;
use cacheportal_invalidator::{InvalidationPolicy, InvalidatorConfig};
use cacheportal_web::{HttpRequest, PageKey, ParamSource, QueryTemplate, ServletSpec, SqlServlet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::collections::HashMap;
use std::sync::Arc;

/// The paper's §5.2.1 application: one small table (500 rows), one large
/// table (2500 rows), a shared join attribute with 10 uniform values, and
/// three page classes (light/medium/heavy) with selectivity 0.1.
pub fn paper_application(seed: u64) -> Database {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Database::new();
    db.execute("CREATE TABLE small (id INT, grp INT, val INT, INDEX(grp))")
        .unwrap();
    db.execute("CREATE TABLE large (id INT, grp INT, val INT, INDEX(grp))")
        .unwrap();
    for i in 0..500 {
        let grp = i % 10;
        let val = rng.gen_range(0..1000);
        db.insert_row("small", vec![(i as i64).into(), (grp as i64).into(), (val as i64).into()])
            .unwrap();
    }
    for i in 0..2500 {
        let grp = i % 10;
        let val = rng.gen_range(0..1000);
        db.insert_row("large", vec![(i as i64).into(), (grp as i64).into(), (val as i64).into()])
            .unwrap();
    }
    db
}

/// Register the three page servlets of §5.2.1.
pub fn register_paper_servlets(portal: &CachePortal) {
    portal.register_servlet(Arc::new(SqlServlet::new(
        ServletSpec::new("light").with_key_get_params(&["grp"]),
        "Light page",
        vec![QueryTemplate::new(
            "SELECT id, val FROM small WHERE grp = $1 ORDER BY id",
            vec![ParamSource::Get("grp".into(), ColType::Int)],
        )],
    )));
    portal.register_servlet(Arc::new(SqlServlet::new(
        ServletSpec::new("medium").with_key_get_params(&["grp"]),
        "Medium page",
        vec![QueryTemplate::new(
            "SELECT id, val FROM large WHERE grp = $1 ORDER BY id",
            vec![ParamSource::Get("grp".into(), ColType::Int)],
        )],
    )));
    portal.register_servlet(Arc::new(SqlServlet::new(
        ServletSpec::new("heavy").with_key_get_params(&["grp"]),
        "Heavy page",
        vec![QueryTemplate::new(
            // Example 4.1 shape: a local selection plus one equi-join
            // attribute, so the residual poll is a single equality.
            "SELECT small.id, small.val, large.id FROM small, large \
             WHERE small.grp = $1 AND small.val = large.val \
             ORDER BY small.id, large.id",
            vec![ParamSource::Get("grp".into(), ColType::Int)],
        )],
    )));
}

/// Which freshness mechanism a run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FreshnessMode {
    /// Local checks + residual polling queries.
    Exact,
    /// Local checks only; never polls.
    Conservative,
    /// Any update to a read table invalidates every instance.
    TableLevel,
    /// No invalidator: time-based expiry only (the Oracle9i-style baseline
    /// the paper argues against).
    Ttl {
        /// Expiry horizon in sync intervals.
        ttl_intervals: u64,
    },
}

impl FreshnessMode {
    /// Display label (artifact key).
    pub fn label(&self) -> String {
        match self {
            FreshnessMode::Exact => "exact".into(),
            FreshnessMode::Conservative => "conservative".into(),
            FreshnessMode::TableLevel => "table-level".into(),
            FreshnessMode::Ttl { ttl_intervals } => format!("ttl-{ttl_intervals}"),
        }
    }
}

/// Knobs for one functional-workload run.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Workload seed.
    pub seed: u64,
    /// Workload rounds ("seconds"): each round issues requests and updates,
    /// then runs a sync point.
    pub rounds: usize,
    /// Page requests issued per round.
    pub requests_per_round: usize,
    /// Update statements per round.
    pub updates_per_round: usize,
    /// Freshness mechanism under test.
    pub mode: FreshnessMode,
    /// Use maintained join-attribute indexes in the invalidator.
    pub maintained_indexes: bool,
    /// OR-combine residual polls per update batch (§4.2.1 grouping).
    pub batch_polls: bool,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            seed: 7,
            rounds: 30,
            requests_per_round: 30,
            updates_per_round: 10,
            mode: FreshnessMode::Exact,
            maintained_indexes: false,
            batch_polls: true,
        }
    }
}

/// Measured outcome of one run.
#[derive(Debug, Default, Serialize, Clone)]
pub struct WorkloadResult {
    /// Freshness mechanism under test.
    pub mode: String,
    /// Total requests issued.
    pub requests: u64,
    /// Requests served from the cache.
    pub cache_hits: u64,
    /// Pages removed by invalidation.
    pub pages_ejected: u64,
    /// Ejected pages whose regenerated content was identical — pure
    /// over-invalidation.
    pub ejected_unchanged: u64,
    /// Polling queries sent to the DBMS.
    pub polls_issued: u64,
    /// Polls answered by the per-sync dedup cache.
    pub polls_saved_by_cache: u64,
    /// Polls answered by maintained indexes.
    pub polls_saved_by_index: u64,
    /// Sum over rounds of stale cached pages observed *after* the round's
    /// freshness action (always 0 for invalidation modes; nonzero for TTL).
    pub stale_page_rounds: u64,
    /// Achieved cache hit ratio.
    pub hit_ratio: f64,
    /// The portal's full `metrics_snapshot()` at the end of the run
    /// (registry counters/histograms, staleness window, recent trace).
    pub observability: Option<cacheportal::obs::Snapshot>,
}

/// Drive the functional system under the configured workload.
pub fn run_workload(config: &WorkloadConfig) -> WorkloadResult {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let db = paper_application(config.seed);

    let mut inv_cfg = InvalidatorConfig::default();
    inv_cfg.policy.batch_polls = config.batch_polls;
    inv_cfg.policy.default_policy = match config.mode {
        FreshnessMode::Conservative => InvalidationPolicy::Conservative,
        FreshnessMode::TableLevel => InvalidationPolicy::TableLevel,
        _ => InvalidationPolicy::Exact,
    };
    let mut builder = CachePortal::builder(db)
        .invalidator_config(inv_cfg)
        .cache_config(PageCacheConfig {
            capacity: 256,
            ttl_micros: match config.mode {
                // One round advances the clock by its tick count; TTL is
                // denominated in "plenty of ticks per round".
                FreshnessMode::Ttl { ttl_intervals } => Some(ttl_intervals * ROUND_TICKS),
                _ => None,
            },
        });
    if config.maintained_indexes {
        builder = builder.maintain_index("large", "val").maintain_index("small", "val");
    }
    let portal = builder.build().unwrap();
    register_paper_servlets(&portal);

    let mut result = WorkloadResult {
        mode: config.mode.label(),
        ..Default::default()
    };
    // Body each cached page had when last generated (over-invalidation
    // detector).
    let mut last_body: HashMap<PageKey, Arc<str>> = HashMap::new();
    let mut next_id = 10_000i64;

    for _round in 0..config.rounds {
        for _ in 0..config.requests_per_round {
            let class = ["light", "medium", "heavy"][rng.gen_range(0..3)];
            let grp = rng.gen_range(0..10i64);
            let req =
                HttpRequest::get("shop", &format!("/{class}"), &[("grp", &grp.to_string())]);
            let out = portal.request(&req);
            result.requests += 1;
            if out.served == Served::CacheHit {
                result.cache_hits += 1;
            } else if let Some(key) = out.key {
                last_body.insert(key, out.response.body.clone());
            }
        }
        for _ in 0..config.updates_per_round {
            let table = if rng.gen_bool(0.5) { "small" } else { "large" };
            if rng.gen_bool(0.5) {
                let grp = rng.gen_range(0..10i64);
                portal
                    .update(&format!(
                        "INSERT INTO {table} VALUES ({next_id}, {grp}, {})",
                        rng.gen_range(0..1000)
                    ))
                    .unwrap();
                next_id += 1;
            } else {
                // Delete one pseudo-random row by id.
                let id = rng.gen_range(0..(if table == "small" { 500 } else { 2500 }));
                portal
                    .update(&format!("DELETE FROM {table} WHERE id = {id}"))
                    .unwrap();
            }
        }

        match config.mode {
            FreshnessMode::Ttl { .. } => {
                // No invalidator run: freshness comes from expiry alone.
                portal.advance_clock(ROUND_TICKS);
                result.stale_page_rounds += portal.stale_pages().len() as u64;
            }
            _ => {
                // The sync point fires at the end of the interval: updates
                // committed during the round have aged up to ROUND_TICKS by
                // the time their pages are ejected (the staleness window the
                // probe measures).
                portal.advance_clock(ROUND_TICKS);
                let report = portal.sync_point().unwrap();
                result.pages_ejected += report.ejected as u64;
                result.polls_issued += report.invalidation.polls.issued;
                result.polls_saved_by_cache += report.invalidation.polls.from_cache;
                result.polls_saved_by_index += report.invalidation.polls.from_index;
                // Over-invalidation check: regenerate ejected pages whose
                // last body we know, compare.
                for key in &report.invalidation.pages {
                    if let Some(old) = last_body.get(key) {
                        if let Some(req) = key.request() {
                            let fresh = portal.request(&req);
                            if fresh.response.body == *old {
                                result.ejected_unchanged += 1;
                            }
                            if let Some(k) = fresh.key {
                                last_body.insert(k, fresh.response.body.clone());
                            }
                        }
                    }
                }
                result.stale_page_rounds += portal.stale_pages().len() as u64;
            }
        }
    }
    result.hit_ratio = if result.requests == 0 {
        0.0
    } else {
        result.cache_hits as f64 / result.requests as f64
    };
    result.observability = Some(portal.metrics_snapshot());
    result
}

/// Logical ticks we advance per round (TTL granularity).
const ROUND_TICKS: u64 = 1_000_000;

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(mode: FreshnessMode) -> WorkloadResult {
        run_workload(&WorkloadConfig {
            rounds: 6,
            requests_per_round: 20,
            updates_per_round: 6,
            mode,
            ..Default::default()
        })
    }

    #[test]
    fn invalidation_modes_never_serve_stale() {
        for mode in [
            FreshnessMode::Exact,
            FreshnessMode::Conservative,
            FreshnessMode::TableLevel,
        ] {
            let r = quick(mode);
            assert_eq!(r.stale_page_rounds, 0, "{}", r.mode);
        }
    }

    #[test]
    fn exact_polls_conservative_does_not() {
        let exact = quick(FreshnessMode::Exact);
        let cons = quick(FreshnessMode::Conservative);
        assert!(exact.polls_issued > 0);
        assert_eq!(cons.polls_issued, 0);
    }

    #[test]
    fn over_invalidation_ordering() {
        let exact = quick(FreshnessMode::Exact);
        let table = quick(FreshnessMode::TableLevel);
        let exact_rate = exact.ejected_unchanged as f64 / exact.pages_ejected.max(1) as f64;
        let table_rate = table.ejected_unchanged as f64 / table.pages_ejected.max(1) as f64;
        assert!(
            table_rate >= exact_rate,
            "table-level must over-invalidate at least as much: {table_rate} vs {exact_rate}"
        );
        assert!(table.pages_ejected >= exact.pages_ejected);
    }

    #[test]
    fn ttl_baseline_serves_stale_pages() {
        let ttl = quick(FreshnessMode::Ttl { ttl_intervals: 5 });
        assert!(
            ttl.stale_page_rounds > 0,
            "long-TTL cache must be stale under updates"
        );
    }

    #[test]
    fn maintained_indexes_reduce_polls() {
        let base = WorkloadConfig {
            rounds: 6,
            requests_per_round: 20,
            updates_per_round: 6,
            ..Default::default()
        };
        let without = run_workload(&base);
        let with = run_workload(&WorkloadConfig {
            maintained_indexes: true,
            ..base
        });
        assert!(with.polls_saved_by_index > 0);
        assert!(with.polls_issued <= without.polls_issued);
    }
}
