//! Simulation parameters — a direct transcription of the paper's Table 1
//! plus the service-time knobs of the simulated hardware (the paper's
//! testbed: 200 MHz PCs, Apache, Oracle 8i, shared LAN).

use crate::des::{SimTime, MS, SEC};

/// Update load as the paper writes it: ⟨ins₁, del₁, ins₂, del₂⟩ —
/// insertions/deletions per second into table 1 (small) and table 2 (large).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UpdateRate {
    /// Insertions/s into the small table.
    pub ins1: f64,
    /// Deletions/s from the small table.
    pub del1: f64,
    /// Insertions/s into the large table.
    pub ins2: f64,
    /// Deletions/s from the large table.
    pub del2: f64,
}

impl UpdateRate {
    /// No updates.
    pub const NONE: UpdateRate = UpdateRate {
        ins1: 0.0,
        del1: 0.0,
        ins2: 0.0,
        del2: 0.0,
    };

    /// ⟨5,5,5,5⟩.
    pub const MEDIUM: UpdateRate = UpdateRate {
        ins1: 5.0,
        del1: 5.0,
        ins2: 5.0,
        del2: 5.0,
    };

    /// ⟨12,12,12,12⟩.
    pub const HIGH: UpdateRate = UpdateRate {
        ins1: 12.0,
        del1: 12.0,
        ins2: 12.0,
        del2: 12.0,
    };

    /// Total tuple updates per second.
    pub fn total_per_sec(&self) -> f64 {
        self.ins1 + self.del1 + self.ins2 + self.del2
    }

    /// Row label in the paper’s notation.
    pub fn label(&self) -> String {
        if self.total_per_sec() == 0.0 {
            "No Updates".to_string()
        } else {
            format!(
                "<{},{},{},{}>",
                self.ins1, self.del1, self.ins2, self.del2
            )
        }
    }
}

/// How the cache hit ratio is obtained (paper §5.1.1: "hit ratio is usually
/// a function of the cache size … over-invalidation, in turn, causes the
/// hit ratio to decrease").
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HitRatioModel {
    /// The paper's experimental setting: a constant ratio (70% in §5).
    Fixed(f64),
    /// Derived from cache capacity and invalidation churn:
    ///
    /// ```text
    /// coverage = min(1, cache_size / working_set)
    /// churn    = update_rate × inval_per_update × coverage / request_rate
    /// hit      = max_hit × coverage / (1 + churn)
    /// ```
    ///
    /// `inval_per_update` is the invalidation ratio of §5.1.1 — how many
    /// cached pages one tuple update invalidates on average; precise
    /// invalidation (CachePortal Exact) keeps it small, coarse policies
    /// inflate it.
    Derived {
        /// Pages the cache can hold (`cache_size` in Table 1).
        cache_size: usize,
        /// Distinct pages the workload requests.
        working_set: usize,
        /// Hit ratio at full coverage and zero updates.
        max_hit: f64,
        /// Average pages invalidated per tuple update (`inval_rate`).
        inval_per_update: f64,
    },
}

impl HitRatioModel {
    /// Effective hit ratio for the given workload intensities.
    pub fn effective(&self, update_rate_per_sec: f64, request_rate_per_sec: f64) -> f64 {
        match self {
            HitRatioModel::Fixed(h) => h.clamp(0.0, 1.0),
            HitRatioModel::Derived {
                cache_size,
                working_set,
                max_hit,
                inval_per_update,
            } => {
                if *working_set == 0 || request_rate_per_sec <= 0.0 {
                    return 0.0;
                }
                let coverage = (*cache_size as f64 / *working_set as f64).min(1.0);
                let churn =
                    update_rate_per_sec * inval_per_update * coverage / request_rate_per_sec;
                (max_hit * coverage / (1.0 + churn)).clamp(0.0, 1.0)
            }
        }
    }
}

/// Request generation regime.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ClientModel {
    /// Open loop: Poisson arrivals at `num_req_per_sec` regardless of how
    /// the site is doing — overload diverges (queues grow for the whole
    /// experiment). This matches the paper's request generator.
    Open,
    /// Closed loop: a fixed population of users, each issuing its next
    /// request `think_time` (exponential mean) after the previous response.
    /// Overload saturates instead of diverging — response times stabilize
    /// near `users × bottleneck service time`.
    Closed {
        /// Concurrent simulated users.
        users: usize,
        /// Mean think time between response and next request (µs).
        think_time: SimTime,
    },
}

/// How Configuration III's front cache stays fresh.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Freshness {
    /// CachePortal invalidation: the invalidator's polling work is one
    /// cheap query per sync interval (§5.2.4), plus eject messages.
    Invalidation,
    /// Oracle9i-style time-based refresh (the §1 baseline the paper argues
    /// against): every sync interval, `pages_per_interval` cached pages are
    /// regenerated through the full backend path whether or not anything
    /// changed — "a significant amount of unnecessary computation overhead
    /// at the web server, the application server, and the databases".
    PeriodicRefresh {
        /// Pages re-generated per sync interval.
        pages_per_interval: usize,
    },
}

/// How Configuration II's middle-tier data cache is accessed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Conf2CacheAccess {
    /// Table 2's assumption: data is in memory, access is (nearly) free.
    Negligible,
    /// Table 3's implementation: the cache is a local DBMS; every access
    /// pays a connection cost and contends for the node-local cache server.
    LocalDbms,
}

/// Service-time model of the simulated deployment.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceTimes {
    /// DBMS service time for a light page's query (small-table select).
    pub db_light: SimTime,
    /// Medium page (large-table select).
    pub db_medium: SimTime,
    /// Heavy page (select-join over both tables).
    pub db_heavy: SimTime,
    /// Applying one update tuple at a DBMS.
    pub db_update: SimTime,
    /// Parallel query workers at the shared DBMS (Conf II/III).
    pub db_workers_shared: usize,
    /// Workers at each Conf I replica DBMS (co-located with the web server).
    pub db_workers_replica: usize,
    /// Web-server work before/after the application server.
    pub ws_pre: SimTime,
    /// Web-server work after the application server.
    pub ws_post: SimTime,
    /// Web-server workers per node.
    pub ws_workers: usize,
    /// Application-server work before/after the DB call. The AS worker is
    /// held across the DB call — the §5.3.1 starvation mechanism.
    pub as_pre: SimTime,
    /// Application-server work after the DB call.
    pub as_post: SimTime,
    /// Application-server workers per node.
    pub as_workers: usize,
    /// Per-message time on the site-internal shared network.
    pub net_msg: SimTime,
    /// Parallel channels on the site network.
    pub net_workers: usize,
    /// Per-message time on the external (client-side) network.
    pub ext_net_msg: SimTime,
    /// Parallel channels on the external network.
    pub ext_net_workers: usize,
    /// Web-cache lookup/serve time (Conf III front cache).
    pub cache_lookup: SimTime,
    /// Front-cache workers.
    pub cache_workers: usize,
    /// Connection + access cost at the local-DBMS data cache (Table 3).
    pub dcache_conn: SimTime,
    /// Access cost at an in-memory data cache (Table 2; "negligible").
    pub dcache_mem: SimTime,
    /// Data-cache servers per node.
    pub dcache_workers: usize,
    /// Cache/replica synchronization interval.
    pub sync_interval: SimTime,
    /// DBMS time for one synchronization query ("fetch the recent updates").
    pub sync_query: SimTime,
    /// DBMS time for the invalidator's per-interval polling work (Conf III;
    /// the paper assumes the invalidator keeps its own data cache, so this
    /// is one cheap query per interval).
    pub poll_query: SimTime,
}

impl Default for ServiceTimes {
    fn default() -> Self {
        ServiceTimes {
            db_light: 80 * MS,
            db_medium: 250 * MS,
            db_heavy: 700 * MS,
            db_update: 16 * MS,
            db_workers_shared: 4,
            db_workers_replica: 1,
            ws_pre: 4 * MS,
            ws_post: 3 * MS,
            ws_workers: 8,
            as_pre: 8 * MS,
            as_post: 5 * MS,
            as_workers: 8,
            net_msg: 4 * MS,
            net_workers: 1,
            ext_net_msg: 50 * MS,
            ext_net_workers: 16,
            cache_lookup: 3 * MS,
            cache_workers: 4,
            dcache_conn: 220 * MS,
            dcache_mem: MS,
            dcache_workers: 1,
            sync_interval: SEC,
            sync_query: 25 * MS,
            poll_query: 20 * MS,
        }
    }
}

/// Full parameter set for one simulation run (Table 1 + environment).
#[derive(Debug, Clone, PartialEq)]
pub struct SimParams {
    /// Workload RNG seed (runs are deterministic given it).
    pub seed: u64,
    /// Simulated experiment length.
    pub duration: SimTime,
    /// HTTP requests per second, split evenly light/medium/heavy
    /// (the paper's 30 = 10+10+10).
    pub num_req_per_sec: f64,
    /// Cache hit ratio (web cache in Conf III, data cache in Conf II).
    /// The paper holds this at 0.70.
    pub hit_ratio: f64,
    /// When set, overrides `hit_ratio` with the §5.1.1 functional model
    /// (cache size / working set / invalidation churn).
    pub hit_ratio_model: Option<HitRatioModel>,
    /// Update load.
    pub update_rate: UpdateRate,
    /// Web/application server nodes behind the load balancer.
    pub nodes: usize,
    /// DB queries per page request (1 in the paper's application).
    pub query_per_request: u32,
    /// Conf II cache access model.
    pub conf2_access: Conf2CacheAccess,
    /// Open-loop (paper) or closed-loop request generation.
    pub client_model: ClientModel,
    /// Conf III freshness mechanism (invalidation vs. periodic refresh).
    pub freshness: Freshness,
    /// Service-time model of the simulated hardware.
    pub svc: ServiceTimes,
}

impl Default for SimParams {
    fn default() -> Self {
        SimParams {
            seed: 0xCAC4E,
            duration: 120 * SEC,
            num_req_per_sec: 30.0,
            hit_ratio: 0.70,
            hit_ratio_model: None,
            update_rate: UpdateRate::NONE,
            nodes: 4,
            query_per_request: 1,
            conf2_access: Conf2CacheAccess::Negligible,
            client_model: ClientModel::Open,
            freshness: Freshness::Invalidation,
            svc: ServiceTimes::default(),
        }
    }
}

impl SimParams {
    /// The paper's §5.2 experiment setup.
    pub fn paper_baseline() -> Self {
        SimParams::default()
    }

    /// Set the update load.
    pub fn with_update_rate(mut self, rate: UpdateRate) -> Self {
        self.update_rate = rate;
        self
    }

    /// Set the fixed hit ratio.
    pub fn with_hit_ratio(mut self, hit_ratio: f64) -> Self {
        self.hit_ratio = hit_ratio;
        self
    }

    /// Derive the hit ratio from the §5.1.1 functional model.
    pub fn with_hit_ratio_model(mut self, model: HitRatioModel) -> Self {
        self.hit_ratio_model = Some(model);
        self
    }

    /// Switch to closed-loop clients.
    pub fn with_client_model(mut self, model: ClientModel) -> Self {
        self.client_model = model;
        self
    }

    /// Set Configuration III's freshness mechanism.
    pub fn with_freshness(mut self, freshness: Freshness) -> Self {
        self.freshness = freshness;
        self
    }

    /// The hit ratio the workload generator will use: the functional model
    /// when configured, otherwise the fixed ratio.
    pub fn effective_hit_ratio(&self) -> f64 {
        match &self.hit_ratio_model {
            Some(m) => m.effective(self.update_rate.total_per_sec(), self.num_req_per_sec),
            None => self.hit_ratio,
        }
    }

    /// Set Configuration II’s cache access model.
    pub fn with_conf2_access(mut self, access: Conf2CacheAccess) -> Self {
        self.conf2_access = access;
        self
    }

    /// Set the simulated experiment length.
    pub fn with_duration(mut self, duration: SimTime) -> Self {
        self.duration = duration;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn update_rate_labels() {
        assert_eq!(UpdateRate::NONE.label(), "No Updates");
        assert_eq!(UpdateRate::MEDIUM.label(), "<5,5,5,5>");
        assert_eq!(UpdateRate::HIGH.total_per_sec(), 48.0);
    }

    #[test]
    fn paper_baseline_matches_setup() {
        let p = SimParams::paper_baseline();
        assert_eq!(p.num_req_per_sec, 30.0);
        assert_eq!(p.hit_ratio, 0.70);
        assert_eq!(p.effective_hit_ratio(), 0.70);
        assert_eq!(p.nodes, 4);
    }

    #[test]
    fn derived_hit_ratio_shape() {
        let model = |cache_size| HitRatioModel::Derived {
            cache_size,
            working_set: 1000,
            max_hit: 0.9,
            inval_per_update: 0.5,
        };
        // Grows with cache size up to full coverage.
        let h0 = model(100).effective(0.0, 30.0);
        let h1 = model(500).effective(0.0, 30.0);
        let h2 = model(1000).effective(0.0, 30.0);
        let h3 = model(5000).effective(0.0, 30.0);
        assert!(h0 < h1 && h1 < h2, "{h0} {h1} {h2}");
        assert_eq!(h2, h3, "coverage saturates at the working set");
        assert!((h2 - 0.9).abs() < 1e-12);
        // Decreases with update rate (over-invalidation churn).
        let quiet = model(1000).effective(0.0, 30.0);
        let busy = model(1000).effective(48.0, 30.0);
        assert!(busy < quiet, "{busy} < {quiet}");
        // Degenerate inputs are safe.
        assert_eq!(
            HitRatioModel::Derived {
                cache_size: 10,
                working_set: 0,
                max_hit: 0.9,
                inval_per_update: 0.1
            }
            .effective(1.0, 30.0),
            0.0
        );
        assert_eq!(HitRatioModel::Fixed(1.7).effective(0.0, 1.0), 1.0);
    }
}
