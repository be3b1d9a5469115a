//! The fault taxonomy the harness sweeps: every injection site the
//! [`FaultPlan`](cacheportal::db::FaultPlan) hooks, one class per site,
//! plus a mixed class firing all of them at once.

use cacheportal::db::FaultSpec;

/// One fault class (what the smoke matrix and the soak report pivot on).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// Inert plan — the baseline.
    None,
    /// Sniffer drops query-log records.
    SnifferDrop,
    /// Sniffer duplicates query-log records.
    SnifferDup,
    /// Sniffer reorders each drained batch.
    SnifferReorder,
    /// Polling queries fail with an error.
    PollError,
    /// Polling queries time out.
    PollTimeout,
    /// Transactions abort mid-stream.
    TxnAbort,
    /// All of the above at once.
    Mixed,
    /// The portal crashes at random actions and recovers from its durable
    /// journal (shared DBMS and page cache survive the crash).
    CrashRestart,
    /// Bursty poll failures: every poll in a burst window fails, tripping
    /// the per-query-type circuit breaker, then the window closes and the
    /// breaker re-probes its way shut.
    PollFlap,
    /// The invalidation bus drops eject deliveries to edge caches; bounded
    /// retries within the round must keep every edge renewed or degraded.
    BusDrop,
    /// The bus drops and duplicates frames and delivers stale ones late;
    /// the edge's apply rule must absorb all three.
    BusReorder,
    /// Bursty edge partitions: whole windows where an edge is unreachable —
    /// the edge must self-eject (Vcache-style) and catch up on heal.
    EdgePartition,
    /// Edge caches crash and rejoin from the bus's acked watermark, flushing
    /// pages admitted past the mark.
    EdgeCrashRejoin,
}

/// Every class, in sweep order.
pub const ALL_CLASSES: [FaultClass; 14] = [
    FaultClass::None,
    FaultClass::SnifferDrop,
    FaultClass::SnifferDup,
    FaultClass::SnifferReorder,
    FaultClass::PollError,
    FaultClass::PollTimeout,
    FaultClass::TxnAbort,
    FaultClass::Mixed,
    FaultClass::CrashRestart,
    FaultClass::PollFlap,
    FaultClass::BusDrop,
    FaultClass::BusReorder,
    FaultClass::EdgePartition,
    FaultClass::EdgeCrashRejoin,
];

impl FaultClass {
    /// Stable kebab-case name (report keys, CLI argument).
    pub fn as_str(&self) -> &'static str {
        match self {
            FaultClass::None => "none",
            FaultClass::SnifferDrop => "sniffer-drop",
            FaultClass::SnifferDup => "sniffer-dup",
            FaultClass::SnifferReorder => "sniffer-reorder",
            FaultClass::PollError => "poll-error",
            FaultClass::PollTimeout => "poll-timeout",
            FaultClass::TxnAbort => "txn-abort",
            FaultClass::Mixed => "mixed",
            FaultClass::CrashRestart => "crash-restart",
            FaultClass::PollFlap => "poll-flap",
            FaultClass::BusDrop => "bus-drop",
            FaultClass::BusReorder => "bus-reorder",
            FaultClass::EdgePartition => "edge-partition",
            FaultClass::EdgeCrashRejoin => "edge-crash-rejoin",
        }
    }

    /// Parse a CLI name.
    pub fn parse(s: &str) -> Option<FaultClass> {
        ALL_CLASSES.iter().copied().find(|c| c.as_str() == s)
    }

    /// The concrete plan for this class, seeded for determinism. The rates
    /// are moderate on purpose — high enough to fire on a 40-action trace,
    /// low enough that the workload still exercises the normal paths.
    pub fn spec(&self, seed: u64) -> FaultSpec {
        let mut spec = FaultSpec {
            seed,
            ..FaultSpec::default()
        };
        match self {
            FaultClass::None => {}
            FaultClass::SnifferDrop => spec.sniffer_drop = 0.25,
            FaultClass::SnifferDup => spec.sniffer_dup = 0.25,
            FaultClass::SnifferReorder => spec.sniffer_reorder = true,
            FaultClass::PollError => spec.poll_error = 0.4,
            FaultClass::PollTimeout => spec.poll_timeout = 0.4,
            FaultClass::TxnAbort => spec.txn_abort = 0.35,
            FaultClass::Mixed => {
                spec.sniffer_drop = 0.15;
                spec.sniffer_dup = 0.1;
                spec.sniffer_reorder = true;
                spec.poll_error = 0.2;
                spec.poll_timeout = 0.1;
                spec.txn_abort = 0.2;
            }
            FaultClass::CrashRestart => spec.crash_restart = 0.08,
            FaultClass::PollFlap => {
                spec.poll_flap_period = 4;
                spec.poll_flap_burst = 2;
            }
            FaultClass::BusDrop => spec.bus_drop = 0.3,
            FaultClass::BusReorder => {
                spec.bus_reorder = true;
                spec.bus_drop = 0.15;
                spec.bus_dup = 0.2;
            }
            FaultClass::EdgePartition => {
                spec.edge_partition = 0.7;
                spec.edge_partition_period = 4;
                spec.edge_partition_burst = 2;
            }
            FaultClass::EdgeCrashRejoin => spec.edge_crash = 0.15,
        }
        spec
    }
}
