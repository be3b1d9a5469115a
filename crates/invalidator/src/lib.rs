#![warn(missing_docs)]

//! # cacheportal-invalidator
//!
//! The CachePortal **invalidator** (paper §4): watches the database update
//! log and decides which cached pages are stale.
//!
//! * [`query_type`] — query-type registration & discovery, the
//!   type/instance/page registry (registration module, §4.1).
//! * [`delta`] — update-log batching into Δ⁺R / Δ⁻R (§4.2.1).
//! * [`analysis`] — the Example 4.1 decision algorithm, compiled once per
//!   query type: local predicate checks and residual polling-query
//!   construction for an instance given as its parameter values.
//! * [`polling`] — polling execution with per-sync dedup and maintained
//!   join-attribute indexes (information management module, §4.3).
//! * [`policy`] — Exact / Conservative / TableLevel policies, the polling
//!   budget, and policy discovery (§4.1.3–§4.1.4).
//! * [`breaker`] — per-query-type circuit breaker that degrades flaky
//!   polling paths to the conservative no-polling policy.
//! * [`predicate_index`] — equality/range/residual predicate index mapping
//!   an updated tuple directly to candidate query instances, so analysis
//!   cost scales with *affected* instances rather than *registered* ones.
//! * [`invalidator`] — the orchestrator: one `run_sync_point` per
//!   synchronization interval, producing the pages to eject.

pub mod analysis;
pub mod breaker;
pub mod delta;
pub mod invalidator;
pub mod policy;
pub mod polling;
pub mod predicate_index;
pub mod query_type;

pub use analysis::{BatchImpact, PollingQuery, SchemaProvider, TupleImpact, TypeAnalysis};
pub use breaker::{BreakerDecision, BreakerEvents, CircuitBreaker, TypeObservation};
pub use delta::{DeltaGroupStat, DeltaSet, TableDelta};
pub use invalidator::{
    InstanceVerdict, InvalidationReport, Invalidator, InvalidatorConfig, TypeSyncStat, VerdictCause,
    VerdictKind,
};
pub use policy::{InvalidationPolicy, PolicyConfig, PolicyStore};
pub use polling::{InfoManager, MaintainedIndex, PollAnswer, PollRunner, PollStats};
pub use predicate_index::{Probe, TypeIndex};
pub use query_type::{IndexStats, QueryType, QueryTypeId, Registry, TypeStats};
