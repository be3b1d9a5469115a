//! Invalidation policies (§4.1.3–§4.1.4) and the polling budget
//! (§4.2.2's quality/real-time trade-off).

use crate::query_type::QueryTypeId;
use std::collections::HashMap;

/// How aggressively to decide "affected" for a query type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvalidationPolicy {
    /// Full algorithm: local checks, then residual polling queries.
    /// Most precise, costs DBMS polling load.
    Exact,
    /// Local checks only; any tuple passing them invalidates the instance
    /// without polling. No DBMS load; over-invalidates join queries.
    Conservative,
    /// Any update to a table invalidates every instance reading it.
    /// The granularity of commercial middle-tier caches; maximal
    /// over-invalidation, zero analysis cost.
    TableLevel,
}

impl InvalidationPolicy {
    /// Stable kebab-case name (used in provenance verdicts and reports).
    pub fn as_str(&self) -> &'static str {
        match self {
            InvalidationPolicy::Exact => "exact",
            InvalidationPolicy::Conservative => "conservative",
            InvalidationPolicy::TableLevel => "table-level",
        }
    }
}

/// Tunable policy configuration.
#[derive(Debug, Clone)]
pub struct PolicyConfig {
    /// Policy applied to types with no override.
    pub default_policy: InvalidationPolicy,
    /// Hard cap on polling queries *issued to the DBMS* per sync point;
    /// once exhausted, remaining poll decisions degrade to Conservative
    /// (invalidate). `None` = unlimited.
    pub poll_budget_per_sync: Option<u64>,
    /// Policy discovery (§4.1.4): a type whose invalidation ratio exceeds
    /// this threshold is marked non-cacheable. `None` disables the rule.
    pub non_cacheable_invalidation_ratio: Option<f64>,
    /// Minimum update batches observed before the ratio rule may fire.
    pub min_batches_for_ratio: u64,
    /// Grouped update processing (§4.2.1): OR-combine the residuals of all
    /// delta tuples surviving the local checks into one polling query per
    /// (instance, occurrence, op-kind) instead of one per tuple.
    pub batch_polls: bool,
}

/// Maximum OR terms per batched poll; longer batches are chunked.
pub(crate) const MAX_OR_TERMS_PER_POLL: usize = 16;

impl Default for PolicyConfig {
    fn default() -> Self {
        PolicyConfig {
            default_policy: InvalidationPolicy::Exact,
            poll_budget_per_sync: None,
            non_cacheable_invalidation_ratio: None,
            min_batches_for_ratio: 10,
            batch_polls: true,
        }
    }
}

/// Policy store: defaults + per-type overrides (hard-coded registrations
/// from the off-line mode, §4.1).
#[derive(Debug, Default)]
pub struct PolicyStore {
    overrides: HashMap<QueryTypeId, InvalidationPolicy>,
}

impl PolicyStore {
    /// Create an empty store.
    pub fn new() -> Self {
        PolicyStore::default()
    }

    /// Pin a policy for one query type.
    pub fn set_override(&mut self, id: QueryTypeId, policy: InvalidationPolicy) {
        self.overrides.insert(id, policy);
    }

    /// Remove a per-type override.
    pub fn clear_override(&mut self, id: QueryTypeId) {
        self.overrides.remove(&id);
    }

    /// Effective policy for a type (override or default).
    pub fn policy_for(&self, id: QueryTypeId, config: &PolicyConfig) -> InvalidationPolicy {
        self.overrides
            .get(&id)
            .copied()
            .unwrap_or(config.default_policy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn override_wins_over_default() {
        let mut store = PolicyStore::new();
        let config = PolicyConfig::default();
        let id = QueryTypeId(3);
        assert_eq!(store.policy_for(id, &config), InvalidationPolicy::Exact);
        store.set_override(id, InvalidationPolicy::TableLevel);
        assert_eq!(store.policy_for(id, &config), InvalidationPolicy::TableLevel);
        store.clear_override(id);
        assert_eq!(store.policy_for(id, &config), InvalidationPolicy::Exact);
    }
}
