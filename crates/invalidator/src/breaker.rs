//! Per-query-type circuit breaker for the polling path.
//!
//! The paper's escape hatch for an unhealthy DBMS is its no-polling
//! conservative policy (§4.1.3): when polls cannot be trusted, assume every
//! candidate instance is affected. This module automates the downgrade. Per
//! query type the breaker walks a classic three-state machine, advanced
//! once per synchronization point that consumes update records (an empty
//! sync point analyzes nothing and leaves the machines untouched):
//!
//! * **Closed** — polls run normally. Faults within consecutive faulty sync
//!   points accumulate; reaching `FAULT_THRESHOLD` trips the breaker. A
//!   clean sync point (polls attempted, none faulted) resets the count.
//! * **Open** — the type is degraded to the conservative policy (verdict
//!   kind `breaker-degraded`): no polls are attempted, so a flapping DBMS
//!   cannot stall or error a sync point. After `COOLDOWN_SYNCS` sync points
//!   the breaker moves to half-open.
//! * **HalfOpen** — polls are allowed again as a probe. Any fault re-opens
//!   the breaker (restarting the cooldown); a sync point where the type
//!   polled cleanly closes it.
//!
//! Determinism: decisions for a sync point are taken **before** any type
//! is analysed, and the observations that advance the machine are summed
//! per type **after** the analysis. Both sides are pure functions of the
//! workload, so the index-differential shadow pass sees the same decisions
//! as the real one.

use crate::query_type::QueryTypeId;
use std::collections::HashMap;

/// Cumulative poll faults (across consecutive faulty sync points) that trip
/// a closed breaker.
pub(crate) const FAULT_THRESHOLD: u64 = 3;

/// Sync points an open breaker waits before half-open re-probing.
pub(crate) const COOLDOWN_SYNCS: u64 = 2;

/// What the invalidator should do with a type this sync point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerDecision {
    /// Closed: poll normally.
    Normal,
    /// Open: force the conservative no-polling policy.
    Degrade,
    /// Half-open: poll normally, but this sync point is a probe.
    Probe,
}

/// Per-type observation for one sync point, taken after the analysis
/// (plain sums keyed by type).
#[derive(Debug, Clone, Copy, Default)]
pub struct TypeObservation {
    /// Poll attempts that reached the DBMS fault site for this type.
    pub polls_attempted: u64,
    /// Attempts that faulted (including failed retries).
    pub poll_faults: u64,
}

/// State transitions the breaker made in one sync point (metric deltas).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BreakerEvents {
    /// Types that tripped closed/half-open → open.
    pub opened: u64,
    /// Types that moved open → half-open (probe window).
    pub half_opened: u64,
    /// Types whose half-open probe succeeded → closed.
    pub closed: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Closed { recent_faults: u64 },
    Open { cooldown_left: u64 },
    HalfOpen,
}

/// The breaker bank: one state machine per query type, advanced once per
/// synchronization point.
#[derive(Debug, Default)]
pub struct CircuitBreaker {
    states: HashMap<QueryTypeId, State>,
}

impl CircuitBreaker {
    /// A bank with every type closed.
    pub fn new() -> Self {
        CircuitBreaker::default()
    }

    /// The decision for `ty` this sync point. Unknown types are closed.
    pub fn decision(&self, ty: QueryTypeId) -> BreakerDecision {
        match self.states.get(&ty) {
            None | Some(State::Closed { .. }) => BreakerDecision::Normal,
            Some(State::Open { .. }) => BreakerDecision::Degrade,
            Some(State::HalfOpen) => BreakerDecision::Probe,
        }
    }

    /// Advance every machine by one sync point, given the aggregated
    /// per-type observations. Types not observed this sync point (not a
    /// candidate, or degraded) still age their open cooldowns. Returns the
    /// transition deltas for metrics.
    pub fn observe_sync(
        &mut self,
        observations: &HashMap<QueryTypeId, TypeObservation>,
    ) -> BreakerEvents {
        let mut events = BreakerEvents::default();
        // Phase 1: fold this sync point's evidence into closed/half-open
        // machines (sorted for deterministic iteration).
        let mut observed: Vec<(&QueryTypeId, &TypeObservation)> = observations.iter().collect();
        observed.sort_by_key(|(ty, _)| **ty);
        let mut just_opened: Vec<QueryTypeId> = Vec::new();
        for (ty, obs) in observed {
            let state = self
                .states
                .entry(*ty)
                .or_insert(State::Closed { recent_faults: 0 });
            match *state {
                State::Closed { recent_faults } => {
                    if obs.poll_faults > 0 {
                        let total = recent_faults + obs.poll_faults;
                        if total >= FAULT_THRESHOLD {
                            *state = State::Open {
                                cooldown_left: COOLDOWN_SYNCS,
                            };
                            events.opened += 1;
                            just_opened.push(*ty);
                        } else {
                            *state = State::Closed {
                                recent_faults: total,
                            };
                        }
                    } else if obs.polls_attempted > 0 {
                        // A clean sync point with real DBMS evidence clears
                        // the consecutive-fault accumulator.
                        *state = State::Closed { recent_faults: 0 };
                    }
                }
                State::HalfOpen => {
                    if obs.poll_faults > 0 {
                        *state = State::Open {
                            cooldown_left: COOLDOWN_SYNCS,
                        };
                        events.opened += 1;
                        just_opened.push(*ty);
                    } else {
                        // The probe ran without faults (or the type needed
                        // no DBMS polls at all): healthy again.
                        *state = State::Closed { recent_faults: 0 };
                        events.closed += 1;
                    }
                }
                State::Open { .. } => {
                    // Degraded types never poll; cooldown ages in phase 2.
                }
            }
        }
        // Phase 2: age every open cooldown by this sync point, except
        // breakers that opened just now.
        let mut ids: Vec<QueryTypeId> = self.states.keys().copied().collect();
        ids.sort_unstable();
        for ty in ids {
            if just_opened.contains(&ty) {
                continue;
            }
            if let Some(state @ State::Open { .. }) = self.states.get_mut(&ty) {
                let State::Open { cooldown_left } = *state else { unreachable!() };
                if cooldown_left <= 1 {
                    *state = State::HalfOpen;
                    events.half_opened += 1;
                } else {
                    *state = State::Open {
                        cooldown_left: cooldown_left - 1,
                    };
                }
            }
        }
        events
    }

    /// Types currently open (degraded).
    pub fn open_count(&self) -> u64 {
        self.states
            .values()
            .filter(|s| matches!(s, State::Open { .. }))
            .count() as u64
    }

    /// Types currently half-open (probing).
    pub fn half_open_count(&self) -> u64 {
        self.states
            .values()
            .filter(|s| matches!(s, State::HalfOpen))
            .count() as u64
    }

    /// Human-readable state of one type (for explain/debug output).
    pub fn state_name(&self, ty: QueryTypeId) -> &'static str {
        match self.states.get(&ty) {
            None | Some(State::Closed { .. }) => "closed",
            Some(State::Open { .. }) => "open",
            Some(State::HalfOpen) => "half-open",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(faults: u64, attempts: u64) -> HashMap<QueryTypeId, TypeObservation> {
        let mut m = HashMap::new();
        m.insert(
            QueryTypeId(0),
            TypeObservation {
                polls_attempted: attempts,
                poll_faults: faults,
            },
        );
        m
    }

    /// The deterministic scripted walk the acceptance criteria name:
    /// closed → open → half-open → closed, at the threshold of 3 faults and
    /// the cooldown of 2 sync points.
    #[test]
    fn scripted_error_sequence_walks_all_states() {
        assert_eq!((FAULT_THRESHOLD, COOLDOWN_SYNCS), (3, 2));
        let ty = QueryTypeId(0);
        let mut b = CircuitBreaker::new();
        assert_eq!(b.decision(ty), BreakerDecision::Normal);

        // Sync 1: two faults — under threshold, stays closed.
        let e = b.observe_sync(&obs(2, 4));
        assert_eq!(e, BreakerEvents::default());
        assert_eq!(b.decision(ty), BreakerDecision::Normal);
        assert_eq!(b.state_name(ty), "closed");

        // Sync 2: one more fault — cumulative 3 hits the threshold: OPEN.
        let e = b.observe_sync(&obs(1, 2));
        assert_eq!(e.opened, 1);
        assert_eq!(b.decision(ty), BreakerDecision::Degrade);
        assert_eq!(b.state_name(ty), "open");
        assert_eq!(b.open_count(), 1);

        // Syncs 3–4: degraded (no observations for the type); the cooldown
        // ages and expires into HALF-OPEN.
        let e = b.observe_sync(&HashMap::new());
        assert_eq!(e, BreakerEvents::default());
        assert_eq!(b.decision(ty), BreakerDecision::Degrade);
        let e = b.observe_sync(&HashMap::new());
        assert_eq!(e.half_opened, 1);
        assert_eq!(b.decision(ty), BreakerDecision::Probe);
        assert_eq!(b.half_open_count(), 1);

        // Sync 5: the probe polls cleanly: CLOSED again.
        let e = b.observe_sync(&obs(0, 3));
        assert_eq!(e.closed, 1);
        assert_eq!(b.decision(ty), BreakerDecision::Normal);
        assert_eq!(b.state_name(ty), "closed");
        assert_eq!((b.open_count(), b.half_open_count()), (0, 0));
    }

    #[test]
    fn failed_probe_reopens_with_full_cooldown() {
        let ty = QueryTypeId(0);
        let mut b = CircuitBreaker::new();
        b.observe_sync(&obs(FAULT_THRESHOLD, FAULT_THRESHOLD)); // trip
        for _ in 0..COOLDOWN_SYNCS {
            assert_eq!(b.decision(ty), BreakerDecision::Degrade);
            b.observe_sync(&HashMap::new()); // cooldown → half-open
        }
        assert_eq!(b.decision(ty), BreakerDecision::Probe);
        let e = b.observe_sync(&obs(1, 1)); // probe faults → reopen
        assert_eq!(e.opened, 1);
        // The full cooldown again, not what was left of the last one.
        for _ in 0..COOLDOWN_SYNCS {
            assert_eq!(b.decision(ty), BreakerDecision::Degrade);
            b.observe_sync(&HashMap::new());
        }
        assert_eq!(b.decision(ty), BreakerDecision::Probe);
    }

    #[test]
    fn clean_syncs_reset_the_fault_accumulator() {
        let ty = QueryTypeId(0);
        let mut b = CircuitBreaker::new();
        b.observe_sync(&obs(2, 4));
        b.observe_sync(&obs(0, 4)); // clean: accumulator resets
        b.observe_sync(&obs(2, 4)); // 2 again, still under threshold
        assert_eq!(b.decision(ty), BreakerDecision::Normal);
        assert_eq!(b.open_count(), 0);
    }

    #[test]
    fn independent_types_trip_independently() {
        let mut m = HashMap::new();
        let faults = FAULT_THRESHOLD;
        m.insert(QueryTypeId(1), TypeObservation { polls_attempted: faults, poll_faults: faults });
        m.insert(QueryTypeId(2), TypeObservation { polls_attempted: 2, poll_faults: 0 });
        let mut b = CircuitBreaker::new();
        let e = b.observe_sync(&m);
        assert_eq!(e.opened, 1);
        assert_eq!(b.decision(QueryTypeId(1)), BreakerDecision::Degrade);
        assert_eq!(b.decision(QueryTypeId(2)), BreakerDecision::Normal);
    }
}
