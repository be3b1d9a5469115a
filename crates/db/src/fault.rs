//! Deterministic fault injection for the correctness harness.
//!
//! A [`FaultPlan`] is a seeded, shareable oracle that components consult at
//! well-defined *fault sites*: the sniffer's query logger (drop / duplicate /
//! reorder log records), the invalidator's poll runner (a polling query
//! errors or times out), and the transaction guard (an injected abort
//! mid-stream). Every decision is a pure hash of `(seed, site, key)` — the
//! same plan over the same workload injects the same faults, which is what
//! makes fuzz failures replayable — and every injection is counted, so tests
//! can assert that the system both *saw* the fault and degraded
//! conservatively.
//!
//! The default plan is inert: a `FaultPlan::default()` carries no
//! configuration, every probe answers "no fault", and the hot paths pay one
//! `Option` check.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Fault-site probabilities and modes. All probabilities are in `[0, 1]`.
///
/// Serialization is hand-written (not derived) so reproducer JSON stays
/// compatible across releases: fields missing from an old document take
/// their defaults, and unknown fields from a newer one are ignored.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultSpec {
    /// Seed for the per-decision hash (independent of workload seeds).
    pub seed: u64,
    /// Probability the sniffer's query logger drops a record entirely.
    pub sniffer_drop: f64,
    /// Probability the sniffer's query logger duplicates a record.
    pub sniffer_dup: f64,
    /// Deterministically reorder the query log on every drain.
    pub sniffer_reorder: bool,
    /// Probability an issued polling query fails with an error.
    pub poll_error: f64,
    /// Probability an issued polling query times out (after the modeled
    /// round trip, if one is configured).
    pub poll_timeout: f64,
    /// Probability a transaction statement aborts mid-stream.
    pub txn_abort: f64,
    /// Probability the portal process "crashes" before an action (the
    /// harness kills the portal and recovers it from the durable state).
    pub crash_restart: f64,
    /// Poll-flap burst cycle length in sync points (`0` disables flapping).
    pub poll_flap_period: u64,
    /// Leading sync points of each cycle during which *every* poll faults
    /// with an error — the bursty outage that should trip the breaker.
    pub poll_flap_burst: u64,
    /// Probability one bus delivery attempt (edge, frame's newest seq,
    /// attempt) is dropped in flight — the edge never sees the frame, the
    /// bus never sees an ack, and the round's retry loop must re-send.
    pub bus_drop: f64,
    /// Probability a bus delivery is duplicated in flight (the edge
    /// applies the same frame twice; the second copy is absorbed).
    pub bus_dup: f64,
    /// Deliver each edge's previous frame again after its current one — a
    /// stale frame arriving late, which the edge must absorb.
    pub bus_reorder: bool,
    /// Probability an edge is unreachable for a whole partition burst
    /// window (see the two period/burst fields below).
    pub edge_partition: f64,
    /// Edge-partition cycle length in sync points (`0` disables).
    pub edge_partition_period: u64,
    /// Leading sync points of each cycle during which partitioned edges
    /// (rolled per window × edge) are unreachable.
    pub edge_partition_burst: u64,
    /// Probability an edge cache "crashes" before an action (the harness
    /// reboots the edge, which must conservatively flush pages admitted
    /// past its last acked watermark before rejoining).
    pub edge_crash: f64,
}

impl FaultSpec {
    /// True when no fault site can ever fire.
    pub fn is_inert(&self) -> bool {
        self.sniffer_drop == 0.0
            && self.sniffer_dup == 0.0
            && !self.sniffer_reorder
            && self.poll_error == 0.0
            && self.poll_timeout == 0.0
            && self.txn_abort == 0.0
            && self.crash_restart == 0.0
            && (self.poll_flap_period == 0 || self.poll_flap_burst == 0)
            && self.bus_drop == 0.0
            && self.bus_dup == 0.0
            && !self.bus_reorder
            && (self.edge_partition == 0.0
                || self.edge_partition_period == 0
                || self.edge_partition_burst == 0)
            && self.edge_crash == 0.0
    }

    /// True when any bus/edge fault site can fire (the harness attaches
    /// bus edges to the portal only for these specs, keeping every
    /// pre-existing fault class bit-identical).
    pub fn has_bus_faults(&self) -> bool {
        self.bus_drop > 0.0
            || self.bus_dup > 0.0
            || self.bus_reorder
            || (self.edge_partition > 0.0
                && self.edge_partition_period > 0
                && self.edge_partition_burst > 0)
            || self.edge_crash > 0.0
    }
}

impl serde::Serialize for FaultSpec {
    fn serialize_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("seed".to_string(), self.seed.serialize_value()),
            ("sniffer_drop".to_string(), self.sniffer_drop.serialize_value()),
            ("sniffer_dup".to_string(), self.sniffer_dup.serialize_value()),
            ("sniffer_reorder".to_string(), self.sniffer_reorder.serialize_value()),
            ("poll_error".to_string(), self.poll_error.serialize_value()),
            ("poll_timeout".to_string(), self.poll_timeout.serialize_value()),
            ("txn_abort".to_string(), self.txn_abort.serialize_value()),
            ("crash_restart".to_string(), self.crash_restart.serialize_value()),
            ("poll_flap_period".to_string(), self.poll_flap_period.serialize_value()),
            ("poll_flap_burst".to_string(), self.poll_flap_burst.serialize_value()),
            ("bus_drop".to_string(), self.bus_drop.serialize_value()),
            ("bus_dup".to_string(), self.bus_dup.serialize_value()),
            ("bus_reorder".to_string(), self.bus_reorder.serialize_value()),
            ("edge_partition".to_string(), self.edge_partition.serialize_value()),
            ("edge_partition_period".to_string(), self.edge_partition_period.serialize_value()),
            ("edge_partition_burst".to_string(), self.edge_partition_burst.serialize_value()),
            ("edge_crash".to_string(), self.edge_crash.serialize_value()),
        ])
    }
}

impl serde::Deserialize for FaultSpec {
    fn deserialize_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let obj = v
            .as_object()
            .ok_or_else(|| serde::Error::custom("expected object for FaultSpec"))?;
        let mut spec = FaultSpec::default();
        for (key, val) in obj {
            let err = |e: serde::Error| serde::Error::custom(format!("FaultSpec.{key}: {e}"));
            match key.as_str() {
                "seed" => spec.seed = u64::deserialize_value(val).map_err(err)?,
                "sniffer_drop" => spec.sniffer_drop = f64::deserialize_value(val).map_err(err)?,
                "sniffer_dup" => spec.sniffer_dup = f64::deserialize_value(val).map_err(err)?,
                "sniffer_reorder" => {
                    spec.sniffer_reorder = bool::deserialize_value(val).map_err(err)?
                }
                "poll_error" => spec.poll_error = f64::deserialize_value(val).map_err(err)?,
                "poll_timeout" => spec.poll_timeout = f64::deserialize_value(val).map_err(err)?,
                "txn_abort" => spec.txn_abort = f64::deserialize_value(val).map_err(err)?,
                "crash_restart" => {
                    spec.crash_restart = f64::deserialize_value(val).map_err(err)?
                }
                "poll_flap_period" => {
                    spec.poll_flap_period = u64::deserialize_value(val).map_err(err)?
                }
                "poll_flap_burst" => {
                    spec.poll_flap_burst = u64::deserialize_value(val).map_err(err)?
                }
                "bus_drop" => spec.bus_drop = f64::deserialize_value(val).map_err(err)?,
                "bus_dup" => spec.bus_dup = f64::deserialize_value(val).map_err(err)?,
                "bus_reorder" => spec.bus_reorder = bool::deserialize_value(val).map_err(err)?,
                "edge_partition" => {
                    spec.edge_partition = f64::deserialize_value(val).map_err(err)?
                }
                "edge_partition_period" => {
                    spec.edge_partition_period = u64::deserialize_value(val).map_err(err)?
                }
                "edge_partition_burst" => {
                    spec.edge_partition_burst = u64::deserialize_value(val).map_err(err)?
                }
                "edge_crash" => spec.edge_crash = f64::deserialize_value(val).map_err(err)?,
                // Unknown fields (from a newer writer) are ignored.
                _ => {}
            }
        }
        Ok(spec)
    }
}

/// How an injected poll fault presents to the invalidator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PollFault {
    /// The DBMS rejected the polling query.
    Error,
    /// The polling query timed out.
    Timeout,
}

/// Cumulative injection counters (what the plan actually did).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Query-log records dropped.
    pub sniffer_dropped: u64,
    /// Query-log records duplicated.
    pub sniffer_duplicated: u64,
    /// Polling queries failed with an injected error.
    pub poll_errors: u64,
    /// Polling queries failed with an injected timeout.
    pub poll_timeouts: u64,
    /// Transaction statements aborted.
    pub txn_aborts: u64,
    /// Portal crash/restarts injected.
    pub crashes: u64,
    /// Bus delivery attempts dropped in flight.
    pub bus_dropped: u64,
    /// Bus deliveries duplicated in flight.
    pub bus_duplicated: u64,
    /// Edge-unreachable probes answered "partitioned".
    pub edge_partitions: u64,
    /// Edge cache crash/reboots injected.
    pub edge_crashes: u64,
}

#[derive(Debug, Default)]
struct FaultState {
    spec: FaultSpec,
    sniffer_dropped: AtomicU64,
    sniffer_duplicated: AtomicU64,
    poll_errors: AtomicU64,
    poll_timeouts: AtomicU64,
    txn_aborts: AtomicU64,
    crashes: AtomicU64,
    bus_dropped: AtomicU64,
    bus_duplicated: AtomicU64,
    edge_partitions: AtomicU64,
    edge_crashes: AtomicU64,
    /// Keys transaction-abort decisions (one per statement executed).
    txn_stmt_seq: AtomicU64,
    /// Current sync-point ordinal; phases the poll-flap burst windows.
    /// Survives restarts because the portal persists its sync sequence.
    poll_epoch: AtomicU64,
}

/// Shareable handle to one fault configuration; clones observe the same
/// counters. `FaultPlan::default()` injects nothing.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    state: Option<Arc<FaultState>>,
}

/// splitmix64 — a strong 64-bit mixer; decisions are uniform per key.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Map a hash to `[0, 1)`.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl FaultPlan {
    /// A plan from the given spec. An inert spec yields the no-op plan.
    pub fn new(spec: FaultSpec) -> Self {
        if spec.is_inert() {
            return FaultPlan::default();
        }
        FaultPlan {
            state: Some(Arc::new(FaultState {
                spec,
                ..FaultState::default()
            })),
        }
    }

    /// The inert plan (never injects).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// True when at least one fault site can fire.
    pub fn is_active(&self) -> bool {
        self.state.is_some()
    }

    /// The configured spec (the inert default for a no-op plan).
    pub fn spec(&self) -> FaultSpec {
        self.state
            .as_ref()
            .map(|s| s.spec.clone())
            .unwrap_or_default()
    }

    /// What the plan has injected so far.
    pub fn counts(&self) -> FaultCounts {
        match &self.state {
            None => FaultCounts::default(),
            Some(s) => FaultCounts {
                sniffer_dropped: s.sniffer_dropped.load(Ordering::Relaxed),
                sniffer_duplicated: s.sniffer_duplicated.load(Ordering::Relaxed),
                poll_errors: s.poll_errors.load(Ordering::Relaxed),
                poll_timeouts: s.poll_timeouts.load(Ordering::Relaxed),
                txn_aborts: s.txn_aborts.load(Ordering::Relaxed),
                crashes: s.crashes.load(Ordering::Relaxed),
                bus_dropped: s.bus_dropped.load(Ordering::Relaxed),
                bus_duplicated: s.bus_duplicated.load(Ordering::Relaxed),
                edge_partitions: s.edge_partitions.load(Ordering::Relaxed),
                edge_crashes: s.edge_crashes.load(Ordering::Relaxed),
            },
        }
    }

    fn roll(state: &FaultState, site: u64, key: u64, p: f64) -> bool {
        p > 0.0 && unit(mix(state.spec.seed ^ site.wrapping_mul(0xa076_1d64_78bd_642f) ^ key)) < p
    }

    /// Sniffer site: should the query record with this id be dropped?
    /// Counts the injection when it fires.
    pub fn drop_query_record(&self, record_id: u64) -> bool {
        let Some(s) = &self.state else { return false };
        let hit = Self::roll(s, 1, record_id, s.spec.sniffer_drop);
        if hit {
            s.sniffer_dropped.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Sniffer site: should the query record with this id be duplicated?
    pub fn duplicate_query_record(&self, record_id: u64) -> bool {
        let Some(s) = &self.state else { return false };
        let hit = Self::roll(s, 2, record_id, s.spec.sniffer_dup);
        if hit {
            s.sniffer_duplicated.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Sniffer site: reorder the query log on drain?
    pub fn reorder_query_records(&self) -> bool {
        self.state
            .as_ref()
            .is_some_and(|s| s.spec.sniffer_reorder)
    }

    /// Invalidator site: does this poll attempt fault? Keyed on the poll's
    /// structural key (not a sequence counter) so the decision is identical
    /// across worker counts and across replays, plus the retry attempt
    /// number so a transient fault can clear on a later attempt. During a
    /// poll-flap burst window every attempt faults regardless of key — the
    /// sustained outage retries cannot paper over.
    pub fn poll_fault(&self, poll_key: u64, attempt: u32) -> Option<PollFault> {
        let s = self.state.as_ref()?;
        if s.spec.poll_flap_period > 0
            && s.poll_epoch.load(Ordering::Relaxed) % s.spec.poll_flap_period
                < s.spec.poll_flap_burst
        {
            s.poll_errors.fetch_add(1, Ordering::Relaxed);
            return Some(PollFault::Error);
        }
        // Attempt 0 keys exactly as before; retries re-roll under a
        // distinct derived key.
        let key = poll_key.wrapping_add((attempt as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        if Self::roll(s, 3, key, s.spec.poll_error) {
            s.poll_errors.fetch_add(1, Ordering::Relaxed);
            return Some(PollFault::Error);
        }
        if Self::roll(s, 4, key, s.spec.poll_timeout) {
            s.poll_timeouts.fetch_add(1, Ordering::Relaxed);
            return Some(PollFault::Timeout);
        }
        None
    }

    /// Advance the poll-flap phase. The portal calls this with its durable
    /// sync-point ordinal at the start of every sync point, so burst
    /// windows line up across restarts and worker counts.
    pub fn set_poll_epoch(&self, epoch: u64) {
        if let Some(s) = &self.state {
            s.poll_epoch.store(epoch, Ordering::Relaxed);
        }
    }

    /// Harness site: should the portal crash before this action? Keyed on
    /// the action index so a trace replays with identical crash points.
    pub fn crash_before_action(&self, action_index: u64) -> bool {
        let Some(s) = &self.state else { return false };
        let hit = Self::roll(s, 6, action_index, s.spec.crash_restart);
        if hit {
            s.crashes.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Database site: should this transaction statement abort? Keyed on a
    /// monotone per-plan statement sequence (deterministic for a
    /// deterministic workload).
    pub fn txn_abort(&self) -> bool {
        let Some(s) = &self.state else { return false };
        let seq = s.txn_stmt_seq.fetch_add(1, Ordering::Relaxed);
        let hit = Self::roll(s, 5, seq, s.spec.txn_abort);
        if hit {
            s.txn_aborts.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Mix an `(edge, frame's newest seq, attempt)` delivery coordinate
    /// into one decision key. Attempt is included so a dropped send can
    /// succeed on a later retry — the transience the round's retry loop
    /// exploits.
    fn bus_key(edge: u64, seq: u64, attempt: u32) -> u64 {
        mix(edge.wrapping_mul(0xff51_afd7_ed55_8ccd) ^ seq)
            .wrapping_add((attempt as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// Bus site: is this delivery attempt dropped in flight?
    pub fn bus_drop_delivery(&self, edge: u64, seq: u64, attempt: u32) -> bool {
        let Some(s) = &self.state else { return false };
        let hit = Self::roll(s, 7, Self::bus_key(edge, seq, attempt), s.spec.bus_drop);
        if hit {
            s.bus_dropped.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Bus site: is this delivery duplicated in flight? Keyed without the
    /// attempt so a duplicated frame stays duplicated on replay.
    pub fn bus_duplicate_delivery(&self, edge: u64, seq: u64) -> bool {
        let Some(s) = &self.state else { return false };
        let hit = Self::roll(s, 8, Self::bus_key(edge, seq, 0), s.spec.bus_dup);
        if hit {
            s.bus_duplicated.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Bus site: deliver an edge's previous frame again after its current
    /// one?
    pub fn bus_reorder_sends(&self) -> bool {
        self.state.as_ref().is_some_and(|s| s.spec.bus_reorder)
    }

    /// Bus site: is this edge unreachable right now? Partition windows are
    /// phased by the same durable sync-point epoch as poll flapping, and
    /// within each burst window the decision is rolled once per
    /// (window, edge) — so an edge stays down for the whole window (the
    /// sustained outage that must trip the partition budget) while other
    /// edges may stay up.
    pub fn edge_partitioned(&self, edge: u64) -> bool {
        let Some(s) = &self.state else { return false };
        if s.spec.edge_partition_period == 0 || s.spec.edge_partition_burst == 0 {
            return false;
        }
        let epoch = s.poll_epoch.load(Ordering::Relaxed);
        if epoch % s.spec.edge_partition_period >= s.spec.edge_partition_burst {
            return false;
        }
        let window = epoch / s.spec.edge_partition_period;
        let hit = Self::roll(
            s,
            9,
            window.wrapping_mul(0xc2b2_ae3d_27d4_eb4f) ^ edge,
            s.spec.edge_partition,
        );
        if hit {
            s.edge_partitions.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Harness site: should this edge cache crash (reboot) before this
    /// action? Keyed on (action index, edge) for replayable reboots.
    pub fn edge_crash_before_action(&self, action_index: u64, edge: u64) -> bool {
        let Some(s) = &self.state else { return false };
        let hit = Self::roll(
            s,
            10,
            mix(edge.wrapping_mul(0xff51_afd7_ed55_8ccd)) ^ action_index,
            s.spec.edge_crash,
        );
        if hit {
            s.edge_crashes.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_inert() {
        let p = FaultPlan::default();
        assert!(!p.is_active());
        assert!(!p.drop_query_record(7));
        assert!(!p.duplicate_query_record(7));
        assert!(!p.reorder_query_records());
        assert_eq!(p.poll_fault(42, 0), None);
        assert!(!p.txn_abort());
        assert!(!p.crash_before_action(0));
        assert_eq!(p.counts(), FaultCounts::default());
    }

    #[test]
    fn inert_spec_collapses_to_noop() {
        assert!(!FaultPlan::new(FaultSpec::default()).is_active());
    }

    #[test]
    fn decisions_are_deterministic_per_key() {
        let spec = FaultSpec {
            seed: 99,
            sniffer_drop: 0.5,
            poll_error: 0.5,
            ..FaultSpec::default()
        };
        let a = FaultPlan::new(spec.clone());
        let b = FaultPlan::new(spec);
        for key in 0..200 {
            assert_eq!(a.drop_query_record(key), b.drop_query_record(key));
            assert_eq!(a.poll_fault(key, 0), b.poll_fault(key, 0));
            assert_eq!(a.poll_fault(key, 1), b.poll_fault(key, 1));
        }
        assert_eq!(a.counts(), b.counts());
        assert!(a.counts().sniffer_dropped > 0, "p=0.5 over 200 keys fires");
        assert!(a.counts().poll_errors > 0);
    }

    #[test]
    fn retry_attempts_reroll_transient_faults() {
        let p = FaultPlan::new(FaultSpec {
            seed: 7,
            poll_error: 0.5,
            ..FaultSpec::default()
        });
        // With p=0.5 over 200 keys some poll must fault on attempt 0 and
        // clear on a retry — that is the transience retries exploit.
        let cleared = (0..200u64).any(|k| {
            p.poll_fault(k, 0).is_some() && p.poll_fault(k, 1).is_none()
        });
        assert!(cleared, "no fault cleared on retry");
    }

    #[test]
    fn poll_flap_faults_exactly_in_burst_windows() {
        let p = FaultPlan::new(FaultSpec {
            poll_flap_period: 4,
            poll_flap_burst: 2,
            ..FaultSpec::default()
        });
        assert!(p.is_active());
        for epoch in 0..12u64 {
            p.set_poll_epoch(epoch);
            let in_burst = epoch % 4 < 2;
            assert_eq!(
                p.poll_fault(99, 0).is_some(),
                in_burst,
                "epoch {epoch} burst expectation"
            );
            // Retries cannot dodge a burst: the whole window faults.
            if in_burst {
                assert!(p.poll_fault(99, 3).is_some());
            }
        }
    }

    #[test]
    fn crash_decisions_are_deterministic_and_counted() {
        let spec = FaultSpec {
            seed: 3,
            crash_restart: 0.3,
            ..FaultSpec::default()
        };
        let a = FaultPlan::new(spec.clone());
        let b = FaultPlan::new(spec);
        let hits: Vec<u64> = (0..100).filter(|&i| a.crash_before_action(i)).collect();
        let hits_b: Vec<u64> = (0..100).filter(|&i| b.crash_before_action(i)).collect();
        assert_eq!(hits, hits_b);
        assert!(!hits.is_empty());
        assert_eq!(a.counts().crashes, hits.len() as u64);
    }

    #[test]
    fn probability_one_always_fires() {
        let p = FaultPlan::new(FaultSpec {
            txn_abort: 1.0,
            ..FaultSpec::default()
        });
        assert!(p.txn_abort());
        assert!(p.txn_abort());
        assert_eq!(p.counts().txn_aborts, 2);
    }

    #[test]
    fn bus_spec_is_not_inert_and_decisions_are_deterministic() {
        let spec = FaultSpec {
            seed: 11,
            bus_drop: 0.5,
            bus_dup: 0.3,
            ..FaultSpec::default()
        };
        assert!(!spec.is_inert());
        assert!(spec.has_bus_faults());
        let a = FaultPlan::new(spec.clone());
        let b = FaultPlan::new(spec);
        for seq in 0..200u64 {
            for edge in 0..2u64 {
                assert_eq!(
                    a.bus_drop_delivery(edge, seq, 0),
                    b.bus_drop_delivery(edge, seq, 0)
                );
                assert_eq!(
                    a.bus_duplicate_delivery(edge, seq),
                    b.bus_duplicate_delivery(edge, seq)
                );
            }
        }
        assert_eq!(a.counts(), b.counts());
        assert!(a.counts().bus_dropped > 0);
        assert!(a.counts().bus_duplicated > 0);
    }

    #[test]
    fn dropped_delivery_can_succeed_on_retry() {
        let p = FaultPlan::new(FaultSpec {
            seed: 5,
            bus_drop: 0.5,
            ..FaultSpec::default()
        });
        let cleared = (0..200u64)
            .any(|seq| p.bus_drop_delivery(0, seq, 0) && !p.bus_drop_delivery(0, seq, 1));
        assert!(cleared, "no dropped delivery cleared on retry");
    }

    #[test]
    fn edge_partition_holds_for_whole_burst_window_per_edge() {
        let p = FaultPlan::new(FaultSpec {
            seed: 21,
            edge_partition: 0.7,
            edge_partition_period: 4,
            edge_partition_burst: 2,
            ..FaultSpec::default()
        });
        assert!(p.is_active());
        let mut any_partition = false;
        for window in 0..16u64 {
            for edge in 0..3u64 {
                // Both epochs inside the burst agree; outside never fires.
                p.set_poll_epoch(window * 4);
                let during = p.edge_partitioned(edge);
                p.set_poll_epoch(window * 4 + 1);
                assert_eq!(p.edge_partitioned(edge), during, "stable within window");
                p.set_poll_epoch(window * 4 + 2);
                assert!(!p.edge_partitioned(edge), "outside burst");
                any_partition |= during;
            }
        }
        assert!(any_partition, "p=0.7 over 48 window×edge cells fires");
    }

    #[test]
    fn edge_crash_decisions_are_per_edge_and_counted() {
        let p = FaultPlan::new(FaultSpec {
            seed: 9,
            edge_crash: 0.3,
            ..FaultSpec::default()
        });
        let hits_e0: Vec<u64> = (0..100).filter(|&i| p.edge_crash_before_action(i, 0)).collect();
        let hits_e1: Vec<u64> = (0..100).filter(|&i| p.edge_crash_before_action(i, 1)).collect();
        assert!(!hits_e0.is_empty());
        assert_ne!(hits_e0, hits_e1, "edges crash independently");
        assert_eq!(
            p.counts().edge_crashes,
            (hits_e0.len() + hits_e1.len()) as u64
        );
    }

    #[test]
    fn clones_share_counters() {
        let p = FaultPlan::new(FaultSpec {
            sniffer_drop: 1.0,
            ..FaultSpec::default()
        });
        let q = p.clone();
        assert!(q.drop_query_record(1));
        assert_eq!(p.counts().sniffer_dropped, 1);
    }
}
