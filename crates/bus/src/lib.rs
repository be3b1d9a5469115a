//! Networked invalidation bus: the central invalidator fans sequenced
//! eject batches out to N edge page caches with an explicit reliability
//! contract.
//!
//! * **Monotone sequencing** — every sync point publishes one
//!   [`EjectBatch`] with a bus-wide monotone `seq` (empty batches act as
//!   heartbeats, so an edge can always tell "nothing happened" from
//!   "I missed something").
//! * **At-least-once delivery** — [`InvalidationBus::deliver_all`] retries
//!   each edge with bounded attempts and deterministic (modeled, never
//!   slept) backoff; the transport may drop, duplicate, or fail
//!   deliveries.
//! * **Per-edge watermarks** — the bus tracks each edge's highest
//!   contiguously *acked* batch. Watermarks ride the durable journal via
//!   [`InvalidationBus::durable_marks`]/[`InvalidationBus::restore`], so a
//!   crashed-and-recovered invalidator never re-opens a staleness window.
//! * **Idempotent apply** — [`EdgeEndpoint::apply`] absorbs duplicates
//!   (`seq <= applied`) and buffers reorders in a gap buffer; the ack
//!   always carries the highest *contiguous* applied seq, so the bus
//!   retransmits exactly the missing prefix.
//! * **Partition-tolerant degradation** — an edge that cannot be renewed
//!   within its lease self-ejects (Vcache-style conservative flush: serve
//!   nothing cacheable rather than anything stale) and stops admitting
//!   pages; past a budget of failed rounds the bus marks it partitioned
//!   (a degraded `/healthz` reason). On heal, a watermark-driven catch-up
//!   replays the retained batches and admission resumes.
//!
//! Two transports implement [`BusTransport`]: the deterministic
//! [`MemoryTransport`] with `FaultPlan`-driven fault injection
//! (drop/dup/partition per edge), and the real-socket transport in
//! [`socket`] reusing the same std-TCP style as the `crates/obs` admin
//! server for CI smoke runs.
//!
//! The safety argument the harness oracle checks: after every sync point,
//! each in-process edge is either **fully caught up** (acked == latest
//! published seq) or **empty** (self-ejected) — in both states it cannot
//! serve a stale page.

pub mod socket;

use cacheportal_cache::PageCache;
use cacheportal_db::FaultPlan;
use cacheportal_web::clock::Micros;
use cacheportal_web::PageKey;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One sync point's eject message: the sequenced unit of bus delivery.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct EjectBatch {
    /// Bus-wide monotone sequence number (starts at 1).
    pub seq: u64,
    /// The originating sync point's durable ordinal.
    pub sync_seq: u64,
    /// Logical timestamp of the originating sync point.
    pub ts: Micros,
    /// Pages to eject. May be empty (heartbeat: "nothing to eject, but
    /// the sequence advanced").
    pub pages: Vec<PageKey>,
}

/// The edge's reply to a delivery: its post-apply watermark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Ack {
    /// Highest batch seq applied *contiguously* at the edge. Anything
    /// above this (gap-buffered or never seen) must be retransmitted.
    pub applied_seq: u64,
}

/// Why a delivery attempt failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// The edge could not be reached (drop, partition, refused connect).
    Unreachable(&'static str),
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Unreachable(why) => write!(f, "edge unreachable: {why}"),
        }
    }
}

/// How eject batches move from the bus to one edge. `deliver` is
/// synchronous: a successful return means the edge applied (or buffered)
/// the batch and the [`Ack`] is its current watermark.
pub trait BusTransport: Send + Sync {
    /// Deliver `batch` to edge `edge` (registration index). `attempt` is
    /// the retry ordinal within the current round (0 = first try) so
    /// fault injection can clear on retries.
    fn deliver(&self, edge: usize, batch: &EjectBatch, attempt: u32) -> Result<Ack, TransportError>;

    /// Hand the transport the in-process endpoint for `edge`. Remote
    /// transports (sockets) ignore this — their endpoint lives behind the
    /// wire.
    fn attach(&self, _edge: usize, _endpoint: Arc<EdgeEndpoint>) {}
}

/// Cumulative per-edge apply-side counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EdgeCounters {
    /// Batches applied in order (including drains from the gap buffer).
    pub applied_batches: u64,
    /// Duplicate deliveries absorbed (`seq <= applied`).
    pub absorbed_duplicates: u64,
    /// Out-of-order batches parked in the gap buffer.
    pub buffered_gaps: u64,
    /// Pages actually removed by applied ejects.
    pub ejected_pages: u64,
    /// Times the edge entered degraded (self-ejection) mode.
    pub self_ejections: u64,
    /// Pages conservatively flushed (degradation, reboot, rebase).
    pub flushed_pages: u64,
}

struct EdgeInner {
    applied_seq: u64,
    pending: BTreeMap<u64, EjectBatch>,
    degraded: bool,
    counters: EdgeCounters,
}

/// The edge side of the bus: one page cache plus the idempotent-apply
/// state machine (watermark, gap buffer, degraded flag).
pub struct EdgeEndpoint {
    name: String,
    cache: Arc<PageCache>,
    inner: Mutex<EdgeInner>,
}

impl EdgeEndpoint {
    /// A fresh endpoint with watermark `applied_seq` (0 = nothing applied).
    pub fn new(name: impl Into<String>, cache: Arc<PageCache>, applied_seq: u64) -> EdgeEndpoint {
        EdgeEndpoint {
            name: name.into(),
            cache,
            inner: Mutex::new(EdgeInner {
                applied_seq,
                pending: BTreeMap::new(),
                degraded: false,
                counters: EdgeCounters::default(),
            }),
        }
    }

    /// The edge's name (durable watermark key).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The edge's page cache.
    pub fn cache(&self) -> &Arc<PageCache> {
        &self.cache
    }

    /// Idempotent apply: duplicates are absorbed, the next-in-sequence
    /// batch applies (and drains any contiguous run from the gap buffer),
    /// and an out-of-order batch parks in the gap buffer. The returned
    /// [`Ack`] is the highest contiguous applied seq — a gap keeps the
    /// ack low, which is what makes the bus retransmit the missing prefix.
    pub fn apply(&self, batch: &EjectBatch) -> Ack {
        let mut g = self.inner.lock();
        if batch.seq <= g.applied_seq {
            g.counters.absorbed_duplicates += 1;
            return Ack { applied_seq: g.applied_seq };
        }
        if batch.seq == g.applied_seq + 1 {
            self.apply_one(&mut g, batch);
            loop {
                let next_seq = g.applied_seq + 1;
                let Some(next) = g.pending.remove(&next_seq) else {
                    break;
                };
                self.apply_one(&mut g, &next);
            }
        } else {
            if !g.pending.contains_key(&batch.seq) {
                g.counters.buffered_gaps += 1;
            }
            g.pending.insert(batch.seq, batch.clone());
        }
        Ack { applied_seq: g.applied_seq }
    }

    fn apply_one(&self, g: &mut EdgeInner, batch: &EjectBatch) {
        let removed = self.cache.invalidate(batch.pages.iter());
        g.counters.ejected_pages += removed as u64;
        g.counters.applied_batches += 1;
        g.applied_seq = batch.seq;
    }

    /// Admit a page at this edge. Declined while degraded — a degraded
    /// edge must stay empty so it cannot serve anything stale — and an edge
    /// that admits takes a handle on `body`, not a copy: the origin and
    /// every in-process edge hold the one allocation.
    pub fn admit(&self, key: &PageKey, body: &Arc<str>, now: Micros) -> bool {
        if self.inner.lock().degraded {
            return false;
        }
        self.cache.put(key.clone(), body.clone(), now);
        true
    }

    /// Enter degraded (self-ejection) mode: flush the whole cache — the
    /// Vcache-style conservative fallback while the bus cannot renew this
    /// edge. Returns `(newly_degraded, pages_flushed)`.
    pub fn enter_degraded(&self) -> (bool, usize) {
        let mut g = self.inner.lock();
        let newly = !g.degraded;
        g.degraded = true;
        if newly {
            g.counters.self_ejections += 1;
        }
        drop(g);
        let flushed = self.cache.clear();
        self.inner.lock().counters.flushed_pages += flushed as u64;
        (newly, flushed)
    }

    /// Leave degraded mode (called once the watermark catch-up completes).
    pub fn exit_degraded(&self) {
        self.inner.lock().degraded = false;
    }

    /// Whether the edge is currently self-ejecting.
    pub fn is_degraded(&self) -> bool {
        self.inner.lock().degraded
    }

    /// Reboot the endpoint: its volatile state (watermark, gap buffer) is
    /// lost and rebuilt from the bus's last *acked* mark, and pages
    /// admitted at or after that mark's timestamp are conservatively
    /// flushed before rejoining. Returns the flush count.
    pub fn reboot(&self, acked: u64, acked_ts: Micros) -> usize {
        let mut g = self.inner.lock();
        g.pending.clear();
        g.applied_seq = acked;
        drop(g);
        let flushed = self.cache.evict_admitted_since(acked_ts);
        self.inner.lock().counters.flushed_pages += flushed as u64;
        flushed
    }

    /// Full conservative rebase: the retained history this edge needs was
    /// lost (invalidator crash or retention overflow), so drop everything
    /// and jump the watermark to `latest`. Empty cache + current watermark
    /// is trivially fresh.
    pub fn rebase(&self, latest: u64) -> usize {
        let mut g = self.inner.lock();
        g.pending.clear();
        g.applied_seq = latest;
        drop(g);
        let flushed = self.cache.clear();
        self.inner.lock().counters.flushed_pages += flushed as u64;
        flushed
    }

    /// Highest contiguously applied batch seq.
    pub fn applied_seq(&self) -> u64 {
        self.inner.lock().applied_seq
    }

    /// Batches parked in the gap buffer.
    pub fn pending_gaps(&self) -> usize {
        self.inner.lock().pending.len()
    }

    /// Apply-side counters.
    pub fn counters(&self) -> EdgeCounters {
        self.inner.lock().counters
    }
}

/// What [`InvalidationBus::new`] takes: the bus has no settings of its own
/// (its limits are the constants below); the value stays for callers
/// written against it.
#[derive(Debug, Clone, Default)]
pub struct BusConfig {}

/// Delivery attempts per batch per round. Partitioned edges get a single
/// probe per round instead.
const MAX_ATTEMPTS: u32 = 3;

/// Base for the modeled exponential backoff between attempts (recorded in
/// the delivery report, never slept).
const BACKOFF_BASE_MICROS: u64 = 1_000;

/// Consecutive failed rounds before an edge is marked partitioned.
const PARTITION_AFTER: u64 = 2;

/// Hard cap on retained (undelivered + redelivery-buffer) batches.
const RETAIN_CAP: usize = 1024;

/// Newest batches kept past full acknowledgement as a redelivery buffer
/// (lost-ack recovery).
const REDELIVERY_KEEP: u64 = 4;

/// What one [`InvalidationBus::deliver_all`] round did.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeliveryReport {
    /// Round ordinal (monotone).
    pub round: u64,
    /// Successful deliveries (acked batches).
    pub deliveries_ok: u64,
    /// Failed delivery attempts.
    pub failed_attempts: u64,
    /// Retry attempts issued (attempts beyond the first per batch).
    pub retries: u64,
    /// Catch-up deliveries (batches older than the newest published).
    pub catch_up_batches: u64,
    /// Modeled backoff accumulated this round.
    pub backoff_micros: u64,
    /// Edges newly marked partitioned this round.
    pub newly_partitioned: Vec<String>,
    /// Edges that healed (partition cleared) this round.
    pub healed: Vec<String>,
    /// Edges that newly self-ejected (entered degraded mode) this round.
    pub self_ejected: Vec<String>,
}

/// Aggregate bus counters for metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BusStats {
    /// Batches published.
    pub published: u64,
    /// Delivery rounds run.
    pub rounds: u64,
    /// Successful deliveries across all rounds.
    pub deliveries_ok: u64,
    /// Failed delivery attempts across all rounds.
    pub delivery_failures: u64,
    /// Retry attempts across all rounds.
    pub retries: u64,
    /// Catch-up deliveries across all rounds.
    pub catch_up_batches: u64,
    /// Registered edges.
    pub edges: u64,
    /// Edges currently marked partitioned.
    pub partitioned_edges: u64,
    /// Batches currently retained.
    pub retained: u64,
    /// Edge reboots processed.
    pub reboots: u64,
    /// Duplicate deliveries absorbed (summed over in-process edges).
    pub duplicates_absorbed: u64,
    /// Gap-buffered deliveries (summed over in-process edges).
    pub gaps_buffered: u64,
    /// Self-ejection (degradation) events (summed over in-process edges).
    pub self_ejections: u64,
    /// Pages conservatively flushed (summed over in-process edges).
    pub flushed_pages: u64,
}

/// One `/bus` table row.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct EdgeRow {
    /// Edge name.
    pub name: String,
    /// Registration index.
    pub index: usize,
    /// Whether an in-process endpoint is attached (false = remote).
    pub connected: bool,
    /// Highest acked batch seq.
    pub acked: u64,
    /// Logical timestamp of the last full renewal.
    pub acked_ts: Micros,
    /// Batches behind the latest published seq.
    pub lag: u64,
    /// Marked partitioned by the bus.
    pub partitioned: bool,
    /// Self-ejecting (degraded) right now.
    pub degraded: bool,
    /// Consecutive rounds without a full renewal.
    pub consec_failed_rounds: u64,
    /// Retry attempts spent on this edge.
    pub retries: u64,
    /// Failed delivery attempts on this edge.
    pub failures: u64,
    /// Round of the last full renewal.
    pub last_renewal_round: u64,
    /// Batches the edge applied in order (this and the five counters after
    /// it are the edge's apply side: zero for a remote edge).
    pub applied_batches: u64,
    /// Duplicate deliveries the edge absorbed.
    pub duplicates_absorbed: u64,
    /// Out-of-order batches the edge parked in its gap buffer.
    pub gaps_buffered: u64,
    /// Pages the edge's applied ejects removed.
    pub ejected_pages: u64,
    /// Times the edge entered degraded (self-ejection) mode.
    pub self_ejections: u64,
    /// Pages the edge flushed conservatively.
    pub flushed_pages: u64,
}

/// The `/bus` admin document: the bus's aggregate delivery counters and
/// one row per edge.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct BusDoc {
    /// `cacheportal.bus.v1`.
    pub schema: String,
    /// The newest published batch.
    pub latest_seq: u64,
    /// Batches published.
    pub published: u64,
    /// Delivery rounds run.
    pub rounds: u64,
    /// Batches currently retained.
    pub retained: u64,
    /// Successful deliveries across all rounds.
    pub deliveries_ok: u64,
    /// Failed delivery attempts across all rounds.
    pub delivery_failures: u64,
    /// Retry attempts across all rounds.
    pub retries: u64,
    /// Catch-up deliveries across all rounds.
    pub catch_up_batches: u64,
    /// Edges currently marked partitioned.
    pub partitioned_edges: u64,
    /// Edge reboots processed.
    pub reboots: u64,
    /// Per-edge watermark, lag and partition state.
    pub edges: Vec<EdgeRow>,
}

struct EdgeSlot {
    name: String,
    endpoint: Option<Arc<EdgeEndpoint>>,
    acked: u64,
    acked_ts: Micros,
    partitioned: bool,
    consec_failed_rounds: u64,
    retries_total: u64,
    failures_total: u64,
    last_renewal_round: u64,
}

struct BusInner {
    next_seq: u64,
    retained: BTreeMap<u64, EjectBatch>,
    edges: Vec<EdgeSlot>,
    restored: Vec<(String, u64, u64)>,
    rounds: u64,
    published: u64,
    deliveries_ok: u64,
    delivery_failures: u64,
    retries: u64,
    catch_up_batches: u64,
    reboots: u64,
}

/// The invalidator side of the bus: sequencing, retained batches,
/// per-edge watermarks, retry/partition bookkeeping.
pub struct InvalidationBus {
    transport: Arc<dyn BusTransport>,
    plan: FaultPlan,
    inner: Mutex<BusInner>,
}

impl InvalidationBus {
    /// A bus over `transport`. `plan` drives the deterministic reorder
    /// scheduling (the drop/dup/partition sites live in the transport).
    pub fn new(_config: BusConfig, transport: Arc<dyn BusTransport>, plan: FaultPlan) -> InvalidationBus {
        InvalidationBus {
            transport,
            plan,
            inner: Mutex::new(BusInner {
                next_seq: 1,
                retained: BTreeMap::new(),
                edges: Vec::new(),
                restored: Vec::new(),
                rounds: 0,
                published: 0,
                deliveries_ok: 0,
                delivery_failures: 0,
                retries: 0,
                catch_up_batches: 0,
                reboots: 0,
            }),
        }
    }

    /// Register an in-process edge cache. If a durable watermark was
    /// restored for `name`, the edge rejoins conservatively: pages
    /// admitted past the mark's timestamp are flushed, and if the mark is
    /// older than the latest published seq (the retained batches between
    /// them died with the crashed invalidator) the edge is fully rebased.
    /// Returns the registration index.
    pub fn register_edge(&self, name: &str, cache: Arc<PageCache>, now: Micros) -> usize {
        let mut inner = self.inner.lock();
        let latest = inner.next_seq - 1;
        let round = inner.rounds;
        let restored = inner
            .restored
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, seq, ts)| (seq, ts));
        let (endpoint, acked, acked_ts) = match restored {
            Some((seq, ts)) if seq >= latest => {
                // The mark is current: flush only what was admitted past it.
                let ep = Arc::new(EdgeEndpoint::new(name, cache, seq));
                ep.cache().evict_admitted_since(ts.saturating_add(1));
                (ep, seq, ts)
            }
            Some((seq, _)) => {
                // Batches in (seq, latest] were lost with the crash —
                // nothing to replay, so full flush + rebase.
                let ep = Arc::new(EdgeEndpoint::new(name, cache, seq));
                ep.rebase(latest);
                (ep, latest, now)
            }
            None => {
                // Fresh edge, empty cache: start at the current frontier.
                (Arc::new(EdgeEndpoint::new(name, cache, latest)), latest, now)
            }
        };
        let idx = inner.edges.len();
        inner.edges.push(EdgeSlot {
            name: name.to_string(),
            endpoint: Some(endpoint.clone()),
            acked,
            acked_ts,
            partitioned: false,
            consec_failed_rounds: 0,
            retries_total: 0,
            failures_total: 0,
            last_renewal_round: round,
        });
        drop(inner);
        self.transport.attach(idx, endpoint);
        idx
    }

    /// Register a remote edge (real-socket transport): the bus tracks its
    /// watermark but cannot flush or degrade it locally.
    pub fn register_remote_edge(&self, name: &str, now: Micros) -> usize {
        let mut inner = self.inner.lock();
        let latest = inner.next_seq - 1;
        let round = inner.rounds;
        let idx = inner.edges.len();
        inner.edges.push(EdgeSlot {
            name: name.to_string(),
            endpoint: None,
            acked: latest,
            acked_ts: now,
            partitioned: false,
            consec_failed_rounds: 0,
            retries_total: 0,
            failures_total: 0,
            last_renewal_round: round,
        });
        idx
    }

    /// Sequence one sync point's ejects into a retained batch. Always
    /// publish — an empty batch is the heartbeat that lets edges prove
    /// they are caught up. Returns the assigned seq.
    pub fn publish(&self, sync_seq: u64, ts: Micros, pages: Vec<PageKey>) -> u64 {
        let mut inner = self.inner.lock();
        let seq = inner.next_seq;
        inner.next_seq += 1;
        inner.published += 1;
        inner.retained.insert(
            seq,
            EjectBatch {
                seq,
                sync_seq,
                ts,
                pages,
            },
        );
        seq
    }

    /// One delivery round: for every edge, send the backlog past its
    /// watermark (at-least-once, bounded retries, modeled backoff), then
    /// enforce the lease — an edge that could not be fully renewed
    /// self-ejects, and past the partition budget it is marked
    /// partitioned. Retained batches below every watermark are pruned
    /// (minus a small redelivery buffer).
    pub fn deliver_all(&self, now: Micros) -> DeliveryReport {
        let mut inner = self.inner.lock();
        inner.rounds += 1;
        let round = inner.rounds;
        let latest = inner.next_seq - 1;
        let mut report = DeliveryReport {
            round,
            ..DeliveryReport::default()
        };
        let reorder = self.plan.bus_reorder_sends();
        for idx in 0..inner.edges.len() {
            let (acked, partitioned) = {
                let s = &inner.edges[idx];
                (s.acked, s.partitioned)
            };
            // The backlog: everything retained past this edge's watermark.
            let mut backlog: Vec<EjectBatch> = inner
                .retained
                .range(acked + 1..)
                .map(|(_, b)| b.clone())
                .collect();
            let contiguous = backlog.first().map(|b| b.seq == acked + 1).unwrap_or(true);
            if acked < latest && !contiguous {
                // Retention lost the prefix this edge needs (cap overflow):
                // full conservative rebase, then it is current by definition.
                let slot = &mut inner.edges[idx];
                if let Some(ep) = &slot.endpoint {
                    ep.rebase(latest);
                    report.self_ejected.push(slot.name.clone());
                }
                slot.acked = latest;
                slot.acked_ts = now;
                slot.consec_failed_rounds = 0;
                slot.last_renewal_round = round;
                if slot.partitioned {
                    slot.partitioned = false;
                    report.healed.push(slot.name.clone());
                }
                continue;
            }
            if reorder && backlog.len() > 1 {
                backlog.reverse();
            }
            // Partitioned edges get one probe; healthy edges full retries.
            let max_attempts = if partitioned { 1 } else { MAX_ATTEMPTS };
            let mut new_acked = acked;
            let mut round_ok = true;
            for batch in &backlog {
                let mut delivered = false;
                for attempt in 0..max_attempts {
                    if attempt > 0 {
                        report.retries += 1;
                        inner.retries += 1;
                        inner.edges[idx].retries_total += 1;
                        report.backoff_micros +=
                            BACKOFF_BASE_MICROS << (attempt - 1).min(10);
                    }
                    match self.transport.deliver(idx, batch, attempt) {
                        Ok(ack) => {
                            new_acked = new_acked.max(ack.applied_seq);
                            report.deliveries_ok += 1;
                            inner.deliveries_ok += 1;
                            if batch.seq < latest {
                                report.catch_up_batches += 1;
                                inner.catch_up_batches += 1;
                            }
                            delivered = true;
                            break;
                        }
                        Err(_) => {
                            report.failed_attempts += 1;
                            inner.delivery_failures += 1;
                            inner.edges[idx].failures_total += 1;
                        }
                    }
                }
                if !delivered {
                    round_ok = false;
                    break;
                }
            }
            let slot = &mut inner.edges[idx];
            if new_acked > slot.acked {
                slot.acked = new_acked;
                slot.acked_ts = now;
            }
            if round_ok && slot.acked == latest {
                slot.consec_failed_rounds = 0;
                slot.last_renewal_round = round;
                if slot.partitioned {
                    slot.partitioned = false;
                    report.healed.push(slot.name.clone());
                }
                if let Some(ep) = &slot.endpoint {
                    if ep.is_degraded() {
                        // Watermark catch-up complete: admission resumes.
                        ep.exit_degraded();
                    }
                }
            } else {
                slot.consec_failed_rounds += 1;
                if !slot.partitioned && slot.consec_failed_rounds >= PARTITION_AFTER {
                    slot.partitioned = true;
                    report.newly_partitioned.push(slot.name.clone());
                }
                // Not renewed this round: the lease has lapsed, and the
                // edge self-ejects (what the zero-staleness oracle needs).
                if let Some(ep) = &slot.endpoint {
                    let (newly, _) = ep.enter_degraded();
                    if newly {
                        report.self_ejected.push(slot.name.clone());
                    }
                }
            }
        }
        self.gc_retained(&mut inner, latest);
        report
    }

    fn gc_retained(&self, inner: &mut BusInner, latest: u64) {
        let min_acked = inner
            .edges
            .iter()
            .map(|s| s.acked)
            .min()
            .unwrap_or(latest);
        // Keep a small redelivery buffer of the newest batches even once
        // fully acked (lost-ack recovery via redeliver_all).
        let gc_limit = min_acked.min(latest.saturating_sub(REDELIVERY_KEEP));
        let doomed: Vec<u64> = inner
            .retained
            .range(..=gc_limit)
            .map(|(&k, _)| k)
            .collect();
        for k in doomed {
            inner.retained.remove(&k);
        }
        while inner.retained.len() > RETAIN_CAP {
            let Some((&oldest, _)) = inner.retained.iter().next() else {
                break;
            };
            inner.retained.remove(&oldest);
        }
    }

    /// Redeliver every retained batch to every connected edge once —
    /// models the at-least-once path after a lost ack: the sender cannot
    /// know what arrived, so it sends again and idempotent apply absorbs
    /// the duplicates. Returns successful deliveries.
    pub fn redeliver_all(&self) -> u64 {
        let inner = self.inner.lock();
        let mut delivered = 0;
        for (idx, slot) in inner.edges.iter().enumerate() {
            if slot.endpoint.is_none() {
                continue;
            }
            for batch in inner.retained.values() {
                if self.transport.deliver(idx, batch, 0).is_ok() {
                    delivered += 1;
                }
            }
        }
        delivered
    }

    /// Reboot edge `idx`: its volatile endpoint state is rebuilt from the
    /// bus-side acked mark, and pages admitted past the mark are flushed
    /// (see [`EdgeEndpoint::reboot`]). The next round's catch-up replays
    /// anything past the mark. Returns the flush count.
    pub fn reboot_edge(&self, idx: usize, _now: Micros) -> usize {
        let mut inner = self.inner.lock();
        inner.reboots += 1;
        let slot = &inner.edges[idx];
        match &slot.endpoint {
            Some(ep) => ep.reboot(slot.acked, slot.acked_ts),
            None => 0,
        }
    }

    /// Durable watermark record: `(next_seq, [(edge, acked, acked_ts)])`.
    /// Persisted alongside the sync cursor so recovery never re-opens a
    /// staleness window.
    pub fn durable_marks(&self) -> (u64, Vec<(String, u64, u64)>) {
        let inner = self.inner.lock();
        (
            inner.next_seq,
            inner
                .edges
                .iter()
                .map(|s| (s.name.clone(), s.acked, s.acked_ts))
                .collect(),
        )
    }

    /// Restore the sequence frontier and per-edge marks from the durable
    /// journal. Marks are matched by name when edges re-register.
    pub fn restore(&self, bus_seq: u64, marks: &[(String, u64, u64)]) {
        let mut inner = self.inner.lock();
        if bus_seq > inner.next_seq {
            inner.next_seq = bus_seq;
        }
        inner.restored = marks.to_vec();
    }

    /// The latest published seq (0 = nothing published).
    pub fn latest_seq(&self) -> u64 {
        self.inner.lock().next_seq - 1
    }

    /// Number of registered edges.
    pub fn edge_count(&self) -> usize {
        self.inner.lock().edges.len()
    }

    /// Edges currently marked partitioned.
    pub fn partitioned_count(&self) -> u64 {
        self.inner
            .lock()
            .edges
            .iter()
            .filter(|s| s.partitioned)
            .count() as u64
    }

    /// In-process edge caches (freshness-oracle support).
    pub fn edge_caches(&self) -> Vec<Arc<PageCache>> {
        self.inner
            .lock()
            .edges
            .iter()
            .filter_map(|s| s.endpoint.as_ref().map(|e| e.cache().clone()))
            .collect()
    }

    /// In-process endpoints, by registration order.
    pub fn endpoints(&self) -> Vec<Arc<EdgeEndpoint>> {
        self.inner
            .lock()
            .edges
            .iter()
            .filter_map(|s| s.endpoint.clone())
            .collect()
    }

    /// Admit a page at every healthy (connected, non-degraded) edge.
    /// Returns how many edges admitted it. Runs under the bus lock, in the
    /// order `deliver_all` already takes (bus, then edge, then cache), so a
    /// miss copies no endpoint list and a portal without edges only locks.
    pub fn admit_page(&self, key: &PageKey, body: &Arc<str>, now: Micros) -> usize {
        self.inner
            .lock()
            .edges
            .iter()
            .filter_map(|s| s.endpoint.as_deref())
            .filter(|ep| ep.admit(key, body, now))
            .count()
    }

    /// Aggregate counters for metrics.
    pub fn stats(&self) -> BusStats {
        let inner = self.inner.lock();
        let mut stats = BusStats {
            published: inner.published,
            rounds: inner.rounds,
            deliveries_ok: inner.deliveries_ok,
            delivery_failures: inner.delivery_failures,
            retries: inner.retries,
            catch_up_batches: inner.catch_up_batches,
            edges: inner.edges.len() as u64,
            partitioned_edges: inner.edges.iter().filter(|s| s.partitioned).count() as u64,
            retained: inner.retained.len() as u64,
            reboots: inner.reboots,
            ..BusStats::default()
        };
        for slot in &inner.edges {
            if let Some(ep) = &slot.endpoint {
                let c = ep.counters();
                stats.duplicates_absorbed += c.absorbed_duplicates;
                stats.gaps_buffered += c.buffered_gaps;
                stats.self_ejections += c.self_ejections;
                stats.flushed_pages += c.flushed_pages;
            }
        }
        stats
    }

    /// Per-edge state rows (the `/bus` table and `obsctl bus`).
    pub fn edge_rows(&self) -> Vec<EdgeRow> {
        let inner = self.inner.lock();
        let latest = inner.next_seq - 1;
        inner
            .edges
            .iter()
            .enumerate()
            .map(|(index, s)| {
                let counters = s.endpoint.as_ref().map(|e| e.counters()).unwrap_or_default();
                EdgeRow {
                    name: s.name.clone(),
                    index,
                    connected: s.endpoint.is_some(),
                    acked: s.acked,
                    acked_ts: s.acked_ts,
                    lag: latest.saturating_sub(s.acked),
                    partitioned: s.partitioned,
                    degraded: s
                        .endpoint
                        .as_ref()
                        .map(|e| e.is_degraded())
                        .unwrap_or(false),
                    consec_failed_rounds: s.consec_failed_rounds,
                    retries: s.retries_total,
                    failures: s.failures_total,
                    last_renewal_round: s.last_renewal_round,
                    applied_batches: counters.applied_batches,
                    duplicates_absorbed: counters.absorbed_duplicates,
                    gaps_buffered: counters.buffered_gaps,
                    ejected_pages: counters.ejected_pages,
                    self_ejections: counters.self_ejections,
                    flushed_pages: counters.flushed_pages,
                }
            })
            .collect()
    }

    /// The `/bus` admin document.
    pub fn doc(&self) -> BusDoc {
        let stats = self.stats();
        BusDoc {
            schema: "cacheportal.bus.v1".to_string(),
            latest_seq: self.latest_seq(),
            published: stats.published,
            rounds: stats.rounds,
            retained: stats.retained,
            deliveries_ok: stats.deliveries_ok,
            delivery_failures: stats.delivery_failures,
            retries: stats.retries,
            catch_up_batches: stats.catch_up_batches,
            partitioned_edges: stats.partitioned_edges,
            reboots: stats.reboots,
            edges: self.edge_rows(),
        }
    }
}

struct MemoryState {
    endpoints: Vec<Option<Arc<EdgeEndpoint>>>,
    forced_down: Vec<bool>,
    plan: FaultPlan,
}

/// The deterministic in-process transport: delivery is a function call
/// into the edge endpoint, with the shared [`FaultPlan`] injecting drops,
/// duplicates, and partition windows per (edge, seq, attempt), plus a
/// manual per-edge partition override for scripted drills.
pub struct MemoryTransport {
    state: Mutex<MemoryState>,
}

impl MemoryTransport {
    /// A transport whose faults are driven by `plan` (an inert plan makes
    /// it perfectly reliable).
    pub fn new(plan: FaultPlan) -> MemoryTransport {
        MemoryTransport {
            state: Mutex::new(MemoryState {
                endpoints: Vec::new(),
                forced_down: Vec::new(),
                plan,
            }),
        }
    }

    /// Manually force an edge's link down/up (the scripted partition
    /// drill's lever; independent of the fault plan).
    pub fn set_partitioned(&self, edge: usize, down: bool) {
        let mut st = self.state.lock();
        if edge >= st.forced_down.len() {
            st.forced_down.resize(edge + 1, false);
        }
        st.forced_down[edge] = down;
    }
}

impl BusTransport for MemoryTransport {
    fn deliver(&self, edge: usize, batch: &EjectBatch, attempt: u32) -> Result<Ack, TransportError> {
        let st = self.state.lock();
        if st.forced_down.get(edge).copied().unwrap_or(false) {
            return Err(TransportError::Unreachable("forced-partition"));
        }
        if st.plan.edge_partitioned(edge as u64) {
            return Err(TransportError::Unreachable("partition-window"));
        }
        if st.plan.bus_drop_delivery(edge as u64, batch.seq, attempt) {
            return Err(TransportError::Unreachable("dropped"));
        }
        let ep = st
            .endpoints
            .get(edge)
            .and_then(|e| e.clone())
            .ok_or(TransportError::Unreachable("no-endpoint"))?;
        let duplicate = st.plan.bus_duplicate_delivery(edge as u64, batch.seq);
        drop(st);
        let ack = ep.apply(batch);
        if duplicate {
            // The wire delivered two copies: apply again, return the
            // second (idempotent) ack.
            return Ok(ep.apply(batch));
        }
        Ok(ack)
    }

    fn attach(&self, edge: usize, endpoint: Arc<EdgeEndpoint>) {
        let mut st = self.state.lock();
        if edge >= st.endpoints.len() {
            st.endpoints.resize_with(edge + 1, || None);
        }
        st.endpoints[edge] = Some(endpoint);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cacheportal_cache::PageCacheConfig;

    fn cache() -> Arc<PageCache> {
        Arc::new(PageCache::new(PageCacheConfig::default()))
    }

    fn key(s: &str) -> PageKey {
        PageKey::raw(s)
    }

    fn reliable_bus() -> (InvalidationBus, Arc<MemoryTransport>) {
        let transport = Arc::new(MemoryTransport::new(FaultPlan::none()));
        let bus = InvalidationBus::new(BusConfig::default(), transport.clone(), FaultPlan::none());
        (bus, transport)
    }

    #[test]
    fn sequenced_delivery_ejects_at_the_edge() {
        let (bus, _t) = reliable_bus();
        let edge = cache();
        bus.register_edge("edge-0", edge.clone(), 0);
        edge.put(key("a"), "1", 1);
        edge.put(key("b"), "2", 2);

        let seq = bus.publish(1, 10, vec![key("a")]);
        assert_eq!(seq, 1);
        let report = bus.deliver_all(10);
        assert_eq!(report.deliveries_ok, 1);
        assert_eq!(report.failed_attempts, 0);
        assert!(!edge.contains(&key("a")));
        assert!(edge.contains(&key("b")));
        let rows = bus.edge_rows();
        assert_eq!(rows[0].acked, 1);
        assert_eq!(rows[0].lag, 0);
    }

    #[test]
    fn duplicates_are_absorbed_idempotently() {
        let edge = cache();
        let ep = EdgeEndpoint::new("e", edge.clone(), 0);
        edge.put(key("a"), "1", 0);
        let batch = EjectBatch {
            seq: 1,
            sync_seq: 1,
            ts: 5,
            pages: vec![key("a")],
        };
        assert_eq!(ep.apply(&batch).applied_seq, 1);
        assert_eq!(ep.apply(&batch).applied_seq, 1, "duplicate is a no-op");
        let c = ep.counters();
        assert_eq!(c.applied_batches, 1);
        assert_eq!(c.absorbed_duplicates, 1);
        assert_eq!(c.ejected_pages, 1);
    }

    #[test]
    fn reorders_park_in_the_gap_buffer_until_the_gap_fills() {
        let edge = cache();
        let ep = EdgeEndpoint::new("e", edge.clone(), 0);
        edge.put(key("a"), "1", 0);
        edge.put(key("b"), "2", 0);
        let b1 = EjectBatch { seq: 1, sync_seq: 1, ts: 1, pages: vec![key("a")] };
        let b2 = EjectBatch { seq: 2, sync_seq: 2, ts: 2, pages: vec![key("b")] };
        // Batch 2 arrives first: buffered, ack stays 0, nothing ejected.
        assert_eq!(ep.apply(&b2).applied_seq, 0);
        assert!(edge.contains(&key("b")));
        assert_eq!(ep.pending_gaps(), 1);
        // Batch 1 fills the gap: both apply in order.
        assert_eq!(ep.apply(&b1).applied_seq, 2);
        assert!(!edge.contains(&key("a")));
        assert!(!edge.contains(&key("b")));
        assert_eq!(ep.pending_gaps(), 0);
        assert_eq!(ep.counters().buffered_gaps, 1);
    }

    #[test]
    fn reorder_plan_reverses_sends_and_catchup_heals() {
        // Drop everything for one round to build a 2-batch backlog, then
        // deliver with reorder: the edge sees newest-first and must gap-buffer.
        let transport = Arc::new(MemoryTransport::new(FaultPlan::none()));
        let plan = FaultPlan::new(cacheportal_db::FaultSpec {
            bus_reorder: true,
            ..cacheportal_db::FaultSpec::default()
        });
        let bus = InvalidationBus::new(BusConfig::default(), transport.clone(), plan);
        let edge = cache();
        bus.register_edge("edge-0", edge.clone(), 0);
        edge.put(key("a"), "1", 0);
        edge.put(key("b"), "2", 0);

        transport.set_partitioned(0, true);
        bus.publish(1, 1, vec![key("a")]);
        let r = bus.deliver_all(1);
        assert_eq!(r.deliveries_ok, 0);
        assert!(edge.is_empty(), "lease expired: edge self-ejected");

        transport.set_partitioned(0, false);
        bus.publish(2, 2, vec![key("b")]);
        let r = bus.deliver_all(2);
        assert_eq!(r.deliveries_ok, 2, "backlog of 2 delivered (reversed)");
        let ep = &bus.endpoints()[0];
        assert_eq!(ep.counters().buffered_gaps, 1, "reversed send gap-buffered");
        assert_eq!(ep.applied_seq(), 2);
        assert!(!ep.is_degraded(), "catch-up complete, admission resumed");
    }

    /// An admission hands the origin's body to every healthy edge as a
    /// handle: one allocation, read from wherever it is still cached.
    #[test]
    fn an_admitted_body_is_one_allocation_at_the_origin_and_every_edge() {
        let (bus, _t) = reliable_bus();
        let (origin, edges) = (cache(), [cache(), cache(), cache()]);
        for (i, edge) in edges.iter().enumerate() {
            bus.register_edge(&format!("edge-{i}"), edge.clone(), 0);
        }
        bus.endpoints()[2].enter_degraded();
        // What `CachePortal::request` does with a rendered page.
        let admit = |page: &str, text: &str, now: Micros| {
            let body: Arc<str> = text.into();
            origin.put(key(page), body.clone(), now);
            (bus.admit_page(&key(page), &body, now), body)
        };
        let held = |cache: &PageCache, page: &str| cache.get_shared(&key(page), 9);

        let (admitted_at, body) = admit("a", "<html>1</html>", 1);
        assert_eq!(admitted_at, 2, "the degraded edge declines");
        for cache in [&origin, &edges[0], &edges[1]] {
            assert!(Arc::ptr_eq(&held(cache, "a").unwrap(), &body));
        }
        assert!(edges[2].is_empty());
        // This handle, the origin's and two edges': the degraded edge has none.
        assert_eq!(Arc::strong_count(&body), 4);

        // An eject at the origin leaves an edge's copy readable, and one at
        // an edge the origin's: each cache drops its own handle only.
        admit("b", "<html>2</html>", 2);
        origin.invalidate([&key("a")]);
        edges[0].invalidate([&key("b")]);
        assert_eq!(held(&origin, "a"), None);
        assert_eq!(held(&edges[0], "a").as_deref(), Some("<html>1</html>"));
        assert_eq!(held(&edges[0], "b"), None);
        assert_eq!(held(&origin, "b").as_deref(), Some("<html>2</html>"));
        assert_eq!(Arc::strong_count(&body), 3);

        // Re-admission replaces the body everywhere; a reader still holding
        // the old one keeps reading it.
        let (_, fresh) = admit("a", "<html>3</html>", 3);
        for cache in [&origin, &edges[0], &edges[1]] {
            assert!(Arc::ptr_eq(&held(cache, "a").unwrap(), &fresh));
        }
        assert_eq!((Arc::strong_count(&body), &*body), (1, "<html>1</html>"));
    }

    #[test]
    fn partition_budget_marks_edge_and_heal_catches_up() {
        let (bus, transport) = reliable_bus();
        let edge = cache();
        bus.register_edge("edge-0", edge.clone(), 0);
        edge.put(key("a"), "1", 0);

        transport.set_partitioned(0, true);
        bus.publish(1, 1, vec![key("a")]);
        let r1 = bus.deliver_all(1);
        assert!(r1.newly_partitioned.is_empty(), "budget is 2 rounds");
        assert_eq!(r1.self_ejected, vec!["edge-0".to_string()]);
        assert!(edge.is_empty(), "degraded edge flushed everything");
        assert!(!bus.endpoints()[0].admit(&key("x"), &"x".into(), 2), "degraded edge declines admission");

        bus.publish(2, 2, vec![]);
        let r2 = bus.deliver_all(2);
        assert_eq!(r2.newly_partitioned, vec!["edge-0".to_string()]);
        assert_eq!(bus.partitioned_count(), 1);

        // Heal: the probe succeeds and the backlog replays from the mark.
        transport.set_partitioned(0, false);
        bus.publish(3, 3, vec![]);
        let r3 = bus.deliver_all(3);
        assert_eq!(r3.healed, vec!["edge-0".to_string()]);
        assert!(r3.catch_up_batches >= 2, "watermark-driven catch-up replayed");
        assert_eq!(bus.partitioned_count(), 0);
        assert_eq!(bus.edge_rows()[0].lag, 0);
        assert!(bus.endpoints()[0].admit(&key("x"), &"x".into(), 4), "admission resumed");
    }

    #[test]
    fn dropped_deliveries_retry_within_the_round() {
        // bus_drop with seed chosen so some first attempts drop; retries
        // (re-rolled under the attempt key) succeed within MAX_ATTEMPTS, so
        // the edge still renews every round.
        let plan = FaultPlan::new(cacheportal_db::FaultSpec {
            seed: 42,
            bus_drop: 0.2,
            ..cacheportal_db::FaultSpec::default()
        });
        let transport = Arc::new(MemoryTransport::new(plan.clone()));
        let bus = InvalidationBus::new(BusConfig::default(), transport, plan.clone());
        let edge = cache();
        bus.register_edge("edge-0", edge.clone(), 0);
        for s in 1..=30u64 {
            bus.publish(s, s, vec![]);
            bus.deliver_all(s);
        }
        assert_eq!(bus.edge_rows()[0].lag, 0, "retries kept the edge current");
        let stats = bus.stats();
        assert!(stats.retries > 0, "drops forced retries");
        assert!(plan.counts().bus_dropped > 0);
    }

    #[test]
    fn rebooted_edge_flushes_past_watermark_and_replays() {
        let (bus, _t) = reliable_bus();
        let edge = cache();
        bus.register_edge("edge-0", edge.clone(), 0);
        edge.put(key("old"), "1", 5);
        bus.publish(1, 10, vec![]);
        bus.deliver_all(10);
        // Admitted past the acked mark (ts 10): must be flushed on reboot.
        edge.put(key("newer"), "2", 15);
        let flushed = bus.reboot_edge(0, 20);
        assert_eq!(flushed, 1);
        assert!(edge.contains(&key("old")));
        assert!(!edge.contains(&key("newer")));
        // The watermark rolled back to the acked mark; the next round
        // redelivers nothing new and the edge stays current.
        bus.publish(2, 21, vec![key("old")]);
        bus.deliver_all(21);
        assert!(edge.is_empty());
        assert_eq!(bus.edge_rows()[0].lag, 0);
    }

    #[test]
    fn restore_with_current_mark_keeps_cache_and_flushes_past_it() {
        let (bus, _t) = reliable_bus();
        // Recovered invalidator: 3 batches were published, edge acked all
        // of them at ts 30.
        bus.restore(4, &[("edge-0".to_string(), 3, 30)]);
        let edge = cache();
        edge.put(key("old"), "1", 20);
        edge.put(key("new"), "2", 40);
        bus.register_edge("edge-0", edge.clone(), 50);
        assert!(edge.contains(&key("old")), "pre-mark page survives recovery");
        assert!(!edge.contains(&key("new")), "past-mark page flushed");
        let rows = bus.edge_rows();
        assert_eq!(rows[0].acked, 3);
        assert_eq!(rows[0].lag, 0);
    }

    #[test]
    fn restore_with_stale_mark_rebases_fully() {
        let (bus, _t) = reliable_bus();
        // The journal's mark (1) is older than the latest published seq
        // (3): batches 2..3 died with the crash, nothing to replay.
        bus.restore(4, &[("edge-0".to_string(), 1, 10)]);
        let edge = cache();
        edge.put(key("old"), "1", 5);
        bus.register_edge("edge-0", edge.clone(), 50);
        assert!(edge.is_empty(), "stale mark forces a full conservative flush");
        assert_eq!(bus.edge_rows()[0].acked, 3);
        assert_eq!(bus.edge_rows()[0].lag, 0);
    }

    #[test]
    fn redeliver_all_is_absorbed_by_idempotent_apply() {
        let (bus, _t) = reliable_bus();
        let edge = cache();
        bus.register_edge("edge-0", edge.clone(), 0);
        edge.put(key("a"), "1", 0);
        edge.put(key("keep"), "2", 0);
        bus.publish(1, 1, vec![key("a")]);
        bus.deliver_all(1);
        let before_len = edge.len();
        let redelivered = bus.redeliver_all();
        assert!(redelivered >= 1, "redelivery buffer retained the batch");
        assert_eq!(edge.len(), before_len, "duplicates changed nothing");
        assert!(bus.endpoints()[0].counters().absorbed_duplicates >= 1);
        assert!(edge.contains(&key("keep")));
    }

    #[test]
    fn bus_doc_has_schema_and_edge_rows() {
        let (bus, _t) = reliable_bus();
        bus.register_edge("edge-0", cache(), 0);
        bus.publish(1, 1, vec![]);
        bus.deliver_all(1);
        let doc = bus.doc();
        assert_eq!((doc.schema.as_str(), doc.latest_seq), ("cacheportal.bus.v1", 1));
        let edge = &doc.edges[0];
        assert_eq!((edge.name.as_str(), edge.lag, edge.partitioned), ("edge-0", 0, false));
        assert_eq!(edge.applied_batches, 1);
        let text = serde_json::to_string_pretty(&doc).unwrap();
        assert_eq!(serde_json::from_str::<BusDoc>(&text).unwrap(), doc);
    }
}
