//! Networked invalidation bus: the central invalidator fans sequenced
//! eject batches out to N edge page caches, one frame per edge per sync
//! point.
//!
//! * **Monotone sequencing** — every sync point publishes one
//!   [`EjectBatch`] with a bus-wide monotone `seq` (empty batches act as
//!   heartbeats, so an edge can always tell "nothing happened" from
//!   "I missed something").
//! * **One frame per edge per round** — [`InvalidationBus::deliver_all`]
//!   sends each edge one frame, every retained batch past the edge's acked
//!   mark in seq order, with a bounded number of attempts; the transport
//!   may drop, duplicate, delay or fail it.
//! * **Per-edge watermarks** — the bus tracks each edge's acked mark and
//!   retains batches down to the slowest one. Watermarks ride the durable
//!   journal via [`InvalidationBus::durable_marks`]/[`InvalidationBus::restore`],
//!   so a crashed-and-recovered invalidator never re-opens a staleness
//!   window.
//! * **One apply rule** — [`EdgeEndpoint::apply`] skips batches at or below
//!   its watermark and applies the rest in order. If the frame's first new
//!   batch is not the next one, the batches between are lost to this edge,
//!   so it flushes its cache and adopts the frame's last seq: an empty
//!   cache is fresh at any mark. Duplicates, stale frames, a late join, a
//!   trimmed frame and retention overflow all reduce to this rule.
//! * **Partition-tolerant degradation** — an edge that cannot be renewed
//!   within its lease self-ejects (Vcache-style conservative flush: serve
//!   nothing cacheable rather than anything stale) and stops admitting
//!   pages; past a budget of failed rounds the bus marks it partitioned
//!   (a degraded `/healthz` reason). On heal, the next frame carries the
//!   edge's backlog and admission resumes.
//!
//! Two transports implement [`BusTransport`]: the deterministic
//! [`MemoryTransport`] with `FaultPlan`-driven fault injection
//! (drop/dup/stale frame/partition per edge), and the real-socket transport in
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
    /// Highest batch seq the edge is fresh at. The next frame carries
    /// everything above it.
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

/// How frames move from the bus to one edge. `deliver` is synchronous: a
/// successful return means the edge ran [`EdgeEndpoint::apply`] on the
/// frame and the [`Ack`] is its watermark afterwards.
pub trait BusTransport: Send + Sync {
    /// Deliver `frame` (contiguous batches in seq order) to edge `edge`
    /// (registration index). `attempt` is the retry ordinal within the
    /// current round (0 = first try) so fault injection can clear on
    /// retries.
    fn deliver(&self, edge: usize, frame: &[EjectBatch], attempt: u32) -> Result<Ack, TransportError>;

    /// Hand the transport the in-process endpoint for `edge`. Remote
    /// transports (sockets) ignore this — their endpoint lives behind the
    /// wire.
    fn attach(&self, _edge: usize, _endpoint: Arc<EdgeEndpoint>) {}
}

/// Cumulative per-edge apply-side counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EdgeCounters {
    /// Batches applied in order.
    pub applied_batches: u64,
    /// Batches absorbed as duplicates (`seq <= applied`).
    pub absorbed_duplicates: u64,
    /// Pages actually removed by applied ejects.
    pub ejected_pages: u64,
    /// Times the edge entered degraded (self-ejection) mode.
    pub self_ejections: u64,
    /// Pages conservatively flushed (degradation, reboot, a frame that
    /// skips the mark).
    pub flushed_pages: u64,
}

struct EdgeInner {
    applied_seq: u64,
    degraded: bool,
    counters: EdgeCounters,
}

/// The edge side of the bus: one page cache plus its watermark and
/// degraded flag.
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

    /// Apply one frame: batches at or below the watermark are absorbed as
    /// duplicates and the rest apply in order. If the first new batch is
    /// not the next in sequence, the batches between were lost to this
    /// edge, so it flushes its cache and adopts the frame's last seq — an
    /// empty cache is fresh at any mark. A frame whose seqs are not
    /// contiguous and ascending changes nothing. The returned [`Ack`] is
    /// the watermark afterwards.
    pub fn apply(&self, frame: &[EjectBatch]) -> Ack {
        let mut g = self.inner.lock();
        let applied = g.applied_seq;
        if frame.windows(2).all(|w| w[1].seq.checked_sub(w[0].seq) == Some(1)) {
            let fresh = &frame[frame.partition_point(|b| b.seq <= applied)..];
            g.counters.absorbed_duplicates += (frame.len() - fresh.len()) as u64;
            match fresh {
                [] => {}
                [first, ..] if first.seq - 1 == applied => {
                    for batch in fresh {
                        g.counters.ejected_pages += self.cache.invalidate(batch.pages.iter()) as u64;
                        g.counters.applied_batches += 1;
                        g.applied_seq = batch.seq;
                    }
                }
                [.., last] => self.rebase(&mut g, last.seq),
            }
        }
        Ack { applied_seq: g.applied_seq }
    }

    /// Conservative flush: drop every page and adopt watermark `seq`.
    fn rebase(&self, g: &mut EdgeInner, seq: u64) {
        g.applied_seq = seq;
        g.counters.flushed_pages += self.cache.clear() as u64;
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
    /// edge.
    pub fn enter_degraded(&self) {
        let mut g = self.inner.lock();
        if !g.degraded {
            g.degraded = true;
            g.counters.self_ejections += 1;
        }
        g.counters.flushed_pages += self.cache.clear() as u64;
    }

    /// Leave degraded mode (called once the edge is caught up).
    pub fn exit_degraded(&self) {
        self.inner.lock().degraded = false;
    }

    /// Whether the edge is currently self-ejecting.
    pub fn is_degraded(&self) -> bool {
        self.inner.lock().degraded
    }

    /// Reboot the endpoint: its volatile watermark is lost and rebuilt
    /// from the bus's last *acked* mark, and pages admitted at or after
    /// that mark's timestamp are conservatively flushed before rejoining.
    /// Returns the flush count.
    pub fn reboot(&self, acked: u64, acked_ts: Micros) -> usize {
        self.inner.lock().applied_seq = acked;
        let flushed = self.cache.evict_admitted_since(acked_ts);
        self.inner.lock().counters.flushed_pages += flushed as u64;
        flushed
    }

    /// Highest batch seq the edge is fresh at.
    pub fn applied_seq(&self) -> u64 {
        self.inner.lock().applied_seq
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

/// Delivery attempts per frame per round. Partitioned edges get a single
/// probe per round instead.
const MAX_ATTEMPTS: u32 = 3;

/// Consecutive failed rounds before an edge is marked partitioned.
const PARTITION_AFTER: u64 = 2;

/// Hard cap on retained (not yet acked by every edge) batches. An edge
/// whose backlog the cap cut short flushes on its next frame.
const RETAIN_CAP: usize = 1024;

/// What one [`InvalidationBus::deliver_all`] round did.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeliveryReport {
    /// Batches in the frames the edges acked.
    pub deliveries_ok: u64,
    /// Failed delivery attempts.
    pub failed_attempts: u64,
    /// Acked batches older than the newest published (catch-up).
    pub catch_up_batches: u64,
}

/// Aggregate bus counters for metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BusStats {
    /// Batches published.
    pub published: u64,
    /// Delivery rounds run.
    pub rounds: u64,
    /// Batches in acked frames across all rounds.
    pub deliveries_ok: u64,
    /// Failed delivery attempts across all rounds.
    pub delivery_failures: u64,
    /// Retry attempts across all rounds.
    pub retries: u64,
    /// Catch-up batches across all rounds.
    pub catch_up_batches: u64,
    /// Registered edges.
    pub edges: u64,
    /// Edges currently marked partitioned.
    pub partitioned_edges: u64,
    /// Batches currently retained.
    pub retained: u64,
    /// Edge reboots processed.
    pub reboots: u64,
    /// Duplicate batches absorbed (summed over in-process edges).
    pub duplicates_absorbed: u64,
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
    /// Batches the edge applied in order (this and the four counters after
    /// it are the edge's apply side: zero for a remote edge).
    pub applied_batches: u64,
    /// Duplicate batches the edge absorbed.
    pub duplicates_absorbed: u64,
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
    /// Batches in acked frames across all rounds.
    pub deliveries_ok: u64,
    /// Failed delivery attempts across all rounds.
    pub delivery_failures: u64,
    /// Retry attempts across all rounds.
    pub retries: u64,
    /// Catch-up batches across all rounds.
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
    /// Published batches some edge has not acked, in seq order.
    retained: Vec<EjectBatch>,
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

impl BusInner {
    fn push_edge(&mut self, name: &str, endpoint: Option<Arc<EdgeEndpoint>>, acked: u64, acked_ts: Micros) -> usize {
        self.edges.push(EdgeSlot {
            name: name.to_string(),
            endpoint,
            acked,
            acked_ts,
            partitioned: false,
            consec_failed_rounds: 0,
            retries_total: 0,
            failures_total: 0,
            last_renewal_round: self.rounds,
        });
        self.edges.len() - 1
    }
}

/// The invalidator side of the bus: sequencing, retained batches,
/// per-edge watermarks, retry/partition bookkeeping.
pub struct InvalidationBus {
    transport: Arc<dyn BusTransport>,
    inner: Mutex<BusInner>,
}

impl InvalidationBus {
    /// A bus over `transport`. The fault plan drives the transport, not the
    /// bus; like `BusConfig`, the parameter stays for callers written
    /// against it.
    pub fn new(_config: BusConfig, transport: Arc<dyn BusTransport>, _plan: FaultPlan) -> InvalidationBus {
        InvalidationBus {
            transport,
            inner: Mutex::new(BusInner {
                next_seq: 1,
                retained: Vec::new(),
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
    /// them died with the crashed invalidator) the edge is fully flushed.
    /// Returns the registration index.
    pub fn register_edge(&self, name: &str, cache: Arc<PageCache>, now: Micros) -> usize {
        let mut inner = self.inner.lock();
        let latest = inner.next_seq - 1;
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
            Some(_) => {
                // Batches up to `latest` were lost with the crash — nothing
                // to replay, so full flush at the frontier.
                let ep = Arc::new(EdgeEndpoint::new(name, cache, latest));
                ep.rebase(&mut ep.inner.lock(), latest);
                (ep, latest, now)
            }
            None => {
                // Fresh edge, empty cache: start at the current frontier.
                (Arc::new(EdgeEndpoint::new(name, cache, latest)), latest, now)
            }
        };
        let idx = inner.push_edge(name, Some(endpoint.clone()), acked, acked_ts);
        drop(inner);
        self.transport.attach(idx, endpoint);
        idx
    }

    /// Register a remote edge (real-socket transport): the bus tracks its
    /// watermark but cannot flush or degrade it locally. Its first frame
    /// starts past the current frontier, so an edge whose own mark is older
    /// flushes on it.
    pub fn register_remote_edge(&self, name: &str, now: Micros) -> usize {
        let mut inner = self.inner.lock();
        let latest = inner.next_seq - 1;
        inner.push_edge(name, None, latest, now)
    }

    /// Sequence one sync point's ejects into a retained batch. Always
    /// publish — an empty batch is the heartbeat that lets edges prove
    /// they are caught up. Returns the assigned seq.
    pub fn publish(&self, sync_seq: u64, ts: Micros, pages: Vec<PageKey>) -> u64 {
        let mut inner = self.inner.lock();
        let seq = inner.next_seq;
        inner.next_seq += 1;
        inner.published += 1;
        inner.retained.push(EjectBatch { seq, sync_seq, ts, pages });
        seq
    }

    /// One delivery round: every edge gets one frame, the retained batches
    /// past its acked mark, with bounded attempts; then the lease is
    /// enforced — an edge not caught up self-ejects, and past the partition
    /// budget it is marked partitioned. Retained batches every edge has
    /// acked are pruned.
    pub fn deliver_all(&self, now: Micros) -> DeliveryReport {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        inner.rounds += 1;
        let latest = inner.next_seq - 1;
        let mut report = DeliveryReport::default();
        for (idx, slot) in inner.edges.iter_mut().enumerate() {
            let frame = &inner.retained[inner.retained.partition_point(|b| b.seq <= slot.acked)..];
            // Nothing to send to a caught-up edge; partitioned edges get one
            // probe, healthy edges full retries.
            let attempts = if frame.is_empty() { 0 } else if slot.partitioned { 1 } else { MAX_ATTEMPTS };
            for attempt in 0..attempts {
                if attempt > 0 {
                    inner.retries += 1;
                    slot.retries_total += 1;
                }
                match self.transport.deliver(idx, frame, attempt) {
                    Ok(ack) => {
                        // A non-empty frame always ends at `latest`.
                        report.deliveries_ok += frame.len() as u64;
                        report.catch_up_batches += frame.len() as u64 - 1;
                        if ack.applied_seq > slot.acked {
                            slot.acked = ack.applied_seq;
                            slot.acked_ts = now;
                        }
                        break;
                    }
                    Err(_) => {
                        report.failed_attempts += 1;
                        slot.failures_total += 1;
                    }
                }
            }
            if slot.acked == latest {
                slot.consec_failed_rounds = 0;
                slot.last_renewal_round = inner.rounds;
                slot.partitioned = false;
                if let Some(ep) = &slot.endpoint {
                    // Caught up: admission resumes.
                    ep.exit_degraded();
                }
            } else {
                slot.consec_failed_rounds += 1;
                slot.partitioned |= slot.consec_failed_rounds >= PARTITION_AFTER;
                // Not renewed this round: the lease has lapsed, and the
                // edge self-ejects (what the zero-staleness oracle needs).
                if let Some(ep) = &slot.endpoint {
                    ep.enter_degraded();
                }
            }
        }
        inner.deliveries_ok += report.deliveries_ok;
        inner.delivery_failures += report.failed_attempts;
        inner.catch_up_batches += report.catch_up_batches;
        let floor = inner.edges.iter().map(|s| s.acked).min().unwrap_or(latest);
        let acked_by_all = inner.retained.partition_point(|b| b.seq <= floor);
        let over_cap = inner.retained.len().saturating_sub(RETAIN_CAP);
        inner.retained.drain(..acked_by_all.max(over_cap));
        report
    }

    /// Reboot edge `idx`: its volatile endpoint state is rebuilt from the
    /// bus-side acked mark, and pages admitted past the mark are flushed
    /// (see [`EdgeEndpoint::reboot`]). The next round's frame carries
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

/// One edge's link in the [`MemoryTransport`].
#[derive(Default)]
struct MemoryLink {
    endpoint: Option<Arc<EdgeEndpoint>>,
    /// Forced down by [`MemoryTransport::set_partitioned`].
    down: bool,
    /// The last frame delivered: under `bus_reorder` it arrives again,
    /// late, after the next one.
    previous: Vec<EjectBatch>,
}

struct MemoryState {
    links: Vec<MemoryLink>,
    plan: FaultPlan,
}

impl MemoryState {
    fn link(&mut self, edge: usize) -> &mut MemoryLink {
        if edge >= self.links.len() {
            self.links.resize_with(edge + 1, MemoryLink::default);
        }
        &mut self.links[edge]
    }
}

/// The deterministic in-process transport: delivery is a function call
/// into the edge endpoint, with the shared [`FaultPlan`] injecting drops,
/// duplicates, stale frames and partition windows per (edge, frame's newest
/// seq, attempt), plus a manual per-edge partition override for scripted
/// drills.
pub struct MemoryTransport {
    state: Mutex<MemoryState>,
}

impl MemoryTransport {
    /// A transport whose faults are driven by `plan` (an inert plan makes
    /// it perfectly reliable).
    pub fn new(plan: FaultPlan) -> MemoryTransport {
        MemoryTransport {
            state: Mutex::new(MemoryState { links: Vec::new(), plan }),
        }
    }

    /// Manually force an edge's link down/up (the scripted partition
    /// drill's lever; independent of the fault plan).
    pub fn set_partitioned(&self, edge: usize, down: bool) {
        self.state.lock().link(edge).down = down;
    }
}

impl BusTransport for MemoryTransport {
    fn deliver(&self, edge: usize, frame: &[EjectBatch], attempt: u32) -> Result<Ack, TransportError> {
        let mut st = self.state.lock();
        let MemoryState { links, plan } = &mut *st;
        let (link, edge_id) = (links.get_mut(edge), edge as u64);
        let newest = frame.last().map_or(0, |b| b.seq);
        if link.as_deref().is_some_and(|l| l.down) {
            return Err(TransportError::Unreachable("forced-partition"));
        }
        if plan.edge_partitioned(edge_id) {
            return Err(TransportError::Unreachable("partition-window"));
        }
        if plan.bus_drop_delivery(edge_id, newest, attempt) {
            return Err(TransportError::Unreachable("dropped"));
        }
        let Some((ep, previous)) = link.and_then(|l| Some((l.endpoint.clone()?, &mut l.previous))) else {
            return Err(TransportError::Unreachable("no-endpoint"));
        };
        let duplicate = plan.bus_duplicate_delivery(edge_id, newest);
        let stale = if plan.bus_reorder_sends() {
            std::mem::replace(previous, frame.to_vec())
        } else {
            Vec::new()
        };
        drop(st);
        let mut ack = ep.apply(frame);
        if duplicate {
            // The wire delivered two copies.
            ack = ep.apply(frame);
        }
        if !stale.is_empty() {
            // The previous frame, delayed on the wire, lands after this one.
            ack = ep.apply(&stale);
        }
        Ok(ack)
    }

    fn attach(&self, edge: usize, endpoint: Arc<EdgeEndpoint>) {
        self.state.lock().link(edge).endpoint = Some(endpoint);
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
        assert_eq!(ep.apply(std::slice::from_ref(&batch)).applied_seq, 1);
        assert_eq!(ep.apply(&[batch]).applied_seq, 1, "duplicate is a no-op");
        let c = ep.counters();
        assert_eq!(c.applied_batches, 1);
        assert_eq!(c.absorbed_duplicates, 1);
        assert_eq!(c.ejected_pages, 1);
    }

    fn batch(seq: u64, pages: &[&str]) -> EjectBatch {
        EjectBatch { seq, sync_seq: seq, ts: seq, pages: pages.iter().map(|p| key(p)).collect() }
    }

    #[test]
    fn a_frame_that_skips_the_mark_flushes_the_edge() {
        let edge = cache();
        let ep = EdgeEndpoint::new("e", edge.clone(), 0);
        edge.put(key("a"), "1", 0);
        edge.put(key("b"), "2", 0);
        // Batches 1 and 2 never reach this edge: it cannot know what they
        // ejected, so it empties and is fresh at the frame's last seq.
        assert_eq!(ep.apply(&[batch(3, &["x"]), batch(4, &[])]).applied_seq, 4);
        assert!(edge.is_empty());
        let c = ep.counters();
        assert_eq!((c.flushed_pages, c.applied_batches, c.ejected_pages), (2, 0, 0));
        // From the adopted mark on, frames apply in order again.
        edge.put(key("c"), "3", 5);
        assert_eq!(ep.apply(&[batch(4, &[]), batch(5, &["c"])]).applied_seq, 5);
        assert!(edge.is_empty());
        let c = ep.counters();
        assert_eq!((c.applied_batches, c.absorbed_duplicates, c.ejected_pages), (1, 1, 1));
        // A frame with a hole inside changes nothing.
        edge.put(key("d"), "4", 6);
        assert_eq!(ep.apply(&[batch(6, &["d"]), batch(8, &[])]).applied_seq, 5);
        assert!(edge.contains(&key("d")));
    }

    #[test]
    fn a_stale_frame_after_a_newer_one_is_absorbed() {
        // bus_reorder delivers an edge's previous frame again after its
        // current one. Cut the link for a round to build a 2-batch frame.
        let plan = FaultPlan::new(cacheportal_db::FaultSpec {
            bus_reorder: true,
            ..cacheportal_db::FaultSpec::default()
        });
        let transport = Arc::new(MemoryTransport::new(plan.clone()));
        let bus = InvalidationBus::new(BusConfig::default(), transport.clone(), plan);
        let edge = cache();
        bus.register_edge("edge-0", edge.clone(), 0);
        transport.set_partitioned(0, true);
        bus.publish(1, 1, vec![key("a")]);
        bus.deliver_all(1);
        assert!(bus.endpoints()[0].is_degraded(), "lease lapsed: edge self-ejected");

        transport.set_partitioned(0, false);
        bus.publish(2, 2, vec![key("b")]);
        assert_eq!(bus.deliver_all(2).deliveries_ok, 2, "one frame carried both batches");
        let ep = &bus.endpoints()[0];
        assert_eq!((ep.applied_seq(), ep.is_degraded()), (2, false));

        // Page b is admitted again after batch 2 ejected it. The next round
        // delivers [3], then the stale [1, 2] lands: it must not eject b.
        assert!(bus.admit_page(&key("b"), &"2".into(), 3) == 1);
        bus.publish(3, 3, vec![]);
        bus.deliver_all(3);
        assert!(edge.contains(&key("b")), "the stale frame re-ran batch 2");
        let c = ep.counters();
        assert_eq!((c.applied_batches, c.absorbed_duplicates), (3, 2));
        assert_eq!((ep.applied_seq(), bus.edge_rows()[0].lag), (3, 0));
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
        bus.deliver_all(1);
        assert!(!bus.edge_rows()[0].partitioned, "budget is 2 rounds");
        assert_eq!(bus.edge_rows()[0].self_ejections, 1);
        assert!(edge.is_empty(), "degraded edge flushed everything");
        assert!(!bus.endpoints()[0].admit(&key("x"), &"x".into(), 2), "degraded edge declines admission");

        bus.publish(2, 2, vec![]);
        bus.deliver_all(2);
        assert!(bus.edge_rows()[0].partitioned);
        assert_eq!(bus.stats().partitioned_edges, 1);

        // Heal: the probe succeeds and the backlog replays from the mark.
        transport.set_partitioned(0, false);
        bus.publish(3, 3, vec![]);
        let r3 = bus.deliver_all(3);
        assert_eq!(r3.catch_up_batches, 2, "one frame carried the backlog");
        assert_eq!(bus.stats().partitioned_edges, 0);
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

    /// A drop is rolled per (edge, frame's newest seq, attempt). A round
    /// whose every attempt dropped is followed by a frame ending at a new
    /// seq, so the edge is not stranded by rolls that repeat every round.
    #[test]
    fn a_round_that_drops_every_attempt_does_not_strand_the_edge() {
        let mut stranded = 0;
        for seed in 0..100 {
            let plan = FaultPlan::new(cacheportal_db::FaultSpec {
                seed,
                bus_drop: 0.3,
                ..cacheportal_db::FaultSpec::default()
            });
            let transport = Arc::new(MemoryTransport::new(plan.clone()));
            let bus = InvalidationBus::new(BusConfig::default(), transport, plan);
            bus.register_edge("edge-0", cache(), 0);
            for s in 1..=40 {
                bus.publish(s, s, vec![]);
                bus.deliver_all(s);
            }
            stranded += u32::from(bus.edge_rows()[0].lag > 0);
        }
        assert!(stranded <= 10, "{stranded} of 100 edges ended the run behind");
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
        // The watermark rolled back to the acked mark; the next frame
        // carries only the new batch and the edge stays current.
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
