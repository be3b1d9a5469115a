//! The deployable CachePortal system (paper Figures 4 and 7): one database,
//! a farm of web/application servers with one sniffer each, a dynamic
//! web-page cache in front, and one QI/URL map and invalidator keeping the
//! cache fresh. A single server is the same system with one node.
//!
//! This is the *functional* reference system — it actually serves requests,
//! caches pages, applies updates, and invalidates. Timing behaviour
//! (response times under load) is the business of `cacheportal-sim`; this
//! type is about observable correctness: **no stale page is ever served
//! after a synchronization point**.

mod observe;

use crate::durability::{
    micros_since, CursorRecord, Durability, PersistOutcome, RecoveredState,
};
use cacheportal_bus::{BusConfig, DeliveryReport, InvalidationBus, MemoryTransport};
use cacheportal_cache::{PageCache, PageCacheConfig};
use cacheportal_db::{rows_read_by_this_thread, Database, DbResult, FaultPlan, Lsn};
use cacheportal_invalidator::{
    InvalidationPolicy, InvalidationReport, Invalidator, InvalidatorConfig, QueryTypeId,
    VerdictKind,
};
use cacheportal_obs::{
    AdminServer, AdminSource, Cause, Counter, EjectRecord, Explanation, ExportStats, FlightBundle,
    JsonlExporter, Obs, SloDoc, SloKind, Snapshot,
};
use cacheportal_sniffer::{LoggedConnection, Mapper, MapperReport, QiUrlMap, QueryLog, RequestLog};
use cacheportal_web::{
    shared, AppServer, AppServerConfig, CacheControl, Clock, ConnectionFactory, ConnectionPool,
    DbConnection, HttpRequest, HttpResponse, ManualClock, PageKey, Servlet, SharedDb, WebServer,
};
use observe::{SloMetricHandles, TelemetryHub};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Map a durable-layer I/O failure into the crate's error type.
fn io_to_db(e: std::io::Error) -> cacheportal_db::DbError {
    cacheportal_db::DbError::Unsupported(format!("durable I/O: {e}"))
}

/// How a request was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Served {
    /// Straight from the web-page cache.
    CacheHit,
    /// Generated by the application server (and possibly cached).
    Generated,
}

/// Response plus provenance.
#[derive(Debug, Clone)]
pub struct RequestOutcome {
    /// The HTTP response.
    pub response: HttpResponse,
    /// Cache hit or generated.
    pub served: Served,
    /// Canonical cache key of the page (None for unroutable paths).
    pub key: Option<PageKey>,
}

/// Result of one synchronization point.
#[derive(Debug, Default, Clone)]
pub struct SyncReport {
    /// Sniffer mapper outcome.
    pub mapper: MapperReport,
    /// Invalidator outcome.
    pub invalidation: InvalidationReport,
    /// Pages actually removed from the cache (≤ pages named in the
    /// invalidation report — some may not be resident).
    pub ejected: usize,
    /// Pages ejected *conservatively* because the sniffer lost query
    /// records this window (injected drops): any page admitted since the
    /// previous sync point may be missing a dependency edge, so all of
    /// them go. Zero unless a fault plan is active.
    pub fault_ejected: usize,
    /// Pages ejected by the mid-window netting guard: the aggregate
    /// value-preserving rule proves freshness only for pages that existed
    /// at the window's endpoints, so a netted page admitted *inside* the
    /// window (between the mutations that cancel out) is ejected
    /// conservatively instead of kept.
    pub netting_guard_ejected: usize,
}

/// What [`CachePortalBuilder::recover`] found on disk and did about it.
#[derive(Debug, Default, Clone)]
pub struct RecoveryStats {
    /// Snapshot sequence number replayed, if a snapshot existed.
    pub snapshot_seq: Option<u64>,
    /// WAL frames replayed past the snapshot.
    pub wal_records: u64,
    /// Torn/corrupt WAL tail bytes truncated (a crash mid-append).
    pub torn_bytes: u64,
    /// QI/URL map rows after recovery.
    pub map_entries: usize,
    /// Page origins recovered.
    pub origins: usize,
    /// Update-log position the invalidator resumed from.
    pub resumed_consumed: Lsn,
    /// Sync-point ordinal the portal resumed from.
    pub resumed_sync_seq: u64,
    /// Cached pages conservatively ejected because the journal does not
    /// hold their admission: they were admitted (or admitted again) after
    /// the last durable sync point, so their dependency edges may not have
    /// survived, and the window that could have judged them died with the
    /// process — keeping them could serve stale content.
    pub gap_ejected: usize,
}

/// Builder for [`CachePortal`].
pub struct CachePortalBuilder {
    db: SharedDb,
    cache_config: PageCacheConfig,
    invalidator_config: InvalidatorConfig,
    maintained_indexes: Vec<(String, String)>,
    fault: FaultPlan,
    durable_dir: Option<PathBuf>,
    checkpoint_interval: u64,
    surviving_cache: Option<Arc<PageCache>>,
    flight_dir: Option<PathBuf>,
    nodes: usize,
}

impl CachePortalBuilder {
    /// Page-cache configuration (capacity, TTL). Eviction is SIEVE; there is
    /// no policy to choose.
    pub fn cache_config(mut self, config: PageCacheConfig) -> Self {
        self.cache_config = config;
        self
    }

    /// Invalidator configuration (policy, polling budget, discovery rules).
    pub fn invalidator_config(mut self, config: InvalidatorConfig) -> Self {
        self.invalidator_config = config;
        self
    }

    /// Web/application servers in the farm (paper Figure 4; default 1).
    /// Cache misses go to the servers in turn, each server has its own
    /// sniffer logs and mapper, and all of them feed the one QI/URL map.
    ///
    /// # Panics
    /// When `n` is zero.
    pub fn nodes(mut self, n: usize) -> Self {
        assert!(n >= 1, "a portal needs at least one server node");
        self.nodes = n;
        self
    }

    /// Maintain a join-attribute index inside the invalidator.
    pub fn maintain_index(mut self, table: &str, column: &str) -> Self {
        self.maintained_indexes
            .push((table.to_string(), column.to_string()));
        self
    }

    /// Install a fault-injection plan (harness only). One plan is threaded
    /// into every fault site: the sniffer's query logger (drop / duplicate /
    /// reorder records), the invalidator's poll runner (errors / timeouts),
    /// and the database's transaction guard (mid-stream aborts). The
    /// default plan is inert.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault = plan;
        self
    }

    /// Journal the portal's recoverable state — the QI/URL map, each cached
    /// page's admission stamp, and the invalidator's sync cursor — to `dir`
    /// through a checksummed write-ahead log with periodic snapshot
    /// compaction. A portal built with this option can be rebuilt after a
    /// crash with [`CachePortalBuilder::recover`].
    pub fn durable(mut self, dir: impl Into<PathBuf>) -> Self {
        self.durable_dir = Some(dir.into());
        self
    }

    /// Snapshot-compact the durable journal every `n` persisted sync points
    /// (default 8, minimum 1). Smaller intervals shorten recovery replay at
    /// the cost of more snapshot I/O; larger intervals grow the WAL between
    /// compactions but never the post-crash over-ejection window (that is
    /// bounded by the per-sync fsync, not the checkpoint).
    pub fn checkpoint_interval(mut self, n: u64) -> Self {
        self.checkpoint_interval = n.max(1);
        self
    }

    /// Arm the flight recorder's disk sink: every black-box bundle captured
    /// (automatically on an SLO breach, or on demand) is also atomically
    /// written to `dir` as `flightrecord-<seq>.json` for offline
    /// post-mortems. Without this, bundles live only in the bounded
    /// in-memory ring.
    pub fn flight_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.flight_dir = Some(dir.into());
        self
    }

    /// Reuse a page cache that survived the previous incarnation (in-process
    /// crash simulation; a real restart starts empty, which is the same as
    /// passing a fresh cache). Recovery scans it and conservatively ejects
    /// any page whose admission time is not the one the journal holds for
    /// it.
    pub fn surviving_cache(mut self, cache: Arc<PageCache>) -> Self {
        self.surviving_cache = Some(cache);
        self
    }

    /// Assemble the system.
    pub fn build(self) -> DbResult<CachePortal> {
        self.assemble(None)
    }

    /// Assemble the system from the durable directory's on-disk state
    /// (requires [`CachePortalBuilder::durable`]): replay snapshot + WAL,
    /// rebuild the QI/URL map and page admissions, resume the invalidator
    /// from the durable cursor and the clock past every journaled stamp,
    /// conservatively eject the pages whose admission the journal does not
    /// hold, and write a fresh compacting checkpoint. See
    /// [`CachePortal::recovery_stats`] for what was found.
    pub fn recover(self) -> DbResult<CachePortal> {
        let dir = self.durable_dir.clone().ok_or_else(|| {
            cacheportal_db::DbError::Unsupported(
                "recover() requires a durable directory: call durable(dir) first".into(),
            )
        })?;
        let recovered = Durability::load(&dir).map_err(io_to_db)?;
        self.assemble(Some(recovered))
    }

    fn assemble(self, recovered: Option<RecoveredState>) -> DbResult<CachePortal> {
        let CachePortalBuilder {
            db,
            cache_config,
            mut invalidator_config,
            maintained_indexes,
            fault,
            durable_dir,
            checkpoint_interval,
            surviving_cache,
            flight_dir,
            nodes,
        } = self;
        db.write().set_fault_plan(fault.clone());
        invalidator_config.fault = fault.clone();
        let mut invalidator = Invalidator::new(invalidator_config);
        let boot_high_water = db.read().high_water();
        match &recovered {
            // Resume from the durable cursor: everything from there to the
            // live log tail is re-analyzed (at worst re-ejected — never
            // skipped). The maintained indexes are bootstrapped from current
            // table state below, which already reflects those records, so
            // the replayed batch must not be re-applied to them.
            Some(r) => {
                invalidator.start_from(r.cursor.consumed);
                invalidator.set_index_floor(boot_high_water);
            }
            // Historical records (bulk seeding) predate the deployment: the
            // invalidator watches updates from attach time onward.
            None => invalidator.start_from(boot_high_water),
        }
        {
            let dbr = db.read();
            for (t, c) in &maintained_indexes {
                invalidator.maintain_index(&dbr, t, c)?;
            }
        }
        let clock = ManualClock::new();
        if let Some(r) = &recovered {
            // Resume past every admission stamp and delivery mark the journal
            // holds, so no page admitted from here on can carry a stamp the
            // journal already vouches for.
            let stamps = r.origins.values().copied();
            let marks = r.cursor.edge_marks.iter().map(|&(_, _, ts)| ts);
            clock.set(stamps.chain(marks).max().unwrap_or(0));
        }
        let map = Arc::new(QiUrlMap::new());
        let nodes: Vec<Node> = (0..nodes)
            .map(|_| Node::new(&db, &clock, &map, &fault))
            .collect();
        // Rebuild the QI/URL map in replay order, each row typed as it
        // arrives. Ids are re-assigned, which is fine: the fresh
        // invalidator's map cursor is zero, so every recovered row
        // re-registers at the first sync point. A row whose text does not
        // type is lost as a dependency edge: its page is gap-ejected below.
        let untyped = recovered.as_ref().map_or_else(Vec::new, |r| map.load(&r.map_entries));
        let obs = Obs::shared();
        // Published by every portal: 0 unless recovery met such rows.
        obs.metrics
            .counter("invalidator.unparseable")
            .add(untyped.len() as u64);
        if let Some(dir) = &flight_dir {
            obs.recorder.set_dir(dir.clone()).map_err(io_to_db)?;
        }
        let req_counters = RequestCounters::resolve(&obs);
        let slo_metrics = SloMetricHandles::resolve(&obs);
        let page_cache =
            surviving_cache.unwrap_or_else(|| Arc::new(PageCache::new(cache_config)));
        // Live-wire the cache statistics into the registry: every cache
        // mutation re-publishes its cumulative stats, so `cache.page.*`
        // metrics equal `CacheStats` by construction (no refresh needed).
        page_cache.wire_metrics(&obs.metrics, "cache.page");
        // The invalidation bus: the deployed portal delivers over the
        // deterministic in-process transport, sharing the one fault plan so
        // the harness can drop/duplicate/partition deliveries per edge.
        let bus_transport = Arc::new(MemoryTransport::new(fault.clone()));
        let bus = Arc::new(InvalidationBus::new(
            BusConfig::default(),
            bus_transport.clone(),
            fault.clone(),
        ));
        let hub = Arc::new(TelemetryHub {
            db: db.clone(),
            apps: nodes.iter().map(|n| n.web.app().clone()).collect(),
            map: map.clone(),
            obs: obs.clone(),
            clock: clock.clone(),
            bus: bus.clone(),
        });
        let mut durability = match &durable_dir {
            Some(dir) => Some(Durability::open(dir, checkpoint_interval).map_err(io_to_db)?),
            None => None,
        };

        let (admissions, sync_seq_start, recovery) = match recovered {
            Some(r) => {
                obs.health.set_recovering(true);
                // Re-arm the bus from the durable record: the sequence
                // frontier stays monotone across the crash, and each edge's
                // acked watermark is stashed so a re-registering edge can
                // rejoin conservatively instead of re-opening a staleness
                // window.
                bus.restore(r.cursor.bus_seq, &r.cursor.edge_marks);
                // Gap ejection: a cached page is kept only if the journal
                // holds the very admission the cache holds, same stamp — one
                // made before a durable sync point (DESIGN §7). Any other was
                // admitted, or admitted again, after the last one: its rows
                // may be lost, and its window's netting guard died with the
                // process. So is a page one of whose journaled rows does not
                // type: no update can be matched against that row. Drop
                // them; the next request regenerates each.
                let untyped: HashSet<PageKey> = untyped.into_iter().collect();
                let mut pages = r.origins;
                let recovered_origins = pages.len();
                let gap: Vec<PageKey> = page_cache
                    .keys()
                    .into_iter()
                    .filter(|k| {
                        let journaled = pages.get(k).copied().unwrap_or(0);
                        journaled == 0
                            || page_cache.admitted_at(k) != Some(journaled)
                            || untyped.contains(k)
                    })
                    .collect();
                let gap_ejected = page_cache.invalidate(gap.iter());
                let ts = clock.now_micros();
                for page in &gap {
                    pages.remove(page);
                    obs.provenance.record(EjectRecord {
                        seq: 0, // assigned by the log
                        sync_seq: r.cursor.sync_seq,
                        ts,
                        lsn_first: r.cursor.consumed,
                        lsn_last: boot_high_water.saturating_sub(1),
                        deltas: Vec::new(),
                        url: page.text().clone(),
                        resident: true,
                        causes: vec![Cause {
                            query_type: 0,
                            type_sql: String::new(),
                            params: Vec::new(),
                            verdict: VerdictKind::RecoveryGap.as_str().to_string(),
                            detail: if untyped.contains(page) {
                                "a journaled dependency edge of the page does not parse \
                                 back into a query instance"
                            } else {
                                "page admitted after the last durable sync; its \
                                 dependency edges may not have survived the crash"
                            }
                            .to_string(),
                        }],
                        // Recovery predates any trace: the commit that made
                        // the page stale happened in the crashed incarnation,
                        // so no causal chain exists by construction.
                        trace_id: 0,
                        span_id: 0,
                        parent_span: 0,
                    });
                }
                obs.metrics
                    .counter("durable.recovery.gap_ejected")
                    .add(gap.len() as u64);
                obs.metrics
                    .counter("durable.recovery.wal_records")
                    .add(r.wal_records);
                obs.metrics
                    .counter("durable.recovery.torn_bytes")
                    .add(r.torn_bytes);
                obs.metrics.counter("durable.recoveries").inc();
                // Immediately re-checkpoint so the next crash replays from
                // here instead of re-walking the whole previous journal.
                if let Some(d) = durability.as_mut() {
                    match d.checkpoint(&map, &pages, &r.cursor) {
                        Ok(_) => d.set_map_cursor(map.next_id()),
                        Err(_) => obs.metrics.counter("durable.wal.errors").inc(),
                    }
                }
                obs.health.set_recovering(false);
                let stats = RecoveryStats {
                    snapshot_seq: r.snapshot_seq,
                    wal_records: r.wal_records,
                    torn_bytes: r.torn_bytes,
                    map_entries: map.len(),
                    origins: recovered_origins,
                    resumed_consumed: r.cursor.consumed,
                    resumed_sync_seq: r.cursor.sync_seq,
                    gap_ejected,
                };
                // Everything kept is journaled and older than any window to
                // come.
                let admissions = Admissions { pages, window_start: ts, unjournaled: Vec::new() };
                (admissions, r.cursor.sync_seq, Some(stats))
            }
            None => (Admissions::default(), 0, None),
        };

        Ok(CachePortal {
            db,
            clock,
            nodes,
            next_node: AtomicUsize::new(0),
            page_cache,
            map,
            invalidator: Mutex::new(invalidator),
            admissions: Mutex::new(admissions),
            bus,
            bus_transport,
            obs,
            hub,
            req_counters,
            slo_metrics,
            sync_seq: AtomicU64::new(sync_seq_start),
            exporter: Mutex::new(JsonlExporter::new()),
            audit_invalidations: AtomicBool::new(false),
            durability: durability.map(Mutex::new),
            recovery,
            fault,
        })
    }
}

/// Pre-resolved counter handles for the request hot path, so serving a
/// request costs a few relaxed atomic increments rather than registry map
/// lookups.
struct RequestCounters {
    total: Arc<Counter>,
    cache_hits: Arc<Counter>,
    generated: Arc<Counter>,
    declined_race: Arc<Counter>,
    declined_policy: Arc<Counter>,
}

impl RequestCounters {
    fn resolve(obs: &Obs) -> Self {
        RequestCounters {
            total: obs.metrics.counter("web.requests.total"),
            cache_hits: obs.metrics.counter("web.requests.cache_hit"),
            generated: obs.metrics.counter("web.requests.generated"),
            declined_race: obs.metrics.counter("cache.admission.declined_race"),
            declined_policy: obs.metrics.counter("cache.admission.declined_policy"),
        }
    }
}

/// One web/application server of the farm (paper Figure 4) with its sniffer
/// instruments. The request/query join has to happen per server — request
/// ids are one counter per application server, and a query on one node must
/// never be attributed to a request on another because their ids coincide or
/// their intervals overlap — so each node has its own request log, query log
/// and mapper; every mapper writes to the one QI/URL map.
/// Connections in each application server's pool.
const POOL_SIZE: usize = 8;

struct Node {
    web: WebServer,
    mapper: Mutex<Mapper>,
}

impl Node {
    fn new(
        db: &SharedDb,
        clock: &Arc<ManualClock>,
        map: &Arc<QiUrlMap>,
        fault: &FaultPlan,
    ) -> Node {
        let query_log = QueryLog::new();
        query_log.set_fault_plan(fault.clone());
        let factory: ConnectionFactory = {
            let db = db.clone();
            let log = query_log.clone();
            let clock: Arc<dyn Clock> = clock.clone();
            Arc::new(move || {
                Box::new(LoggedConnection::new(
                    DbConnection::new(db.clone()),
                    log.clone(),
                    clock.clone(),
                ))
            })
        };
        let app = Arc::new(AppServer::new(
            ConnectionPool::new(factory, POOL_SIZE),
            clock.clone(),
            AppServerConfig {
                rewrite_cache_control: true,
                cache_owner: "cacheportal".to_string(),
            },
        ));
        let request_log = Arc::new(RequestLog::new());
        app.set_observer(request_log.clone());
        Node {
            web: WebServer::new(app),
            mapper: Mutex::new(Mapper::new(request_log, query_log, map.clone())),
        }
    }
}

/// What `CachePortal::admit` did with a generated page.
enum Admitted {
    /// Cached under the key, stamped at the logical time.
    Cached(PageKey, u64),
    /// A query type of the page is banned from caching.
    Banned,
    /// A sync point advanced the admission stamp during the generation.
    Raced,
}

/// Analyse stage output.
struct Analysed {
    invalidation: InvalidationReport,
    /// Update-log position the invalidator has consumed up to.
    consumed: Lsn,
    /// Per-table high-water LSNs of the window (empty without a journal).
    watermarks: Vec<(String, u64)>,
}

/// Guard stage output: what it added to the invalidator's page set.
struct Guarded {
    netting_guard_ejected: usize,
    fault_ejected: usize,
    /// Pages named for ejection that the audit found fresh (`None` unless
    /// the audit is on and pages were named).
    over_invalidations: Option<u64>,
}

/// Eject stage output.
struct Ejected {
    /// The named pages that were resident in the front cache.
    keys: Vec<PageKey>,
    micros: u64,
}

/// Deliver stage output: the batch's sequence number, the delivery round
/// and its wall-clock time, and the bus as the round left it.
struct Delivered {
    published: u64,
    round: DeliveryReport,
    micros: u64,
    edges: Vec<cacheportal_bus::EdgeRow>,
    /// Edges the bus holds partitioned after the round.
    partitioned: u64,
}

/// Persist stage output.
struct Persisted {
    /// Watermarks written with the cursor.
    work: u64,
    micros: u64,
    /// What the journal did, when there is one.
    journal: Option<(PersistOutcome, cacheportal_durable::WalStats)>,
}

/// One sync point as its stages left it: what the observer reads, and what
/// [`SyncReport`] is cut from.
struct SyncRun {
    started: std::time::Instant,
    /// Logical time the sync point began at.
    ts: u64,
    sync_seq: u64,
    mapper: MapperReport,
    invalidation: InvalidationReport,
    consumed: Lsn,
    guard: Guarded,
    ejected: Ejected,
    delivered: Delivered,
    persisted: Persisted,
}

/// Every page admitted and not since ejected, with its one stamp, the
/// cache's [`PageCache::admitted_at`]; the freshness oracle regenerates a
/// page from its key. A page stamped after `window_start` was admitted this
/// sync window. An evicted page keeps its row: an edge may still hold it.
#[derive(Default)]
struct Admissions {
    pages: HashMap<PageKey, u64>,
    /// The logical time of the previous sync point's cut.
    window_start: u64,
    /// With a journal, each admission since the last batch that had no
    /// error, in the order of the lock; empty without one.
    unjournaled: Vec<(PageKey, u64)>,
}

/// The assembled Configuration III system.
pub struct CachePortal {
    db: SharedDb,
    clock: Arc<ManualClock>,
    /// The server farm; a single-server site has one node.
    nodes: Vec<Node>,
    /// The load balancer's turn counter: the node the next miss goes to.
    next_node: AtomicUsize,
    page_cache: Arc<PageCache>,
    map: Arc<QiUrlMap>,
    invalidator: Mutex<Invalidator>,
    /// Each cached page's admission stamp, and the stamps that cut them
    /// into windows.
    admissions: Mutex<Admissions>,
    /// The networked invalidation bus fanning sync-point ejects out to
    /// registered edge caches, one frame per edge per sync point, with
    /// per-edge acked watermarks and partition-tolerant degradation.
    bus: Arc<InvalidationBus>,
    /// The bus's in-process transport; kept so scripted drills can force a
    /// per-edge link down/up independently of the fault plan.
    bus_transport: Arc<MemoryTransport>,
    /// Unified observability: metrics registry, pipeline tracer,
    /// commit→eject staleness probe, and invalidation provenance.
    obs: Arc<Obs>,
    /// Telemetry surface shared with [`AdminServer`] instances.
    hub: Arc<TelemetryHub>,
    req_counters: RequestCounters,
    slo_metrics: SloMetricHandles,
    /// Sync ordinal: provenance, bus batch seq, and the admission stamp
    /// (advanced under the invalidator lock once a sync point has mapped and
    /// consumed; see `request`).
    sync_seq: AtomicU64,
    /// Incremental JSONL export cursor (trace events + eject records).
    exporter: Mutex<JsonlExporter>,
    /// When set, every sync point replays the freshness oracle over the
    /// pages the invalidator wants ejected and counts the ones that were
    /// not actually stale (over-invalidation). Expensive — regenerates
    /// every named page the origin holds — so off by default.
    audit_invalidations: AtomicBool,
    /// Crash-safe journal of the QI/URL map, page admissions, and sync
    /// cursor (`None` unless the builder set a durable directory).
    durability: Option<Mutex<Durability>>,
    /// What recovery found, when this portal was built via `recover()`.
    recovery: Option<RecoveryStats>,
    /// The installed fault plan (inert by default); exposes injection
    /// counters to the harness.
    fault: FaultPlan,
}

impl CachePortal {
    /// Start building a system around an existing database.
    pub fn builder(db: Database) -> CachePortalBuilder {
        Self::builder_shared(shared(db))
    }

    /// Start building a system around an already-shared database handle.
    /// Crash recovery uses this: the simulated DBMS process survives the
    /// portal crash, so the recovered portal re-attaches to the same
    /// [`SharedDb`] instead of owning a fresh one.
    pub fn builder_shared(db: SharedDb) -> CachePortalBuilder {
        CachePortalBuilder {
            db,
            cache_config: PageCacheConfig::default(),
            invalidator_config: InvalidatorConfig::default(),
            maintained_indexes: Vec::new(),
            fault: FaultPlan::default(),
            durable_dir: None,
            checkpoint_interval: 8,
            surviving_cache: None,
            flight_dir: None,
            nodes: 1,
        }
    }

    /// The installed fault plan (inert unless the builder set one); the
    /// harness reads its injection counters.
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.fault
    }

    /// What recovery replayed and ejected, when this portal was built via
    /// [`CachePortalBuilder::recover`]; `None` for a fresh build.
    pub fn recovery_stats(&self) -> Option<&RecoveryStats> {
        self.recovery.as_ref()
    }

    /// Register a servlet on every node (the farm is homogeneous).
    pub fn register_servlet(&self, servlet: Arc<dyn Servlet>) {
        for node in &self.nodes {
            node.web.app().register(servlet.clone());
        }
    }

    /// The servlet serving `path`. Every node has the same registry; node
    /// 0's answers.
    fn servlet_for(&self, path: &str) -> Option<Arc<dyn Servlet>> {
        self.nodes[0].web.app().servlet_for(path)
    }

    /// Requests each node's application server has served (misses only:
    /// hits are answered by the front cache).
    pub fn node_loads(&self) -> Vec<u64> {
        self.nodes.iter().map(|n| n.web.app().requests_served()).collect()
    }

    /// The shared database handle (backend update processes use this).
    pub fn db(&self) -> &SharedDb {
        &self.db
    }

    /// The front web-page cache.
    pub fn page_cache(&self) -> &Arc<PageCache> {
        &self.page_cache
    }

    /// The QI/URL map (diagnostics).
    pub fn qi_url_map(&self) -> &Arc<QiUrlMap> {
        &self.map
    }

    /// Access the invalidator (policy overrides, registry inspection).
    ///
    /// Consuming the update log from here (`run_sync_point`) is unsupported:
    /// only [`sync_point`](Self::sync_point) advances the admission stamp, so
    /// a miss in flight would not see that consume and could be cached stale.
    pub fn with_invalidator<R>(&self, f: impl FnOnce(&mut Invalidator) -> R) -> R {
        f(&mut self.invalidator.lock())
    }

    /// Set the invalidation policy for a query type.
    pub fn set_policy(&self, id: QueryTypeId, policy: InvalidationPolicy) {
        self.invalidator.lock().set_policy(id, policy);
    }

    /// Serve one request through the cache (Figure 4's request path).
    ///
    /// Outside the admission critical section (`CachePortal::admit`) and
    /// the database's read lock, a request takes no mutex that every
    /// request thread shares (the route table's and the page cache's read
    /// locks are read-mostly): its logs, tallies and counters are striped
    /// per thread, and its trace events share the route's and the page
    /// key's text. The clock's tick is the one shared write left by design
    /// (DESIGN §3).
    pub fn request(&self, req: &HttpRequest) -> RequestOutcome {
        let now = self.clock.tick();
        self.req_counters.total.inc();
        // The cache fronting the site can only key pages of known servlets.
        // The key is built here, once: the node that generates the page logs
        // a clone of it, as do the cache and the admissions table below.
        // Every node has the same routes; node 0's answer.
        let routed = self.nodes[0].web.app().route(&req.path).map(|(path, servlet)| {
            let key = PageKey::for_request(req, servlet.spec());
            (path, servlet, key)
        });

        if let Some((path, _, key)) = &routed {
            if let Some(body) = self.page_cache.get_shared(key, now) {
                self.req_counters.cache_hits.inc();
                let ctx = self.obs.tracer.start_trace("web", "request", now, path.clone());
                self.obs.tracer.child_event(ctx, "cache", "hit", now, key.text().clone());
                self.obs.scorecards.note_page(key.text(), true, None);
                self.obs.slo.observe_bool(SloKind::HitRate, now, true);
                return RequestOutcome {
                    response: HttpResponse::ok(
                        body,
                        CacheControl::PrivateOwner("cacheportal".into()),
                    ),
                    served: Served::CacheHit,
                    key: routed.map(|(_, _, key)| key),
                };
            }
        }

        // Admission stamp (DESIGN §7): a page is cached only if no sync
        // point advanced the ordinal between here and its admission. SeqCst
        // pairs with the advance in `sync_point`, made after its mapper run
        // and its consume.
        let stamp = self.sync_seq.load(Ordering::SeqCst);
        let path = routed
            .as_ref()
            .map_or_else(|| req.path.as_str().into(), |(path, _, _)| path.clone());
        let ctx = self.obs.tracer.start_trace("web", "request", now, path.clone());
        // Render cost in deterministic work units: the rows this thread's
        // statements read while generating the page — its own, whatever
        // other requests run meanwhile. Wall-clock is also measured (span
        // duration) but never feeds the scorecards, which must be
        // byte-stable for a fixed seed.
        let rows_before = rows_read_by_this_thread();
        let gen_started = std::time::Instant::now();
        // Figure 4's load balancer: misses go to the servers in turn.
        let node = match self.nodes.len() {
            1 => &self.nodes[0],
            n => &self.nodes[self.next_node.fetch_add(1, Ordering::Relaxed) % n],
        };
        let response = match &routed {
            Some((_, servlet, key)) => node.web.serve(req, &**servlet, key),
            None => node.web.handle(req),
        };
        let gen_micros = gen_started.elapsed().as_micros().min(u64::MAX as u128) as u64;
        self.obs.tracer.child_span(ctx, "web", "request.generate", now, path, gen_micros);
        self.req_counters.generated.inc();
        let Some((_, _, key)) = routed else {
            return RequestOutcome { response, served: Served::Generated, key: None };
        };
        let cost = rows_read_by_this_thread() - rows_before;
        self.obs.scorecards.note_page(key.text(), false, Some(cost));
        // Only routable pages count against the hit-rate objective: an
        // unroutable path can never be cached, so it is not a "miss".
        self.obs.slo.observe_bool(SloKind::HitRate, now, false);
        if response.status == cacheportal_web::Status::Ok
            && response.cache_control.cacheable_by("cacheportal")
        {
            match self.admit(&key, &response.body, stamp) {
                Admitted::Cached(key, at) => {
                    self.obs.tracer.child_event(ctx, "cache", "admit", at, key.text().clone());
                }
                // Policy discovery has banned one of this page's query
                // types from caching.
                Admitted::Banned => self.req_counters.declined_policy.inc(),
                Admitted::Raced => {
                    self.req_counters.declined_race.inc();
                    let at = self.clock.now_micros();
                    let detail = key.text().clone();
                    self.obs.tracer.child_event(ctx, "cache", "admit.declined_race", at, detail);
                }
            }
        }
        RequestOutcome { response, served: Served::Generated, key: Some(key) }
    }

    /// The admission critical section: under the invalidator lock, so that
    /// no sync point interleaves, the policy ban and the stamp compare, then
    /// the origin put, the admission row and the edge mirror. Nothing else
    /// runs under the lock. The page's request record was logged before
    /// this, so the next sync point maps the page before it consumes.
    fn admit(&self, key: &PageKey, body: &Arc<str>, stamp: u64) -> Admitted {
        let inv = self.invalidator.lock();
        let reg = inv.registry();
        let registered = reg.page(key);
        if registered.is_some_and(|(_, types)| types.iter().any(|id| !reg.get(*id).cacheable)) {
            return Admitted::Banned;
        }
        if !self.admissible(stamp) {
            return Admitted::Raced;
        }
        // A page the registry knows is admitted under the registry's key: a
        // page is one allocation, however often it is evicted and generated
        // again.
        let key = registered.map_or(key, |(known, _)| known).clone();
        let now = self.clock.tick();
        self.page_cache.put(key.clone(), body.clone(), now);
        // The cache's stamp: every window reading keys off it.
        let mut admissions = self.admissions.lock();
        admissions.pages.insert(key.clone(), now);
        if self.durability.is_some() {
            admissions.unjournaled.push((key.clone(), now));
        }
        drop(admissions);
        // Mirror the admission to every healthy edge. A degraded
        // (self-ejecting) edge declines — it must stay empty until its
        // watermark catches up.
        self.bus.admit_page(&key, body, now);
        Admitted::Cached(key, now)
    }

    /// The one compare of the admission stamp (DESIGN §7): a miss stamped
    /// `stamp` before its generation may be cached only if no sync point has
    /// advanced the sync ordinal since.
    fn admissible(&self, stamp: u64) -> bool {
        self.sync_seq.load(Ordering::SeqCst) == stamp
    }

    /// Apply a backend update (the `Upd` arrow of Figure 5). The change
    /// reaches cached pages at the next synchronization point.
    pub fn update(&self, sql: &str) -> DbResult<usize> {
        let mut db = self.db.write();
        let before = db.high_water();
        let affected = db.execute(sql)?.affected();
        let after = db.high_water();
        drop(db);
        self.note_commit(before, after);
        Ok(affected)
    }

    /// Atomic backend update: run `f` inside a transaction. Commits on
    /// `Ok`, rolls back on `Err` — a rolled-back transaction leaves no
    /// trace in the update log, so the invalidator never sees it.
    pub fn update_txn<R>(
        &self,
        f: impl FnOnce(&mut cacheportal_db::Transaction<'_>) -> DbResult<R>,
    ) -> DbResult<R> {
        let mut db = self.db.write();
        let before = db.high_water();
        let mut tx = db.begin();
        match f(&mut tx) {
            Ok(r) => {
                // Commit reports the inclusive LSN range it appended — the
                // authoritative handle for staleness stamping (and `None`
                // exactly when the transaction wrote nothing).
                let range = tx.commit();
                drop(db);
                if let Some((first, last)) = range {
                    debug_assert_eq!(first, before);
                    self.note_commit(first, last + 1);
                }
                Ok(r)
            }
            Err(e) => {
                tx.rollback()?;
                Err(e)
            }
        }
    }

    /// Stamp freshly committed update-log records with the logical commit
    /// time: the staleness probe measures from here to the sync point that
    /// ejects the affected pages. Rolled-back records never get here.
    fn note_commit(&self, before: Lsn, after: Lsn) {
        if after == before {
            return;
        }
        let now = self.clock.now_micros();
        self.obs.staleness.stamp(before, after - 1, now);
        self.obs
            .metrics
            .counter("portal.updates.committed")
            .add(after - before);
        // Each commit roots its own trace; the commit index maps the LSN
        // range back to this root so a later eject can name the commit that
        // caused it (`after` is one past the last appended record).
        let ctx = self
            .obs
            .tracer
            .start_trace("db", "update.commit", now, format!("lsns {before}..{after}"));
        self.obs.commits.note(before, after - 1, ctx);
    }

    /// Register an additional cache (edge/proxy/user-side — Figure 1's
    /// cache placements) to receive this system's eject messages over the
    /// invalidation bus at every synchronization point. Edge caches may be
    /// populated independently or mirrored from the portal's admissions;
    /// either way CachePortal guarantees they are never left stale: after
    /// every sync point an edge is fully caught up or conservatively empty.
    /// Returns the edge's bus registration index.
    pub fn register_edge_cache(&self, cache: Arc<PageCache>) -> usize {
        let name = format!("edge-{}", self.bus.edge_count());
        self.bus.register_edge(&name, cache, self.clock.now_micros())
    }

    /// The invalidation bus (per-edge watermarks, delivery stats, `/bus`).
    pub fn bus(&self) -> &Arc<InvalidationBus> {
        &self.bus
    }

    /// Force edge `idx`'s bus link down (or back up): the scripted
    /// partition drill's lever, independent of the probabilistic fault
    /// plan. While down, deliveries to that edge fail exactly like a
    /// network partition — retries, then partition bookkeeping and
    /// degraded self-ejection — and healing it lets the next sync point's
    /// delivery round catch the edge back up from its acked watermark.
    pub fn partition_edge(&self, idx: usize, down: bool) {
        self.bus_transport.set_partitioned(idx, down);
    }

    /// Crash-and-rejoin edge `idx`: the endpoint's volatile watermark is
    /// lost and rebuilt from the bus's last acked mark, and pages admitted
    /// past the mark are conservatively flushed before the edge rejoins.
    /// Returns the flush count.
    pub fn reboot_bus_edge(&self, idx: usize) -> usize {
        self.bus.reboot_edge(idx, self.clock.now_micros())
    }

    /// Run one synchronization point: map new requests/queries, analyze
    /// accumulated updates, and eject stale pages from the cache.
    ///
    /// The stages run in order under the invalidator lock, each a function
    /// from what the earlier ones returned to a plain struct: map, cut,
    /// analyse, guard, eject, deliver, persist. Nothing in them is observed;
    /// the observer (`system/observe.rs`) reads their outputs once, after
    /// the last.
    ///
    /// Returns `Ok` on every path: a query instance the invalidator cannot
    /// analyse against the current schema is a `BindFailure` verdict, so its
    /// pages are ejected like any other affected instance's. The `Result`
    /// stays for callers written against it.
    pub fn sync_point(&self) -> DbResult<SyncReport> {
        let started = std::time::Instant::now();
        // The invalidator lock delimits the sync critical section: page
        // admission (see `request`) serializes against it, and the mapper
        // must drain the logs inside it so every page admitted before this
        // sync is registered before its updates are consumed. When
        // durability is on, the lock stays held through persist + truncate
        // so the on-disk cursor can never run ahead of delivered ejects.
        let mut invalidator = self.invalidator.lock();
        let ts = self.clock.now_micros();
        let sync_seq = self.sync_seq.load(Ordering::Relaxed);
        // Bursty poll-fault phase tracks the sync ordinal; the ordinal is
        // part of the durable cursor, so the phase survives a crash.
        self.fault.set_poll_epoch(sync_seq);

        let mapper = self.map_logs();
        let window_start = self.cut_window(ts);
        let Analysed { mut invalidation, consumed, watermarks } = self.analyse(&mut invalidator);
        // Mapped and consumed: a miss stamped before this is not admitted.
        self.sync_seq.fetch_add(1, Ordering::SeqCst);
        let guard = self.guard(window_start, mapper.lost, &mut invalidation);
        let ejected = self.eject(&invalidation.pages);
        let delivered = self.deliver(sync_seq, ts, &invalidation.pages);
        let persisted = self.persist(sync_seq, consumed, watermarks, &invalidation.pages);

        let run = SyncRun {
            started,
            ts,
            sync_seq,
            mapper,
            invalidation,
            consumed,
            guard,
            ejected,
            delivered,
            persisted,
        };
        self.observe_sync(&invalidator, &run);
        drop(invalidator);
        Ok(SyncReport {
            mapper: run.mapper,
            invalidation: run.invalidation,
            ejected: run.ejected.keys.len(),
            fault_ejected: run.guard.fault_ejected,
            netting_guard_ejected: run.guard.netting_guard_ejected,
        })
    }

    /// Map stage: every node's mapper drains its own logs into the one map.
    fn map_logs(&self) -> MapperReport {
        self.nodes
            .iter()
            .map(|n| n.mapper.lock().run_once())
            .fold(MapperReport::default(), MapperReport::merge)
    }

    /// Cut stage: close the window at `ts`, the sync point's logical time,
    /// and return when it opened. Every admission so far was stamped at or
    /// before `ts`, under the invalidator lock this sync holds; a page
    /// admitted after the lock drops is stamped later, in the *next* window.
    fn cut_window(&self, ts: u64) -> u64 {
        std::mem::replace(&mut self.admissions.lock().window_start, ts)
    }

    /// Analyse stage: the invalidator's sync point (register, delta,
    /// analyse, collect) under the database's write lock.
    fn analyse(&self, invalidator: &mut Invalidator) -> Analysed {
        let mut db = self.db.write();
        let prev_consumed = invalidator.consumed_lsn();
        let invalidation = (invalidator.run_sync_point(&db, &self.map))
            .expect("an instance that does not analyse is a verdict, not an error");
        let consumed = invalidator.consumed_lsn();
        let watermarks = if self.durability.is_some() {
            // Per-relation high-water marks of this window's delta groups,
            // recorded into the durable cursor for post-crash diagnostics.
            // The log is in LSN order, so a table's last record carries its
            // mark.
            let window = db.update_log().pull_since(prev_consumed);
            let per_table: BTreeMap<&str, u64> = (window.iter().filter(|r| r.lsn < consumed))
                .map(|r| (&*r.table, r.lsn))
                .collect();
            per_table.into_iter().map(|(t, w)| (t.to_string(), w)).collect()
        } else {
            // The invalidator is the only log consumer in this deployment:
            // consumed records can be reclaimed (keeps the log bounded).
            // With durability on, reclamation waits until the cursor is on
            // disk — see `persist`.
            db.update_log_mut().truncate(consumed);
            Vec::new()
        };
        Analysed { invalidation, consumed, watermarks }
    }

    /// Guard stage: the conservative additions to the invalidator's page
    /// set, and the opt-in audit of the whole set. Joining
    /// `invalidation.pages` here means the guards' ejects propagate over the
    /// bus to every edge as part of the normal batch.
    fn guard(
        &self,
        window_start: u64,
        sniffer_lost: u64,
        invalidation: &mut InvalidationReport,
    ) -> Guarded {
        let admissions = self.admissions.lock();
        let admitted = |key: &PageKey| {
            (admissions.pages.get(key)).is_some_and(|&at| at > window_start)
        };
        // Mid-window netting guard: the aggregate value-preserving rule's
        // endpoint-states proof does not cover pages generated *inside*
        // the window — a page built between an insert and the delete that
        // nets it out embeds an intermediate state the netted deltas never
        // reveal. Eject any netted page admitted since the previous sync;
        // the cost is over-invalidation, never staleness.
        let mut netting_guard_ejected = 0;
        for key in &invalidation.netted_pages {
            if admitted(key) && invalidation.pages.insert(key.clone()) {
                netting_guard_ejected += 1;
            }
        }

        // Conservative sniffer-loss recovery: the logger lost records this
        // window, so any page admitted in it may be missing a dependency
        // edge in the QI/URL map (partial mapping — one of a page's queries
        // dropped — makes any finer-grained rule unsound). Eject them all;
        // the cost is pure over-invalidation, never staleness.
        let mut fault_ejected = 0;
        if sniffer_lost > 0 {
            for (key, &at) in &admissions.pages {
                if at > window_start && invalidation.pages.insert(key.clone()) {
                    fault_ejected += 1;
                }
            }
        }
        drop(admissions);

        // Opt-in freshness audit: of the pages the invalidator wants
        // ejected and the origin holds, which are *actually* stale? The rest
        // is over-invalidation — the price of a conservative policy (§4.2's
        // precision story). Only those pages are regenerated.
        let audited =
            self.audit_invalidations.load(Ordering::Relaxed) && !invalidation.pages.is_empty();
        let over_invalidations = audited.then(|| {
            let named: HashSet<PageKey> = (invalidation.pages.iter())
                .filter(|p| self.page_cache.contains(p))
                .cloned()
                .collect();
            (named.len() - self.stale_among(Some(&named)).len()) as u64
        });
        Guarded { netting_guard_ejected, fault_ejected, over_invalidations }
    }

    /// Eject stage: remove the named pages from the front cache.
    fn eject(&self, pages: &HashSet<PageKey>) -> Ejected {
        let started = std::time::Instant::now();
        let keys = self.page_cache.invalidate_collect(pages.iter());
        Ejected { keys, micros: micros_since(started) }
    }

    /// Deliver stage: fan the ejects out over the invalidation bus. Every
    /// sync point publishes one sequenced batch (empty = heartbeat, so an
    /// edge can prove it is caught up) and runs one delivery round. Each
    /// edge either renews its lease here or starts conservative
    /// self-ejection — before the cursor becomes durable, so a crash never
    /// strands a stale edge behind a persisted watermark.
    fn deliver(&self, sync_seq: u64, ts: u64, pages: &HashSet<PageKey>) -> Delivered {
        let started = std::time::Instant::now();
        let mut batch: Vec<PageKey> = pages.iter().cloned().collect();
        batch.sort();
        let published = self.bus.publish(sync_seq, ts, batch);
        let round = self.bus.deliver_all(self.clock.now_micros());
        let micros = micros_since(started);
        let edges = self.bus.edge_rows();
        let partitioned = edges.iter().filter(|e| e.partitioned).count() as u64;
        Delivered { published, round, micros, edges, partitioned }
    }

    /// Persist stage. Crash-safety ordering: the ejects are already
    /// delivered, so the cursor may now become durable; only once it is on
    /// disk may the update log forget the records behind it. A crash in
    /// between re-analyzes (and re-ejects) this window — over-invalidation,
    /// never staleness. On a WAL error the log is kept so the records stay
    /// replayable, and `/healthz` goes unhealthy.
    fn persist(
        &self,
        sync_seq: u64,
        consumed: Lsn,
        watermarks: Vec<(String, u64)>,
        ejected_pages: &HashSet<PageKey>,
    ) -> Persisted {
        let mut guard = self.admissions.lock();
        let admissions = &mut *guard;
        for p in ejected_pages {
            admissions.pages.remove(p);
        }
        let work = watermarks.len() as u64;
        let started = std::time::Instant::now();
        let journal = self.durability.as_ref().map(|durability| {
            // The batch carries every admission since the last durable one,
            // in admission order, each at the stamp its row still holds: a
            // page ejected before its first batch is not journaled at all,
            // and one admitted twice is journaled once, at its latest stamp.
            let batch = &mut admissions.unjournaled;
            batch.retain(|(page, at)| admissions.pages.get(page) == Some(at));
            batch.sort_unstable_by_key(|&(_, at)| at);
            // The bus's delivery watermarks ride the same durable record as
            // the sync cursor: they reflect the delivery round just run, so
            // a crash after this fsync recovers marks that are never ahead
            // of what the edges actually acked.
            let (bus_seq, edge_marks) = self.bus.durable_marks();
            let cursor = CursorRecord {
                consumed,
                sync_seq: sync_seq + 1,
                watermarks,
                bus_seq,
                edge_marks,
            };
            let (outcome, stats) = {
                let mut d = durability.lock();
                let outcome = d.persist_sync(&self.map, batch, &admissions.pages, cursor);
                (outcome, d.wal_stats())
            };
            if outcome.errors == 0 {
                batch.clear();
                self.db.write().update_log_mut().truncate(consumed);
            }
            (outcome, stats)
        });
        let micros = if journal.is_some() { micros_since(started) } else { 0 };
        Persisted { work, micros, journal }
    }

    /// Freshness oracle: regenerate every cached page silently (no logging,
    /// no cache interaction) and report the keys whose cached body differs.
    /// Covers the front cache *and* every in-process edge cache on the bus
    /// — after [`CachePortal::sync_point`] this must always be empty (an
    /// edge is either fully caught up or conservatively empty). Each page is
    /// regenerated once, and read with [`PageCache::peek`], which neither
    /// marks it visited nor counts a hit.
    pub fn stale_pages(&self) -> Vec<PageKey> {
        self.stale_among(None)
    }

    /// The freshness oracle over the cached pages in `judged` (every cached
    /// page when `None`): a page is stale when it has no fresh body, or when
    /// any cache holding it holds a different one. A page is regenerated
    /// from its key, once, and only if it is judged, has an admission row,
    /// and its key names a request that keys back to it.
    fn stale_among(&self, judged: Option<&HashSet<PageKey>>) -> Vec<PageKey> {
        let admissions = self.admissions.lock();
        let mut caches: Vec<Arc<PageCache>> = vec![self.page_cache.clone()];
        caches.extend(self.bus.edge_caches());
        // Each key's fresh body; `None` when it cannot be verified (no
        // admission row, no request behind the key, no servlet, a request
        // its servlet keys elsewhere, or the regeneration failed), which
        // the oracle reports as stale to stay conservative.
        let mut fresh: HashMap<PageKey, Option<String>> = HashMap::new();
        let mut stale = Vec::new();
        let mut seen: HashSet<PageKey> = HashSet::new();
        for cache in &caches {
            for key in cache.keys() {
                if judged.is_some_and(|judged| !judged.contains(&key)) {
                    continue;
                }
                let body = fresh.entry(key.clone()).or_insert_with(|| {
                    admissions.pages.get(&key)?;
                    let req = key.request()?;
                    let servlet = self.servlet_for(&req.path)?;
                    if PageKey::for_request(&req, servlet.spec()) != key {
                        return None;
                    }
                    let mut conn = DbConnection::new(self.db.clone());
                    servlet.handle(&req, &mut conn).ok()
                });
                let current = body.as_deref().is_some_and(|body| {
                    cache.peek(&key, self.clock.now_micros()).as_deref() == Some(body)
                });
                if !current && seen.insert(key.clone()) {
                    stale.push(key);
                }
            }
        }
        stale
    }

    /// Advance the logical clock (workload pacing in examples/benches).
    pub fn advance_clock(&self, micros: u64) {
        self.clock.advance(micros);
    }

    /// The observability bundle: every instrument, and the one way to the
    /// documents the portal would only forward (`tracer.doc(n)`,
    /// `timeline_doc(stable)`, `scorecards.doc()`,
    /// `provenance.explain_lsn(lsn)`). Components may resolve extra
    /// counters or disable the tracer here.
    pub fn obs(&self) -> &Arc<Obs> {
        &self.obs
    }

    /// Why was this page ejected? The full provenance chain for every
    /// retained eject of `url` — consumed LSN range, per-table ΔR groups,
    /// matched query types with bound parameters and verdicts — plus the
    /// page's current QI/URL map rows and an explicit truncation marker
    /// when older evidence has rotated out of the bounded ring
    /// (`GET /explain?url=`).
    pub fn explain_invalidation(&self, url: &str) -> Explanation {
        self.obs.explain_url(url, self.hub.qi_rows(url))
    }

    /// Start the live admin endpoint on `addr` (e.g. `"127.0.0.1:0"`); see
    /// [`AdminServer`] for its routes. The server runs on its own thread
    /// until the returned handle is shut down or dropped.
    pub fn serve_admin(&self, addr: &str) -> std::io::Result<AdminServer> {
        AdminServer::serve(addr, self.obs.clone(), self.hub.clone())
    }

    /// Append all trace events and eject records accumulated since the last
    /// call as JSONL to `w`. The portal keeps the cursor, so successive
    /// calls stream without duplicates; `ExportStats::skipped` counts events
    /// that rotated out of the bounded rings between calls.
    pub fn export_jsonl<W: std::io::Write>(&self, w: &mut W) -> std::io::Result<ExportStats> {
        self.exporter.lock().export(&self.obs, w)
    }

    /// Audit every sync point against the freshness oracle, counting
    /// ejections of pages that were not actually stale
    /// (`invalidator.over_invalidations`). Expensive: regenerates each page
    /// a sync point names and the origin holds.
    pub fn set_invalidation_audit(&self, on: bool) {
        self.audit_invalidations.store(on, Ordering::Relaxed);
    }

    /// One document with everything: registry counters/gauges/histograms,
    /// the commit→eject staleness distribution, recent trace events, and a
    /// `derived` section with the headline figures.
    pub fn metrics_snapshot(&self) -> Snapshot {
        self.hub.refresh();
        self.obs.snapshot()
    }

    /// The freshness SLO document (`GET /slo`): per-objective burn rates
    /// over the multi-window pairs, firing alerts, the bounded alert log's
    /// recent transitions, and the live health snapshot as context. With
    /// `stable = true`, wall-clock-fed objectives and their alerts are
    /// skipped so the document is byte-identical for a fixed seed.
    pub fn slo(&self, stable: bool) -> SloDoc {
        self.obs.slo_doc(self.clock.now_micros(), stable)
    }

    /// Assemble (without recording) a black-box flight bundle — the
    /// document `GET /flightrecord?dump=1` captures and serves. See
    /// [`cacheportal_obs::verify_flight_record`] for the coherence contract.
    pub fn flight_record(&self, reason: &str, stable: bool) -> FlightBundle {
        self.hub.refresh();
        let mut bundle = self.obs.flight_bundle(reason, self.clock.now_micros());
        if stable {
            bundle.stabilize();
        }
        bundle
    }

}

#[cfg(test)]
mod tests {
    use super::*;
    use cacheportal_db::schema::ColType;
    use cacheportal_web::{ParamSource, QueryTemplate, ServletSpec, SqlServlet};

    fn example_db() -> Database {
        let mut db = Database::new();
        db.execute("CREATE TABLE Car (maker TEXT, model TEXT, price INT, INDEX(model))")
            .unwrap();
        db.execute("CREATE TABLE Mileage (model TEXT, EPA FLOAT, INDEX(model))")
            .unwrap();
        db.execute(
            "INSERT INTO Car VALUES ('Toyota','Avalon',25000), ('Honda','Civic',18000)",
        )
        .unwrap();
        db.execute("INSERT INTO Mileage VALUES ('Avalon', 28.0), ('Civic', 36.5)")
            .unwrap();
        db
    }

    fn search_servlet() -> Arc<dyn Servlet> {
        Arc::new(SqlServlet::new(
            ServletSpec::new("carSearch").with_key_get_params(&["maxprice"]),
            "Car search",
            vec![QueryTemplate::new(
                "SELECT Car.maker, Car.model, Car.price, Mileage.EPA FROM Car, Mileage \
                 WHERE Car.model = Mileage.model AND Car.price < $1",
                vec![ParamSource::Get("maxprice".into(), ColType::Int)],
            )],
        ))
    }

    fn portal() -> CachePortal {
        let portal = CachePortal::builder(example_db()).build().unwrap();
        portal.register_servlet(search_servlet());
        portal
    }

    fn req(maxprice: i64) -> HttpRequest {
        HttpRequest::get(
            "shop.example.com",
            "/carSearch",
            &[("maxprice", &maxprice.to_string())],
        )
    }

    #[test]
    fn second_request_is_a_cache_hit() {
        let p = portal();
        let first = p.request(&req(20000));
        assert_eq!(first.served, Served::Generated);
        let second = p.request(&req(20000));
        assert_eq!(second.served, Served::CacheHit);
        assert_eq!(first.response.body, second.response.body);
    }

    #[test]
    fn relevant_update_invalidates_exactly_the_affected_page() {
        let p = portal();
        p.request(&req(20000)); // page A: price < 20000 (Civic only)
        p.request(&req(30000)); // page B: price < 30000 (Civic + Avalon)
        p.sync_point().unwrap(); // registers both instances

        // New car at 22000 with mileage data: affects only page B.
        p.update("INSERT INTO Mileage VALUES ('Camry', 30.0)").unwrap();
        p.update("INSERT INTO Car VALUES ('Toyota','Camry',22000)").unwrap();
        let report = p.sync_point().unwrap();

        assert_eq!(report.ejected, 1, "only the 30000 page ejected");
        assert_eq!(p.request(&req(20000)).served, Served::CacheHit);
        let regenerated = p.request(&req(30000));
        assert_eq!(regenerated.served, Served::Generated);
        assert!(regenerated.response.body.contains("Camry"));
        assert!(p.stale_pages().is_empty());
    }

    #[test]
    fn irrelevant_update_leaves_cache_alone() {
        let p = portal();
        p.request(&req(20000));
        p.sync_point().unwrap();
        // 90000 > any page bound → no impact.
        p.update("INSERT INTO Car VALUES ('Bentley','Azure',90000)").unwrap();
        let report = p.sync_point().unwrap();
        assert_eq!(report.ejected, 0);
        assert_eq!(p.request(&req(20000)).served, Served::CacheHit);
        assert!(p.stale_pages().is_empty());
    }

    #[test]
    fn the_freshness_oracle_leaves_the_caches_it_reads_untouched() {
        let p = portal();
        let edge = Arc::new(PageCache::new(PageCacheConfig::default()));
        p.register_edge_cache(edge.clone());
        p.request(&req(20000));
        p.request(&req(30000));
        p.sync_point().unwrap();
        let caches = [p.page_cache().clone(), edge];
        assert!(caches.iter().all(|c| c.len() == 2), "both pages at the origin and the edge");
        let state = || -> Vec<_> { caches.iter().map(|c| (c.stats(), c.sieve_queue())).collect() };
        let before = state();
        assert!(p.stale_pages().is_empty());
        assert_eq!(state(), before, "no hit counted, no page marked visited");
    }

    #[test]
    fn an_audited_sync_regenerates_only_the_named_resident_pages() {
        let p = portal();
        p.set_invalidation_audit(true);
        for price in [19000, 20000, 30000] {
            p.request(&req(price));
        }
        p.sync_point().unwrap();
        // A Camry at 22000 with mileage data changes only the 30000 page.
        p.update("INSERT INTO Mileage VALUES ('Camry', 30.0)").unwrap();
        p.update("INSERT INTO Car VALUES ('Toyota','Camry',22000)").unwrap();
        let selects = || p.db().read().stats().selects;
        let before = selects();
        let r = p.sync_point().unwrap();
        assert_eq!((r.invalidation.pages.len(), r.ejected), (1, 1));
        // The polls, and one regeneration: the named page the origin held,
        // not the two cached pages nobody named.
        assert_eq!(selects() - before, r.invalidation.polls.issued + 1);
        let counters = p.metrics_snapshot().metrics.counters;
        assert_eq!(counters["invalidator.over_invalidations"], 0, "the page did change");
    }

    /// A value that spells a second key parameter is its own page: it is
    /// generated, not served the two-parameter request's body.
    #[test]
    fn a_value_spelling_another_parameter_is_not_served_its_page() {
        let p = portal();
        p.register_servlet(Arc::new(SqlServlet::new(
            ServletSpec::new("pair").with_key_get_params(&["a", "b"]),
            "Pair",
            vec![QueryTemplate::new(
                "SELECT model FROM Car WHERE maker = $1",
                vec![ParamSource::Get("a".into(), ColType::Str)],
            )],
        )));
        let two = HttpRequest::get("h", "/pair", &[("a", "Toyota"), ("b", "y")]);
        let one = HttpRequest::get("h", "/pair", &[("a", "Toyota&g:b=y")]);
        assert!(p.request(&two).response.body.contains("Avalon"));
        let out = p.request(&one);
        assert_eq!(out.served, Served::Generated);
        assert!(!out.response.body.contains("Avalon"));
        assert_eq!(p.request(&one).served, Served::CacheHit);
        assert!(p.stale_pages().is_empty());
    }

    /// What the oracle cannot check against the one body its key names is
    /// stale, whatever the cache holds.
    #[test]
    fn the_oracle_reports_what_it_cannot_regenerate_from_the_key() {
        // A fresh body in an edge cache, under a page the portal never
        // admitted.
        let p = portal();
        let edge = Arc::new(PageCache::new(PageCacheConfig::default()));
        p.register_edge_cache(edge.clone());
        let served = p.request(&req(20000));
        let key = served.key.unwrap();
        p.page_cache().invalidate([&key]);
        p.admissions.lock().pages.remove(&key);
        edge.invalidate([&key]);
        edge.put(key.clone(), served.response.body.clone(), 1);
        assert_eq!(p.stale_pages(), vec![key]);

        // An admitted page whose key spells its parameter with a needless
        // escape: it names the request for 20000, which keys elsewhere.
        let p = portal();
        let body = p.request(&req(20000)).response.body;
        let odd = PageKey::raw("shop.example.com/carSearch?g:maxprice=%320000");
        assert_eq!(odd.request(), Some(req(20000)));
        p.page_cache().put(odd.clone(), body, 1);
        p.admissions.lock().pages.insert(odd.clone(), 1);
        assert_eq!(p.stale_pages(), vec![odd]);

        // A servlet whose body reads a parameter its spec does not key: the
        // cache would serve the first maker's page for every maker.
        let p = portal();
        p.register_servlet(Arc::new(SqlServlet::new(
            ServletSpec::new("byMaker").with_key_get_params(&["maxprice"]),
            "By maker",
            vec![QueryTemplate::new(
                "SELECT model FROM Car WHERE price < $1 AND maker = $2",
                vec![
                    ParamSource::Get("maxprice".into(), ColType::Int),
                    ParamSource::Get("maker".into(), ColType::Str),
                ],
            )],
        )));
        let by = |maker| {
            HttpRequest::get("h", "/byMaker", &[("maxprice", "30000"), ("maker", maker)])
        };
        let toyota = p.request(&by("Toyota"));
        assert!(toyota.response.body.contains("Avalon"));
        let honda = p.request(&by("Honda"));
        assert_eq!(honda.served, Served::CacheHit);
        assert_eq!(p.stale_pages(), vec![toyota.key.unwrap()]);
    }

    #[test]
    fn stale_between_update_and_sync_then_fresh() {
        let p = portal();
        p.request(&req(30000));
        p.sync_point().unwrap();
        p.update("DELETE FROM Car WHERE model = 'Avalon'").unwrap();
        // Before the sync point the cached page is stale — by design.
        assert_eq!(p.stale_pages().len(), 1);
        p.sync_point().unwrap();
        assert!(p.stale_pages().is_empty());
        let out = p.request(&req(30000));
        assert_eq!(out.served, Served::Generated);
        assert!(!out.response.body.contains("Avalon"));
    }

    #[test]
    fn unknown_path_is_served_uncached() {
        let p = portal();
        let out = p.request(&HttpRequest::get("h", "/nope", &[]));
        assert_eq!(out.response.status.code(), 404);
        assert_eq!(out.served, Served::Generated);
        assert!(p.page_cache().is_empty());
    }

    #[test]
    fn update_delete_insert_mix_stays_fresh() {
        let p = portal();
        for price in [19000, 26000, 40000] {
            p.request(&req(price));
        }
        p.sync_point().unwrap();
        p.update("UPDATE Car SET price = 19500 WHERE model = 'Avalon'").unwrap();
        p.sync_point().unwrap();
        assert!(p.stale_pages().is_empty());
        // 19000 page unaffected (Avalon still ≥ 19000)…
        assert_eq!(p.request(&req(19000)).served, Served::CacheHit);
        // …but both larger pages changed (Avalon's price moved).
        assert_eq!(p.request(&req(26000)).served, Served::Generated);
    }

    #[test]
    fn non_cacheable_servlet_pages_never_cached() {
        let p = portal();
        p.register_servlet(Arc::new(SqlServlet::new(
            ServletSpec::new("live").non_cacheable(),
            "Live",
            vec![QueryTemplate::new(
                "SELECT COUNT(*) FROM Car",
                vec![],
            )],
        )));
        let r = HttpRequest::get("h", "/live", &[]);
        assert_eq!(p.request(&r).served, Served::Generated);
        assert_eq!(p.request(&r).served, Served::Generated, "never cached");
        assert!(p.page_cache().is_empty());
    }

    #[test]
    fn transactional_update_is_atomic_for_the_invalidator() {
        let p = portal();
        p.request(&req(30000));
        p.sync_point().unwrap();

        // A rolled-back transaction leaves no trace: no log records, no
        // invalidation, the page stays cached.
        let err: DbResult<()> = p.update_txn(|tx| {
            tx.execute("INSERT INTO Car VALUES ('Kia','Rio',12000)")?;
            Err(cacheportal_db::DbError::Unsupported("business rule".into()))
        });
        assert!(err.is_err());
        let r = p.sync_point().unwrap();
        assert_eq!(r.invalidation.records_consumed, 0);
        assert_eq!(p.request(&req(30000)).served, Served::CacheHit);

        // A committed transaction lands both rows in one batch.
        p.update_txn(|tx| {
            tx.execute("INSERT INTO Mileage VALUES ('Rio', 33.0)")?;
            tx.execute("INSERT INTO Car VALUES ('Kia','Rio',12000)")?;
            Ok(())
        })
        .unwrap();
        let r = p.sync_point().unwrap();
        assert_eq!(r.invalidation.records_consumed, 2);
        assert_eq!(r.ejected, 1);
        assert!(p.request(&req(30000)).response.body.contains("Rio"));
        assert!(p.stale_pages().is_empty());
    }

    #[test]
    fn edge_caches_receive_eject_messages() {
        for nodes in [1, 3] {
            let p = CachePortal::builder(example_db()).nodes(nodes).build().unwrap();
            p.register_servlet(search_servlet());
            let edge = Arc::new(PageCache::new(PageCacheConfig::default()));
            p.register_edge_cache(edge.clone());

            let out = p.request(&req(30000));
            let key = out.key.clone().unwrap();
            // The edge cache independently stores the page (its own population).
            edge.put(key.clone(), out.response.body.clone(), 0);
            p.sync_point().unwrap();

            // Irrelevant update: both caches keep the page.
            p.update("INSERT INTO Car VALUES ('Bentley','Azure',900000)").unwrap();
            p.sync_point().unwrap();
            assert!(edge.contains(&key));

            // Relevant update: the eject fans out to the edge cache too.
            p.update("UPDATE Car SET price = 24000 WHERE model = 'Avalon'").unwrap();
            p.sync_point().unwrap();
            assert!(!edge.contains(&key), "edge cache must receive the eject");
            assert_eq!(p.request(&req(30000)).served, Served::Generated);
        }
    }

    #[test]
    fn policy_discovery_feedback_stops_caching() {
        for nodes in [1, 3] {
            let mut cfg = InvalidatorConfig::default();
            cfg.policy.non_cacheable_invalidation_ratio = Some(0.5);
            cfg.policy.min_batches_for_ratio = 1;
            let p = CachePortal::builder(example_db())
                .invalidator_config(cfg)
                .nodes(nodes)
                .build()
                .unwrap();
            p.register_servlet(search_servlet());
            p.request(&req(100000));
            p.sync_point().unwrap();
            // Every batch invalidates the only instance → type goes non-cacheable.
            p.update("INSERT INTO Mileage VALUES ('X1', 1.0)").unwrap();
            p.update("INSERT INTO Car VALUES ('M','X1',1)").unwrap();
            let r = p.sync_point().unwrap();
            assert_eq!(r.invalidation.newly_non_cacheable.len(), 1);
            // The page regenerates but is no longer admitted to the cache,
            // whichever node generates it.
            for _ in 0..nodes + 1 {
                assert_eq!(p.request(&req(100000)).served, Served::Generated);
            }
            assert!(p.page_cache().is_empty());
        }
    }

    // ---- The server farm: the same portal with more than one node. ----

    fn farm_db() -> Database {
        let mut db = Database::new();
        db.execute("CREATE TABLE items (grp INT, val INT, INDEX(grp))").unwrap();
        for i in 0..40 {
            db.insert_row("items", vec![(i % 4).into(), i.into()])
                .unwrap();
        }
        db
    }

    fn items_servlet() -> Arc<dyn Servlet> {
        Arc::new(SqlServlet::new(
            ServletSpec::new("items").with_key_get_params(&["grp"]),
            "Items",
            vec![QueryTemplate::new(
                "SELECT val FROM items WHERE grp = $1 ORDER BY val",
                vec![ParamSource::Get("grp".into(), ColType::Int)],
            )],
        ))
    }

    fn farm(nodes: usize) -> CachePortal {
        let c = CachePortal::builder(farm_db()).nodes(nodes).build().unwrap();
        c.register_servlet(items_servlet());
        c
    }

    fn item_req(grp: i64) -> HttpRequest {
        HttpRequest::get("farm", "/items", &[("grp", &grp.to_string())])
    }

    #[test]
    fn round_robin_spreads_misses_across_nodes() {
        let c = farm(4);
        for g in 0..4 {
            c.request(&item_req(g));
        }
        assert_eq!(c.node_loads(), vec![1, 1, 1, 1]);
        // Hits bypass the nodes entirely.
        for g in 0..4 {
            assert_eq!(c.request(&item_req(g)).served, Served::CacheHit);
        }
        assert_eq!(c.node_loads(), vec![1, 1, 1, 1]);
    }

    #[test]
    fn pages_generated_on_any_node_are_invalidated() {
        let c = farm(3);
        for g in 0..3 {
            assert_eq!(c.request(&item_req(g)).served, Served::Generated);
        }
        c.sync_point().unwrap();
        assert_eq!(c.qi_url_map().len(), 3, "all nodes' mappers fed the map");

        // Update touching grp 1 only — regardless of which node built it.
        c.update("INSERT INTO items VALUES (1, 999)").unwrap();
        let r = c.sync_point().unwrap();
        assert_eq!(r.ejected, 1);
        assert_eq!(c.request(&item_req(0)).served, Served::CacheHit);
        assert_eq!(c.request(&item_req(2)).served, Served::CacheHit);
        let fresh = c.request(&item_req(1));
        assert_eq!(fresh.served, Served::Generated);
        assert!(fresh.response.body.contains("999"));
        assert!(c.stale_pages().is_empty());
    }

    #[test]
    fn every_nodes_rows_reach_registration_typed() {
        // The node mappers run one after another against the shared map
        // before its one registration scan: a later mapper's rows must not
        // push an earlier one's typed forms out.
        let c = farm(3);
        for g in 0..3 {
            assert_eq!(c.request(&item_req(g)).served, Served::Generated);
        }
        assert_eq!(c.node_loads(), vec![1, 1, 1]);
        let r = c.sync_point().unwrap();
        assert_eq!(r.invalidation.registered, 3);
        // A row given as text is typed as it arrives, and shows its text.
        c.qi_url_map().insert(
            "SELECT val FROM items WHERE grp = 3 ORDER BY val",
            PageKey::raw("by hand"),
            "items".into(),
        );
        let r = c.sync_point().unwrap();
        assert_eq!(r.invalidation.registered, 1);
        let by_hand = c.qi_url_map().entries_for_page(&PageKey::raw("by hand"));
        assert_eq!(by_hand[0].sql, "SELECT val FROM items WHERE grp = 3 ORDER BY val");
    }

    #[test]
    fn per_node_logs_do_not_cross_contaminate() {
        // Two nodes serving different pages with interleaved timestamps:
        // each query must map to its own node's request only.
        let c = farm(2);
        c.request(&item_req(0)); // node 0
        c.request(&item_req(1)); // node 1
        let r = c.sync_point().unwrap();
        assert_eq!(
            (r.mapper.mapped, r.mapper.by_id, r.mapper.ambiguous),
            (2, 2, 0),
            "each node's queries name that node's requests"
        );
        let rows = c.qi_url_map().all();
        for row in &rows {
            let grp = if row.sql.contains("grp = 0") { 0 } else { 1 };
            assert!(
                row.page_key.as_str().contains(&format!("grp={grp}")),
                "query mapped to the wrong page: {row:?}"
            );
        }
    }

    #[test]
    fn farm_edge_caches_receive_ejects_over_the_bus() {
        let c = farm(2);
        let edge = Arc::new(PageCache::new(PageCacheConfig::default()));
        c.register_edge_cache(edge.clone());

        // The admission is mirrored to the edge; nothing put there by hand.
        let key = c.request(&item_req(1)).key.unwrap();
        assert!(edge.contains(&key), "admission mirrored to the edge");
        c.sync_point().unwrap();
        assert!(edge.contains(&key), "heartbeat round leaves the page alone");

        c.update("INSERT INTO items VALUES (1, 999)").unwrap();
        c.sync_point().unwrap();
        assert!(!edge.contains(&key), "eject fanned out over the bus");
        assert_eq!(c.bus().edge_rows()[0].lag, 0);
        assert!(c.stale_pages().is_empty());
    }

    #[test]
    fn one_node_is_the_default_farm() {
        let default = CachePortal::builder(farm_db()).build().unwrap();
        assert_eq!(default.node_loads().len(), 1);
        let c = farm(1);
        c.request(&item_req(2));
        c.sync_point().unwrap();
        c.update("DELETE FROM items WHERE grp = 2").unwrap();
        c.sync_point().unwrap();
        let out = c.request(&item_req(2));
        assert_eq!(out.served, Served::Generated);
        assert!(c.stale_pages().is_empty());
        assert_eq!(c.node_loads(), vec![2]);
    }

    #[test]
    fn sniffer_loss_on_one_node_ejects_the_windows_admissions() {
        use cacheportal_db::FaultSpec;
        // A plan that drops the second record of a query log and keeps the
        // first. Four misses over three nodes put two records on node 0's
        // log and one on each of the others, so only node 0 loses one.
        let spec = (0..)
            .map(|seed| FaultSpec { seed, sniffer_drop: 0.5, ..FaultSpec::default() })
            .find(|spec| {
                let probe = FaultPlan::new(spec.clone());
                !probe.drop_query_record(1) && probe.drop_query_record(2)
            })
            .unwrap();
        let c = CachePortal::builder(farm_db())
            .nodes(3)
            .fault_plan(FaultPlan::new(spec))
            .build()
            .unwrap();
        c.register_servlet(items_servlet());
        for g in 0..4 {
            assert_eq!(c.request(&item_req(g)).served, Served::Generated);
        }
        assert_eq!(c.node_loads(), vec![2, 1, 1]);
        assert_eq!(c.page_cache().len(), 4);

        let r = c.sync_point().unwrap();
        assert_eq!(r.mapper.lost, 1, "node 0's mapper reports its log's loss");
        assert_eq!(r.mapper.mapped, 3);
        // Which page lost its dependency edge is not knowable: all go.
        assert_eq!(r.fault_ejected, 4);
        assert!(c.page_cache().is_empty());
        assert!(c.stale_pages().is_empty());
        // The page whose query was dropped (grp 3) is never left stale.
        c.update("INSERT INTO items VALUES (3, 999)").unwrap();
        c.sync_point().unwrap();
        assert!(c.request(&item_req(3)).response.body.contains("999"));
    }

    #[test]
    fn a_farm_recovers_every_nodes_rows_and_gap_ejects() {
        let dir = std::env::temp_dir().join(format!("cp-farm-recovery-{}", std::process::id()));
        let db = shared(farm_db());
        let c = CachePortal::builder_shared(db.clone())
            .nodes(3)
            .durable(&dir)
            .build()
            .unwrap();
        c.register_servlet(items_servlet());
        for g in 0..3 {
            c.request(&item_req(g)); // one page per node
        }
        c.sync_point().unwrap(); // three rows, three origins, cursor: durable
        c.request(&item_req(3)); // admitted through node 0, NOT yet durable
        let cache = c.page_cache().clone();
        drop(c); // crash

        let c = CachePortal::builder_shared(db)
            .nodes(3)
            .durable(&dir)
            .surviving_cache(cache)
            .recover()
            .unwrap();
        c.register_servlet(items_servlet());
        let stats = c.recovery_stats().expect("built via recover()").clone();
        assert_eq!(stats.map_entries, 3, "rows mapped by all three nodes");
        assert_eq!(stats.origins, 3);
        assert_eq!(stats.gap_ejected, 1);
        assert_eq!(c.page_cache().len(), 3);

        // The recovered rows re-register at the first sync, and an update
        // to a page node 2 generated before the crash ejects it.
        c.update("INSERT INTO items VALUES (2, 999)").unwrap();
        let r = c.sync_point().unwrap();
        assert_eq!(r.invalidation.registered, 3);
        assert_eq!(r.ejected, 1);
        assert!(c.stale_pages().is_empty());
        assert_eq!(c.request(&item_req(0)).served, Served::CacheHit);
        assert!(c.request(&item_req(2)).response.body.contains("999"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_farms_ejects_walk_back_to_their_commits() {
        let c = farm(3);
        for g in 0..4 {
            c.request(&item_req(g));
        }
        c.sync_point().unwrap();
        for g in 0..3 {
            c.update(&format!("INSERT INTO items VALUES ({g}, 999)")).unwrap();
        }
        assert_eq!(c.sync_point().unwrap().ejected, 3);
        assert_eq!(c.obs().verify_causal_chains(), Ok(3));
        // The sync's mapper span covers all three nodes' runs.
        let trace = serde_json::to_string(&c.obs().tracer.doc(256)).unwrap();
        assert!(trace.contains("mapped=4 lost=0"), "{trace}");
    }
}
