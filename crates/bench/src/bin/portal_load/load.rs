//! The four workloads and the load generator that drives one real
//! `CachePortal` with them: closed- and open-loop readers, the backend
//! thread that commits updates and runs sync points on a wall-clock
//! schedule, and the correctness gate that ends every run.

use crate::hist::Hist;
use crate::site::{self, Page, Rng, UpdateKind, Zipf};
use crate::trace::Ring;
use cacheportal::cache::{PageCache, PageCacheConfig};
use cacheportal::obs::SyncTimeline;
use cacheportal::web::{DbConnection, Status};
use cacheportal::{CachePortal, Served, SyncReport};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Every reported request metric is the median of this many per-slice values.
pub const SLICES: usize = 5;
/// Threads run this long before anything is recorded, so thread start-up
/// and the first sync tick do not land in the first slice.
pub const LEAD_IN: Duration = Duration::from_millis(500);
/// Latency limit behind `slow_frac`.
pub const SLOW_LIMIT_NS: u64 = 5_000_000;
/// A request dispatched later than this after its due time counts as late.
const LATE_NS: u64 = 1_000_000;
/// Root spans a traced thread retains.
const RING_SPANS: usize = 65_536;
/// Page indices a closed-loop reader walks through before wrapping.
const CLOSED_SEQUENCE: usize = 1 << 20;

/// The backend's update stream.
#[derive(Debug, Clone, Copy)]
pub struct Updates {
    /// Which statement shape.
    pub kind: UpdateKind,
    /// Updates target skus `0..skus`.
    pub skus: usize,
    /// Updates per sync tick.
    pub per_tick: u32,
    /// First update's offset from the tick, milliseconds.
    pub first_offset_ms: u64,
    /// Gap between a tick's updates, milliseconds.
    pub spacing_ms: u64,
}

/// One workload's frozen parameters.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name on the command line and in every report.
    pub name: &'static str,
    /// One-line reason the workload exists.
    pub why: &'static str,
    /// Page-cache capacity (origin and each edge).
    pub capacity: usize,
    /// Zipf exponent of page popularity.
    pub zipf_s: f64,
    /// `Some(n)`: only `/product` pages of skus `0..n` exist.
    pub products_only: Option<usize>,
    /// `Some(rate)`: open loop, readers share `rate` requests per second.
    /// `None`: closed loop.
    pub open_rate: Option<f64>,
    /// Mirrored edge caches on the bus.
    pub edges: usize,
    /// Journal to a durable directory.
    pub durable: bool,
    /// Sync-point tick; `None` runs no backend thread at all.
    pub sync_tick_ms: Option<u64>,
    /// Update stream, if any.
    pub updates: Option<Updates>,
}

/// The benchmark's workloads, in reporting order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "hot_read",
        why: "whole site cached, no updates: only cache, obs, web key building and core hit glue run",
        capacity: 8192,
        zipf_s: 1.0,
        products_only: None,
        open_rate: None,
        edges: 0,
        durable: false,
        sync_tick_ms: None,
        updates: None,
    },
    Workload {
        name: "cold_churn",
        why: "cache holds 24% of the site: servlet, SQL, put+evict, edge admission, mapper and registration run; no invalidation",
        capacity: 1024,
        zipf_s: 0.8,
        products_only: None,
        open_rate: None,
        edges: 2,
        durable: false,
        sync_tick_ms: Some(100),
        updates: None,
    },
    Workload {
        name: "update_mix",
        why: "fixed 2000 req/s while 50 indexed price updates/s commit: the request-commit-sync-eject-edge-persist loop",
        capacity: 8192,
        zipf_s: 1.0,
        products_only: None,
        open_rate: Some(2000.0),
        edges: 2,
        durable: true,
        sync_tick_ms: Some(100),
        updates: Some(Updates {
            kind: UpdateKind::Price,
            skus: site::SKUS,
            per_tick: 5,
            first_offset_ms: 10,
            spacing_ms: 20,
        }),
    },
    Workload {
        name: "join_poll",
        why: "fixed 1000 req/s over 1000 join pages, one unindexable stock update per tick: analysis and polling of every instance",
        capacity: 8192,
        zipf_s: 1.0,
        products_only: Some(1000),
        open_rate: Some(1000.0),
        edges: 0,
        durable: false,
        sync_tick_ms: Some(100),
        updates: Some(Updates {
            kind: UpdateKind::Stock,
            skus: 1000,
            per_tick: 1,
            first_offset_ms: 50,
            spacing_ms: 0,
        }),
    },
];

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Load threads: `min(nproc, 4)`, never more than the box has.
pub fn clients() -> usize {
    nproc().min(4)
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

impl Workload {
    /// Reader threads: every client for a workload without a backend,
    /// otherwise all but one (at least one).
    pub fn readers(&self, clients: usize) -> usize {
        if self.sync_tick_ms.is_some() {
            (clients - 1).max(1)
        } else {
            clients
        }
    }

    /// The pages this workload requests, most popular first.
    pub fn pages(&self, seed: u64) -> Vec<Page> {
        match self.products_only {
            Some(n) => site::product_pages(seed, n),
            None => site::universe(seed),
        }
    }
}

/// What the backend does at one point of its schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// Commit the `n`-th update statement.
    Update(usize),
    /// Run a sync point.
    Sync,
}

/// The backend's schedule over `total` (lead-in included): sync points at
/// every tick after the first, updates at fixed offsets inside each tick.
/// Offsets from the run's start, sorted.
pub fn backend_schedule(w: &Workload, total: Duration) -> Vec<(Duration, Event)> {
    let Some(tick_ms) = w.sync_tick_ms else {
        return Vec::new();
    };
    let mut events = Vec::new();
    let mut statement = 0;
    for tick in 0.. {
        let base = tick * tick_ms;
        if Duration::from_millis(base) >= total {
            break;
        }
        if tick > 0 {
            events.push((Duration::from_millis(base), Event::Sync));
        }
        if let Some(u) = &w.updates {
            for j in 0..u.per_tick as u64 {
                let due = Duration::from_millis(base + u.first_offset_ms + j * u.spacing_ms);
                if due < total {
                    events.push((due, Event::Update(statement)));
                    statement += 1;
                }
            }
        }
    }
    events.sort_by_key(|(due, _)| *due);
    events
}

/// A portal built, prefilled and synced for one workload.
pub struct Built {
    /// The program under test.
    pub portal: CachePortal,
    /// The mirrored edge caches registered on its bus.
    pub edges: Vec<Arc<PageCache>>,
    /// Seconds from an empty process to a warm, registered site.
    pub setup_s: f64,
    durable_dir: Option<PathBuf>,
}

impl Drop for Built {
    fn drop(&mut self) {
        if let Some(dir) = &self.durable_dir {
            // Best effort: a leftover journal only costs disk under target/.
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Assemble the portal exactly as a deployment would, without warming it.
pub fn assemble(
    w: &Workload,
    seed: u64,
    durable_dir: Option<&Path>,
) -> (CachePortal, Vec<Arc<PageCache>>) {
    let cache_config = PageCacheConfig {
        capacity: w.capacity,
        ..PageCacheConfig::default()
    };
    let mut builder = CachePortal::builder(site::build_database(seed))
        .cache_config(cache_config.clone())
        .maintain_index("inventory", "sku");
    if let Some(dir) = durable_dir {
        builder = builder.durable(dir);
    }
    let portal = builder.build().expect("portal assembles");
    for servlet in site::servlets() {
        portal.register_servlet(servlet);
    }
    let edges: Vec<Arc<PageCache>> = (0..w.edges)
        .map(|_| Arc::new(PageCache::new(cache_config.clone())))
        .collect();
    for edge in &edges {
        portal.register_edge_cache(edge.clone());
    }
    (portal, edges)
}

/// Set-up: build the database and the portal, request every page once on
/// `clients` threads (least popular first, so the hottest pages are the most
/// recently used when the cache is smaller than the site), then run one sync
/// point so every page is registered with the invalidator.
pub fn build(w: &Workload, seed: u64, pages: &[Page], clients: usize, scratch: &Path) -> Built {
    let durable_dir = w
        .durable
        .then(|| scratch.join(format!("durable_{}_{}", w.name, std::process::id())));
    if let Some(dir) = &durable_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    let started = Instant::now();
    let (portal, edges) = assemble(w, seed, durable_dir.as_deref());
    std::thread::scope(|scope| {
        for t in 0..clients {
            let portal = &portal;
            scope.spawn(move || {
                for page in pages.iter().rev().skip(t).step_by(clients) {
                    let out = portal.request(&page.request);
                    assert_eq!(out.response.status, Status::Ok, "prefill of {}", page.key);
                }
            });
        }
    });
    portal.sync_point().expect("first sync point");
    let setup_s = started.elapsed().as_secs_f64();
    Built {
        portal,
        edges,
        setup_s,
        durable_dir,
    }
}

/// Per-slice tallies of one reader.
#[derive(Default, Clone)]
pub struct SliceRec {
    /// Latency of cache hits.
    pub hit: Hist,
    /// Latency of generated pages.
    pub miss: Hist,
    /// Responses that were not 200.
    pub non200: u64,
    /// Time spent inside `request` calls, running or blocked. In a closed
    /// loop this is the latency sum; in an open loop it leaves out the wait
    /// in the generator's queue.
    pub service_ns: u64,
    /// Largest dispatch lag seen (open loop).
    pub max_lag_ns: u64,
}

/// Everything one reader thread measured.
pub struct ReaderRec {
    /// One entry per slice of the timed window.
    pub slices: Vec<SliceRec>,
    /// Dispatch lag behind the due time (open loop only).
    pub lag: Hist,
    /// Requests dispatched more than 1 ms late.
    pub late: u64,
    /// Root spans (traced runs).
    pub ring: Option<Ring>,
}

impl ReaderRec {
    fn new(trace: bool) -> ReaderRec {
        ReaderRec {
            slices: vec![SliceRec::default(); SLICES],
            lag: Hist::default(),
            late: 0,
            ring: trace.then(|| Ring::new(RING_SPANS)),
        }
    }
}

/// Sums over the sync points of the timed window, from the `SyncReport`s
/// the portal returned.
#[derive(Default, Debug, Clone)]
pub struct SyncSums {
    /// Sync points run.
    pub syncs: u64,
    /// Sync points that started more than one tick late.
    pub overrun: u64,
    /// Wall time inside `sync_point`, ns.
    pub wall_ns: u64,
    /// Mapper stage, µs.
    pub mapper_us: u64,
    /// QI/URL rows the mapper produced.
    pub mapped: u64,
    /// Query records the sniffer lost.
    pub lost: u64,
    /// Registration stage, µs.
    pub registration_us: u64,
    /// Instances registered.
    pub registered: u64,
    /// Delta stage, µs.
    pub delta_us: u64,
    /// Predicate-index probe, µs.
    pub index_us: u64,
    /// Analysis stage, µs.
    pub analysis_us: u64,
    /// Page collection stage, µs.
    pub collect_us: u64,
    /// Polling queries sent to the database.
    pub polls_issued: u64,
    /// Polls answered from a maintained index.
    pub polls_from_index: u64,
    /// Delta tuples analysed.
    pub tuples: u64,
    /// Pages removed from the origin cache.
    pub ejected: u64,
}

impl SyncSums {
    fn add(&mut self, r: &SyncReport, wall_ns: u64) {
        let inv = &r.invalidation;
        self.syncs += 1;
        self.wall_ns += wall_ns;
        self.mapper_us += r.mapper.elapsed_micros;
        self.mapped += r.mapper.mapped;
        self.lost += r.mapper.lost;
        self.registration_us += inv.registration_micros;
        self.registered += inv.registered;
        self.delta_us += inv.delta_micros;
        self.index_us += inv.index_probe_micros;
        self.analysis_us += inv.analysis_micros;
        self.collect_us += inv.collect_micros;
        self.polls_issued += inv.polls.issued;
        self.polls_from_index += inv.polls.from_index;
        self.tuples += inv.tuples_analyzed;
        self.ejected += r.ejected as u64;
    }
}

/// Everything the backend thread measured.
pub struct BackendRec {
    /// Wall time of each `sync_point()` call.
    pub sync: Hist,
    /// `update()` latency from the statement's due time.
    pub update: Hist,
    /// Commit return to the end of the sync point that consumed the update.
    pub eject_lag: Hist,
    /// Updates or sync points that returned an error.
    pub errors: u64,
    /// Report sums.
    pub sums: SyncSums,
    /// Root spans (traced runs).
    pub ring: Option<Ring>,
}

/// Wait for `due` and return the time it was noticed. A gap longer than
/// `sleep_above` is slept through except for its last 200 µs; the rest is
/// spun, so dispatch lands within a microsecond of the schedule.
fn wait_until(due: Instant, sleep_above: Duration) -> Instant {
    loop {
        let now = Instant::now();
        if now >= due {
            return now;
        }
        let left = due - now;
        if left > sleep_above {
            std::thread::sleep(left - Duration::from_micros(200));
        } else {
            // No pause hint: a long pause loop makes some hypervisors deschedule
            // the virtual CPU, which is the opposite of what the spin is for.
            std::hint::black_box(());
        }
    }
}

/// The backend sleeps between its events, which are 10 ms or more apart.
const BACKEND_SLEEP_ABOVE: Duration = Duration::from_micros(300);
/// A reader only sleeps through the pause before the run starts. Between
/// requests (at most a millisecond apart) it spins: a thread that sleeps
/// pays a wake-up and cold caches on its next request, and how much varies
/// from box to box, which is the load generator's noise, not the program's.
const READER_SLEEP_ABOVE: Duration = Duration::from_millis(5);

/// The run's clock: when threads start, when recording starts and ends.
#[derive(Clone, Copy)]
pub struct Clock {
    /// Threads start here (lead-in begins).
    pub begin: Instant,
    /// Recording starts here.
    pub record: Instant,
    /// Threads stop here.
    pub end: Instant,
}

impl Clock {
    fn new(window: Duration) -> Clock {
        // Far enough ahead that every thread is parked on it before it passes.
        let begin = Instant::now() + Duration::from_millis(50);
        Clock {
            begin,
            record: begin + LEAD_IN,
            end: begin + LEAD_IN + window,
        }
    }

    fn slice_of(&self, t: Instant) -> usize {
        let slice_ns = (self.end - self.record).as_nanos() / SLICES as u128;
        (((t - self.record).as_nanos() / slice_ns.max(1)) as usize).min(SLICES - 1)
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.begin).as_nanos() as u64
    }
}

/// What a request function reports back to the reader loop.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Reply {
    /// 200 from the cache.
    Hit,
    /// 200 generated.
    Miss,
    /// Anything but 200.
    Failed,
}

fn issue(portal: &CachePortal, page: &Page) -> Reply {
    let out = portal.request(&page.request);
    if out.response.status != Status::Ok {
        Reply::Failed
    } else if out.served == Served::CacheHit {
        Reply::Hit
    } else {
        Reply::Miss
    }
}

fn tally(rec: &mut ReaderRec, slice: usize, reply: Reply, latency_ns: u64, service_ns: u64) {
    let s = &mut rec.slices[slice];
    s.service_ns += service_ns;
    match reply {
        Reply::Hit => s.hit.record(latency_ns),
        Reply::Miss => s.miss.record(latency_ns),
        Reply::Failed => {
            s.miss.record(latency_ns);
            s.non200 += 1;
        }
    }
}

/// Closed loop: the next request goes out when the previous one returns.
/// A request is timed from the return of the one before it, so the loop's
/// own bookkeeping is inside the measurement and one clock read serves both.
fn closed_reader(
    mut call: impl FnMut(&Page) -> Reply,
    pages: &[Page],
    sequence: &[u32],
    clock: Clock,
    trace: bool,
) -> ReaderRec {
    let mut rec = ReaderRec::new(trace);
    let mut t0 = wait_until(clock.begin, READER_SLEEP_ABOVE);
    for i in 0u64.. {
        let page = &pages[sequence[i as usize % sequence.len()] as usize];
        let reply = call(page);
        let t1 = Instant::now();
        if t1 >= clock.end {
            break;
        }
        if t1 >= clock.record {
            let ns = (t1 - t0).as_nanos() as u64;
            tally(&mut rec, clock.slice_of(t1), reply, ns, ns);
            if let Some(ring) = &mut rec.ring {
                ring.push("live.request", clock.ns(t0), clock.ns(t1), i);
            }
        }
        t0 = t1;
    }
    rec
}

/// Open loop: request `k` of the run is due at `begin + k / rate` whatever
/// happened to the ones before it; reader `r` of `n` takes every `n`-th.
/// Latency runs from the due time, so a request stuck behind a stalled
/// predecessor is charged the wait.
fn open_reader(
    mut call: impl FnMut(&Page) -> Reply,
    pages: &[Page],
    sequence: &[u32],
    (reader, readers): (usize, usize),
    rate: f64,
    clock: Clock,
    trace: bool,
) -> ReaderRec {
    let mut rec = ReaderRec::new(trace);
    for k in (reader..sequence.len()).step_by(readers) {
        let due = clock.begin + Duration::from_secs_f64(k as f64 / rate);
        if due >= clock.end {
            break;
        }
        let t0 = wait_until(due, READER_SLEEP_ABOVE);
        let reply = call(&pages[sequence[k] as usize]);
        let t1 = Instant::now();
        if due >= clock.record {
            let slice = clock.slice_of(due);
            let lag = (t0 - due).as_nanos() as u64;
            rec.lag.record(lag);
            rec.late += (lag > LATE_NS) as u64;
            rec.slices[slice].max_lag_ns = rec.slices[slice].max_lag_ns.max(lag);
            tally(
                &mut rec,
                slice,
                reply,
                (t1 - due).as_nanos() as u64,
                (t1 - t0).as_nanos() as u64,
            );
            if let Some(ring) = &mut rec.ring {
                ring.push("live.request", clock.ns(t0), clock.ns(t1), k as u64);
            }
        }
    }
    rec
}

/// The backend: walk the schedule, committing updates and running sync
/// points at their due times, sleeping in between.
fn backend(
    portal: &CachePortal,
    schedule: &[(Duration, Event)],
    statements: &[String],
    tick: Duration,
    clock: Clock,
    trace: bool,
) -> BackendRec {
    let mut rec = BackendRec {
        sync: Hist::default(),
        update: Hist::default(),
        eject_lag: Hist::default(),
        errors: 0,
        sums: SyncSums::default(),
        ring: trace.then(|| Ring::new(RING_SPANS)),
    };
    // Commit-return times of updates no sync point has consumed yet.
    let mut unconsumed: Vec<Instant> = Vec::new();
    for (n, (offset, event)) in schedule.iter().enumerate() {
        let due = clock.begin + *offset;
        if due >= clock.end {
            break;
        }
        let t0 = wait_until(due, BACKEND_SLEEP_ABOVE);
        let recording = due >= clock.record;
        match event {
            Event::Update(i) => {
                let ok = portal.update(&statements[*i]).is_ok();
                let t1 = Instant::now();
                unconsumed.push(t1);
                if recording {
                    rec.errors += !ok as u64;
                    rec.update.record((t1 - due).as_nanos() as u64);
                    if let Some(ring) = &mut rec.ring {
                        ring.push("live.update", clock.ns(t0), clock.ns(t1), n as u64);
                    }
                }
            }
            Event::Sync => {
                let report = portal.sync_point();
                let t1 = Instant::now();
                let commits = std::mem::take(&mut unconsumed);
                if recording {
                    let wall = (t1 - t0).as_nanos() as u64;
                    rec.sync.record(wall);
                    for commit in commits {
                        rec.eject_lag.record((t1 - commit).as_nanos() as u64);
                    }
                    match &report {
                        Ok(r) => rec.sums.add(r, wall),
                        Err(_) => rec.errors += 1,
                    }
                    rec.sums.overrun += (t0 - due > tick) as u64;
                    if let Some(ring) = &mut rec.ring {
                        ring.push("live.sync_point", clock.ns(t0), clock.ns(t1), n as u64);
                    }
                }
            }
        }
    }
    rec
}

/// Counters read off the program's public statistics before and after the
/// timed run; every field is the difference.
#[derive(Default, Debug, Clone)]
pub struct Counters {
    /// `PageCache::stats` of the origin cache.
    pub cache_hits: u64,
    /// Lookups that found nothing.
    pub cache_misses: u64,
    /// Capacity evictions.
    pub cache_evictions: u64,
    /// Pages removed by eject messages.
    pub cache_invalidations: u64,
    /// SELECTs the database executed.
    pub db_selects: u64,
    /// Admissions declined by the sync race guard.
    pub declined_race: u64,
    /// Admissions declined by policy.
    pub declined_policy: u64,
    /// Acked bus deliveries.
    pub bus_deliveries_ok: u64,
    /// Failed bus delivery attempts.
    pub bus_delivery_failures: u64,
    /// Largest per-edge lag after the run.
    pub bus_edge_lag_max: u64,
    /// WAL fsync batches.
    pub wal_fsyncs: u64,
    /// WAL bytes written.
    pub wal_bytes: u64,
    /// Snapshot checkpoints taken.
    pub checkpoints: u64,
}

fn read_counters(portal: &CachePortal) -> Counters {
    let cache = portal.page_cache().stats();
    let db = portal.db().read().stats();
    let bus = portal.bus().stats();
    let m = &portal.obs().metrics;
    Counters {
        cache_hits: cache.hits,
        cache_misses: cache.misses,
        cache_evictions: cache.evictions,
        cache_invalidations: cache.invalidations,
        db_selects: db.selects,
        declined_race: m.counter_value("cache.admission.declined_race"),
        declined_policy: m.counter_value("cache.admission.declined_policy"),
        bus_deliveries_ok: bus.deliveries_ok,
        bus_delivery_failures: bus.delivery_failures,
        bus_edge_lag_max: portal
            .bus()
            .edge_rows()
            .iter()
            .map(|r| r.lag)
            .max()
            .unwrap_or(0),
        wal_fsyncs: m.counter_value("durable.wal.syncs"),
        wal_bytes: m.counter_value("durable.wal.bytes"),
        checkpoints: m.counter_value("durable.checkpoints"),
    }
}

impl Counters {
    fn since(&self, before: &Counters) -> Counters {
        Counters {
            cache_hits: self.cache_hits - before.cache_hits,
            cache_misses: self.cache_misses - before.cache_misses,
            cache_evictions: self.cache_evictions - before.cache_evictions,
            cache_invalidations: self.cache_invalidations - before.cache_invalidations,
            db_selects: self.db_selects - before.db_selects,
            declined_race: self.declined_race - before.declined_race,
            declined_policy: self.declined_policy - before.declined_policy,
            bus_deliveries_ok: self.bus_deliveries_ok - before.bus_deliveries_ok,
            bus_delivery_failures: self.bus_delivery_failures - before.bus_delivery_failures,
            bus_edge_lag_max: self.bus_edge_lag_max,
            wal_fsyncs: self.wal_fsyncs - before.wal_fsyncs,
            wal_bytes: self.wal_bytes - before.wal_bytes,
            checkpoints: self.checkpoints - before.checkpoints,
        }
    }
}

/// Outcome of the correctness gate.
#[derive(Default, Debug, Clone)]
pub struct Check {
    /// Cached pages (origin and edges) compared against a regeneration.
    pub pages_checked: u64,
    /// Pages whose cached body differs from the regenerated one, plus a
    /// failed final sync point.
    pub violations: u64,
}

/// One live run's raw measurements.
pub struct Run {
    /// Timed window, seconds.
    pub window_s: f64,
    /// Reader threads used.
    pub readers: usize,
    /// One record per reader.
    pub reader_recs: Vec<ReaderRec>,
    /// The backend's record, when the workload has one.
    pub backend: Option<BackendRec>,
    /// Program counters over lead-in + window.
    pub counters: Counters,
    /// The portal's own stage timeline of the window's sync points.
    pub timeline: Vec<SyncTimeline>,
    /// Query instances registered with the invalidator when the run ended.
    pub instances_registered: u64,
    /// The correctness gate's findings.
    pub check: Check,
}

/// Options of one live run.
#[derive(Clone, Copy)]
pub struct RunOptions {
    /// Timed window.
    pub window: Duration,
    /// Record root spans.
    pub trace: bool,
    /// Start the backend thread before the readers instead of after.
    pub swap_start: bool,
    /// Load threads.
    pub clients: usize,
}

/// Drive `built` with workload `w` for the window, then run the gate.
pub fn run(w: &'static Workload, seed: u64, built: &Built, pages: &[Page], opt: RunOptions) -> Run {
    let readers = w.readers(opt.clients);
    let total = LEAD_IN + opt.window;
    let zipf = Zipf::new(pages.len(), w.zipf_s);
    // Open loop: one request stream for the whole run, dealt round-robin to
    // the readers, so the offered load does not depend on the reader count.
    // Closed loop: one stream per reader.
    let sequences: Vec<Vec<u32>> = match w.open_rate {
        Some(rate) => {
            let count = (rate * total.as_secs_f64()).ceil() as usize;
            vec![zipf.sequence(&mut Rng::new(seed, 10), count)]
        }
        None => (0..readers)
            .map(|r| zipf.sequence(&mut Rng::new(seed, 10 + r as u64), CLOSED_SEQUENCE))
            .collect(),
    };
    let schedule = backend_schedule(w, total);
    let statements = match &w.updates {
        Some(u) => {
            let count = schedule
                .iter()
                .filter(|(_, e)| matches!(e, Event::Update(_)))
                .count();
            site::update_statements(seed, u.kind, u.skus, count)
        }
        None => Vec::new(),
    };
    let portal = &built.portal;
    let before = read_counters(portal);
    let clock = Clock::new(opt.window);

    let (reader_recs, backend_rec) = std::thread::scope(|scope| {
        let spawn_backend = || {
            w.sync_tick_ms.map(|tick_ms| {
                let (schedule, statements) = (&schedule, &statements);
                scope.spawn(move || {
                    backend(
                        portal,
                        schedule,
                        statements,
                        Duration::from_millis(tick_ms),
                        clock,
                        opt.trace,
                    )
                })
            })
        };
        let spawn_readers = || {
            (0..readers)
                .map(|r| {
                    let sequences = &sequences;
                    scope.spawn(move || match w.open_rate {
                        Some(rate) => open_reader(
                            |p| issue(portal, p),
                            pages,
                            &sequences[0],
                            (r, readers),
                            rate,
                            clock,
                            opt.trace,
                        ),
                        None => closed_reader(
                            |p| issue(portal, p),
                            pages,
                            &sequences[r],
                            clock,
                            opt.trace,
                        ),
                    })
                })
                .collect::<Vec<_>>()
        };
        let (reader_handles, backend_handle) = if opt.swap_start {
            let b = spawn_backend();
            (spawn_readers(), b)
        } else {
            let r = spawn_readers();
            (r, spawn_backend())
        };
        let recs: Vec<ReaderRec> = reader_handles
            .into_iter()
            .map(|h| h.join().expect("reader thread"))
            .collect();
        (
            recs,
            backend_handle.map(|h| h.join().expect("backend thread")),
        )
    });

    let counters = read_counters(portal).since(&before);
    let syncs = backend_rec.as_ref().map_or(0, |b| b.sums.syncs as usize);
    let timeline = portal.obs().timeline.recent(syncs);
    let instances_registered =
        portal.with_invalidator(|inv| inv.registry().total_instances()) as u64;
    let check = gate(built, pages);
    Run {
        window_s: opt.window.as_secs_f64(),
        readers,
        reader_recs,
        backend: backend_rec,
        counters,
        timeline,
        instances_registered,
        check,
    }
}

/// The correctness gate: one final sync point, then every page cached at
/// the origin must equal a fresh regeneration, and every page an edge holds
/// must be byte-equal to the origin's copy (or to a regeneration when the
/// origin no longer holds it). This is `CachePortal::stale_pages`' oracle
/// with one regeneration shared between the origin and its edges.
pub fn gate(built: &Built, pages: &[Page]) -> Check {
    let mut check = Check::default();
    let portal = &built.portal;
    if portal.sync_point().is_err() {
        check.violations += 1;
    }
    let by_key: HashMap<&str, &Page> = pages.iter().map(|p| (p.key.as_str(), p)).collect();
    let servlets = site::servlets();
    let regenerate = |page: &Page| -> Option<String> {
        let mut conn = DbConnection::new(portal.db().clone());
        servlets[page.servlet].handle(&page.request, &mut conn).ok()
    };
    let origin = portal.page_cache();
    let mut fresh: HashMap<String, Option<String>> = HashMap::new();
    for key in origin.keys() {
        check.pages_checked += 1;
        let body = by_key.get(key.as_str()).and_then(|p| regenerate(p));
        if body.is_none() || origin.get(&key, 0) != body {
            check.violations += 1;
        }
        fresh.insert(key.to_string(), body);
    }
    for edge in &built.edges {
        for key in edge.keys() {
            check.pages_checked += 1;
            let expected = fresh
                .entry(key.to_string())
                .or_insert_with(|| by_key.get(key.as_str()).and_then(|p| regenerate(p)));
            if expected.is_none() || edge.get(&key, 0) != *expected {
                check.violations += 1;
            }
        }
    }
    check
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clock(window_ms: u64) -> Clock {
        let begin = Instant::now() + Duration::from_millis(5);
        Clock {
            begin,
            record: begin,
            end: begin + Duration::from_millis(window_ms),
        }
    }

    #[test]
    fn backend_schedule_follows_the_frozen_offsets() {
        let w = workload("update_mix").unwrap();
        let events = backend_schedule(w, Duration::from_secs(1));
        assert_eq!(events, backend_schedule(w, Duration::from_secs(1)));
        assert!(events.windows(2).all(|p| p[0].0 <= p[1].0));
        let ms = |d: &Duration| d.as_millis() as u64;
        // 50 updates/s, 10 ms after each tick and 20 ms apart; a sync point
        // at every tick but the run's first instant.
        let updates: Vec<u64> = events
            .iter()
            .filter(|e| matches!(e.1, Event::Update(_)))
            .map(|e| ms(&e.0))
            .collect();
        assert_eq!(updates.len(), 50);
        assert_eq!(updates[..6], [10, 30, 50, 70, 90, 110]);
        let syncs: Vec<u64> = events
            .iter()
            .filter(|e| e.1 == Event::Sync)
            .map(|e| ms(&e.0))
            .collect();
        assert_eq!(syncs, (1..10).map(|t| t * 100).collect::<Vec<_>>());
        // Statements are numbered in commit order.
        let numbered: Vec<usize> = events
            .iter()
            .filter_map(|e| {
                if let Event::Update(i) = e.1 {
                    Some(i)
                } else {
                    None
                }
            })
            .collect();
        assert_eq!(numbered, (0..50).collect::<Vec<_>>());

        let poll = backend_schedule(workload("join_poll").unwrap(), Duration::from_secs(1));
        let first_update = poll
            .iter()
            .find(|e| matches!(e.1, Event::Update(_)))
            .unwrap();
        assert_eq!(ms(&first_update.0), 50);
        assert_eq!(
            poll.iter()
                .filter(|e| matches!(e.1, Event::Update(_)))
                .count(),
            10
        );
        assert!(backend_schedule(workload("hot_read").unwrap(), Duration::from_secs(1)).is_empty());
    }

    #[test]
    fn open_loop_charges_a_stall_to_the_requests_queued_behind_it() {
        let pages = site::product_pages(1, 4);
        let sequence = vec![0u32; 300];
        let mut calls = 0;
        // 1000 requests/s for 300 ms; the 20th call blocks for 50 ms, as a
        // miss parked behind a sync point would.
        let rec = open_reader(
            |_| {
                calls += 1;
                if calls == 20 {
                    std::thread::sleep(Duration::from_millis(50));
                }
                Reply::Hit
            },
            &pages,
            &sequence,
            (0, 1),
            1000.0,
            clock(300),
            false,
        );
        let mut all = Hist::default();
        for s in &rec.slices {
            all.merge(&s.hit);
        }
        // Nothing is dropped: every scheduled request is issued and timed.
        assert_eq!(all.count(), 300);
        // The stalled call and the ~49 requests that came due during it are
        // timed from their due times, so they are slow and counted late;
        // timed from dispatch, only one request would have been slow.
        // (Lower limits only: other tests share the cores and add stalls.)
        let slow = all.count_above(SLOW_LIMIT_NS);
        assert!(slow >= 40, "{slow} requests above 5 ms");
        assert!(rec.late >= 35, "{} requests late", rec.late);
        assert!(all.quantile(1.0).unwrap() >= 50e6);
        assert!(
            rec.lag.quantile(1.0).unwrap() >= 40e6,
            "the first queued request waited the whole stall"
        );
        // Service time is what the calls took, not the wait in the queue.
        let service: u64 = rec.slices.iter().map(|s| s.service_ns).sum();
        assert!(
            (50_000_000..250_000_000).contains(&service),
            "service {service} ns"
        );
    }

    #[test]
    fn closed_loop_issues_back_to_back_until_the_window_ends() {
        let pages = site::product_pages(1, 4);
        let mut calls = 0u64;
        let rec = closed_reader(
            |_| {
                calls += 1;
                if calls.is_multiple_of(2) {
                    Reply::Hit
                } else {
                    Reply::Miss
                }
            },
            &pages,
            &[0, 1, 2, 3],
            clock(50),
            true,
        );
        let hits: u64 = rec.slices.iter().map(|s| s.hit.count()).sum();
        let misses: u64 = rec.slices.iter().map(|s| s.miss.count()).sum();
        assert!(hits > 100 && hits.abs_diff(misses) <= 1);
        // A closed loop is always inside a call; the time in calls cannot
        // exceed the window.
        let service: u64 = rec.slices.iter().map(|s| s.service_ns).sum();
        assert!(
            service > 0 && service <= 50_000_000,
            "in calls for {service} ns of 50 ms"
        );
        let ring = rec.ring.expect("traced");
        assert_eq!(
            ring.into_spans().len() as u64,
            (hits + misses).min(RING_SPANS as u64)
        );
    }
}
