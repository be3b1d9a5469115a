//! Per-layer measurement of a traced run.
//!
//! Three sources, all in the benchmark's own files:
//!
//! * the live run's reports and counters (see `report::live_layers`);
//! * a single-threaded **shadow replay**: the layers' public constructors
//!   wired together exactly as `CachePortalBuilder::assemble` wires them, the
//!   portal's request and sync glue re-enacted around them, one span per call
//!   into a layer, replaying inputs sampled from the workload;
//! * batched loops over the same inputs for layers that take nanoseconds,
//!   where a clock read per call would be most of the measurement.
//!
//! Running the same inputs through real portals (observability on and off)
//! gives the end-to-end figure the layer times must add up to; what is left
//! over is reported as `core.budget_gap_frac.*`.

use crate::hist::{median, Hist};
use crate::load::{self, Built, Run, Workload};
use crate::report::{self, Metrics};
use crate::site::{self, Page, Rng, UpdateKind, Zipf, SERVLETS};
use crate::trace::{self, Recorder, Ring, Span};
use cacheportal::bus::socket::{EdgeServer, SocketTransport};
use cacheportal::bus::{BusConfig, EdgeEndpoint, InvalidationBus, MemoryTransport};
use cacheportal::cache::{PageCache, PageCacheConfig};
use cacheportal::db::{Database, DbResult, ExecOutcome, FaultPlan, QueryResult, Value};
use cacheportal::durability::{CursorRecord, Durability};
use cacheportal::invalidator::{Invalidator, InvalidatorConfig};
use cacheportal::obs::{Counter, Obs, SloKind};
use cacheportal::sniffer::{LoggedConnection, Mapper, QiUrlMap, QueryLog, RequestLog};
use cacheportal::web::{
    shared, AppServer, AppServerConfig, CacheControl, Clock, Connection, ConnectionFactory,
    ConnectionPool, DbConnection, HttpRequest, HttpResponse, ManualClock, PageKey, SharedDb,
    Status, WebServer,
};
use cacheportal::CachePortal;
use std::collections::{HashMap, HashSet};
use std::hint::black_box;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Inputs sampled from the workload for the replay.
const SAMPLE: usize = 2000;
/// Repetitions of a batched loop; the fastest is reported.
const REPS: usize = 9;
/// Passes each thread of the shared-cache probe makes (about 0.1 s, so the
/// threads overlap for nearly all of it).
const MT_PASSES: usize = 300;
/// Rounds of the cold-cache miss replay through each system.
const MISS_ROUNDS: usize = 3;
/// Sync rounds of the update replay.
const SYNC_ROUNDS: usize = 20;
/// Update statements timed per kind for `db.update_us.*`.
const UPDATE_PROBES: usize = 200;
/// Rounds and batch size of the loopback socket probe.
const SOCKET_ROUNDS: usize = 50;
const SOCKET_BATCH: usize = 16;

type SharedRecorder = Arc<Mutex<Recorder>>;

fn enter(rec: &SharedRecorder, name: &'static str) {
    rec.lock().expect("recorder lock").enter(name);
}

fn exit(rec: &SharedRecorder) {
    rec.lock().expect("recorder lock").exit();
}

/// Connection wrapper recording one span per statement. Two of them
/// sandwich the sniffer's `LoggedConnection`, so the outer span's self time
/// is the query logger and the inner span is the database alone.
struct SpanConnection<C> {
    inner: C,
    name: &'static str,
    rec: SharedRecorder,
}

impl<C: Connection> Connection for SpanConnection<C> {
    fn query(&mut self, sql: &str, params: &[Value]) -> DbResult<QueryResult> {
        enter(&self.rec, self.name);
        let out = self.inner.query(sql, params);
        exit(&self.rec);
        out
    }

    fn execute(&mut self, sql: &str, params: &[Value]) -> DbResult<ExecOutcome> {
        enter(&self.rec, self.name);
        let out = self.inner.execute(sql, params);
        exit(&self.rec);
        out
    }
}

/// The portal's parts, assembled from their public constructors the way
/// `CachePortalBuilder::assemble` does, with the admission ledgers the
/// portal keeps beside them.
struct Shadow {
    db: SharedDb,
    clock: Arc<ManualClock>,
    app: Arc<AppServer>,
    web: WebServer,
    cache: PageCache,
    map: Arc<QiUrlMap>,
    mapper: Mapper,
    invalidator: Mutex<Invalidator>,
    bus: InvalidationBus,
    durability: Option<Durability>,
    origins: Mutex<HashMap<PageKey, HttpRequest>>,
    admitted: Mutex<HashSet<PageKey>>,
    pending_origins: Mutex<Vec<(PageKey, HttpRequest)>>,
    sync_seq: u64,
    /// Observability, switched off: the portal's calls into it are made all
    /// the same, so the glue includes building their arguments.
    obs: Arc<Obs>,
    /// The request counters the portal bumps on every call.
    requests_total: Arc<Counter>,
    requests_hit: Arc<Counter>,
    rec: SharedRecorder,
    /// Record spans (off inside batched loops).
    spans: bool,
}

/// What one shadow sync point did, for the precision audit.
struct ShadowSync {
    ejected_resident: u64,
    ejected_changed: u64,
}

impl Shadow {
    fn new(w: &Workload, db: Database, durable_dir: Option<&Path>) -> Shadow {
        let db = shared(db);
        let rec: SharedRecorder = Arc::new(Mutex::new(Recorder::new()));
        let mut invalidator = Invalidator::new(InvalidatorConfig::default());
        invalidator.start_from(db.read().high_water());
        invalidator
            .maintain_index(&db.read(), "inventory", "sku")
            .expect("inventory.sku exists");
        let clock = ManualClock::new();
        let query_log = QueryLog::new();
        let factory: ConnectionFactory = {
            let (db, log, rec) = (db.clone(), query_log.clone(), rec.clone());
            let clock: Arc<dyn Clock> = clock.clone();
            Arc::new(move || {
                let engine = SpanConnection {
                    inner: DbConnection::new(db.clone()),
                    name: "db.query",
                    rec: rec.clone(),
                };
                Box::new(SpanConnection {
                    inner: LoggedConnection::new(engine, log.clone(), clock.clone()),
                    name: "sniffer.query_log",
                    rec: rec.clone(),
                })
            })
        };
        let app = Arc::new(AppServer::new(
            ConnectionPool::new(factory, 8),
            clock.clone(),
            AppServerConfig {
                rewrite_cache_control: true,
                cache_owner: "cacheportal".to_string(),
            },
        ));
        let request_log = Arc::new(RequestLog::new());
        app.set_observer(request_log.clone());
        for servlet in site::servlets() {
            app.register(servlet);
        }
        let map = Arc::new(QiUrlMap::new());
        let cache_config = PageCacheConfig {
            capacity: w.capacity,
            ..PageCacheConfig::default()
        };
        // The portal's cache republishes its statistics into the metrics
        // registry on every operation; so does this one.
        let obs = Obs::shared();
        set_obs(&obs, false);
        let cache = PageCache::new(cache_config.clone());
        cache.wire_metrics(&obs.metrics, "cache.page");
        let bus = InvalidationBus::new(
            BusConfig::default(),
            Arc::new(MemoryTransport::new(FaultPlan::default())),
            FaultPlan::default(),
        );
        for i in 0..w.edges {
            bus.register_edge(
                &format!("edge-{i}"),
                Arc::new(PageCache::new(cache_config.clone())),
                0,
            );
        }
        Shadow {
            web: WebServer::new(app.clone()),
            app,
            cache,
            requests_total: obs.metrics.counter("web.requests.total"),
            requests_hit: obs.metrics.counter("web.requests.cache_hit"),
            obs,
            mapper: Mapper::new(request_log, query_log, map.clone()),
            map,
            invalidator: Mutex::new(invalidator),
            bus,
            durability: durable_dir.map(|d| Durability::open(d, 8).expect("shadow journal opens")),
            origins: Mutex::new(HashMap::new()),
            admitted: Mutex::new(HashSet::new()),
            pending_origins: Mutex::new(Vec::new()),
            sync_seq: 0,
            db,
            clock,
            rec,
            spans: true,
        }
    }

    fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.spans {
            return f();
        }
        enter(&self.rec, name);
        let out = f();
        exit(&self.rec);
        out
    }

    /// `CachePortal::request` re-enacted: the same steps in the same order,
    /// each layer call in its own span, the observability calls made against
    /// a switched-off `Obs` (their arguments are still built, as in the
    /// portal). What the root span does not hand to a child is the glue.
    fn request(&self, req: &HttpRequest) -> HttpResponse {
        if self.spans {
            self.rec.lock().expect("recorder lock").next_request();
        }
        self.span("core.request", || {
            let now = self.clock.tick();
            self.requests_total.inc();
            let key = self.span("web.key", || {
                self.app
                    .servlet_for(&req.path)
                    .map(|s| PageKey::for_request(req, s.spec()))
            });
            if let Some(key) = &key {
                if let Some(body) = self.span("cache.get", || self.cache.get(key, now)) {
                    self.requests_hit.inc();
                    let ctx = self
                        .obs
                        .tracer
                        .start_trace("web", "request", now, req.path.clone());
                    self.obs
                        .tracer
                        .child_event(ctx, "cache", "hit", now, key.as_str());
                    self.obs.scorecards.note_request(key.as_str(), true, None);
                    self.obs.slo.observe_bool(SloKind::HitRate, now, true);
                    black_box(key.clone());
                    return HttpResponse::ok(
                        body,
                        CacheControl::PrivateOwner("cacheportal".into()),
                    );
                }
            }
            let gen_start_lsn = self.db.read().high_water();
            let ctx = self
                .obs
                .tracer
                .start_trace("web", "request", now, req.path.clone());
            let response = self.span("web.handle", || self.web.handle(req));
            self.obs
                .tracer
                .child_span(ctx, "web", "request.generate", now, req.path.clone(), 0);
            let Some(key) = key else { return response };
            self.obs.slo.observe_bool(SloKind::HitRate, now, false);
            if response.status != Status::Ok || !response.cache_control.cacheable_by("cacheportal")
            {
                return response;
            }
            {
                // `page_is_cacheable`: no type of this site is ever banned.
                let inv = self.invalidator.lock().expect("invalidator lock");
                let reg = inv.registry();
                if reg.types().iter().any(|ty| {
                    !ty.cacheable && reg.instances_of(ty.id).any(|(_, d)| d.pages.contains(&key))
                }) {
                    return response;
                }
            }
            let inv = self.invalidator.lock().expect("invalidator lock");
            if inv.consumed_lsn() <= gen_start_lsn {
                let now = self.clock.tick();
                self.span("cache.put", || {
                    self.cache.put(key.clone(), response.body.clone(), now)
                });
                self.origins
                    .lock()
                    .expect("origins lock")
                    .insert(key.clone(), req.clone());
                if self.durability.is_some() {
                    self.pending_origins
                        .lock()
                        .expect("pending lock")
                        .push((key.clone(), req.clone()));
                }
                self.admitted
                    .lock()
                    .expect("admitted lock")
                    .insert(key.clone());
                self.obs
                    .tracer
                    .child_event(ctx, "cache", "admit", now, key.as_str());
                self.span("bus.admit", || {
                    self.bus.admit_page(&key, &response.body, now)
                });
            }
            drop(inv);
            response
        })
    }

    /// `CachePortal::sync_point` without the observability calls. Before
    /// ejecting, every resident page named by the invalidator is regenerated
    /// to see whether it really changed (the precision audit); that audit is
    /// outside every span.
    fn sync_point(&mut self) -> ShadowSync {
        self.rec.lock().expect("recorder lock").next_request();
        enter(&self.rec, "core.sync_point");
        let mut invalidator = self.invalidator.lock().expect("invalidator lock");
        let sync_ts = self.clock.now_micros();
        enter(&self.rec, "sniffer.mapper");
        self.mapper.run_once();
        exit(&self.rec);
        self.admitted.lock().expect("admitted lock").clear();
        let (report, consumed) = {
            let mut db = self.db.write();
            enter(&self.rec, "invalidator.sync");
            let report = invalidator
                .run_sync_point(&db, &self.map)
                .expect("shadow sync point");
            exit(&self.rec);
            let consumed = invalidator.consumed_lsn();
            if self.durability.is_none() {
                db.update_log_mut().truncate(consumed);
            }
            (report, consumed)
        };
        exit(&self.rec); // the audit below is not part of a sync point
        let servlets = site::servlets();
        let mut audit = ShadowSync {
            ejected_resident: 0,
            ejected_changed: 0,
        };
        {
            let origins = self.origins.lock().expect("origins lock");
            for key in &report.pages {
                let (Some(cached), Some(req)) = (self.cache.get(key, 0), origins.get(key)) else {
                    continue;
                };
                let mut conn = DbConnection::new(self.db.clone());
                let fresh = servlets[site::servlet_index(&req.path)]
                    .handle(req, &mut conn)
                    .ok();
                audit.ejected_resident += 1;
                audit.ejected_changed += (fresh.as_deref() != Some(cached.as_str())) as u64;
            }
        }
        enter(&self.rec, "core.sync_point.tail");
        let seq = self.sync_seq;
        self.sync_seq += 1;
        enter(&self.rec, "cache.eject");
        self.cache.invalidate_collect(report.pages.iter());
        exit(&self.rec);
        let mut pages: Vec<PageKey> = report.pages.iter().cloned().collect();
        pages.sort();
        enter(&self.rec, "bus.deliver");
        self.bus.publish(seq, sync_ts, pages);
        self.bus.deliver_all(self.clock.now_micros());
        exit(&self.rec);
        {
            let mut origins = self.origins.lock().expect("origins lock");
            for p in &report.pages {
                origins.remove(p);
            }
        }
        if let Some(durability) = &mut self.durability {
            enter(&self.rec, "durable.persist");
            let new_origins =
                std::mem::take(&mut *self.pending_origins.lock().expect("pending lock"));
            let (bus_seq, edge_marks) = self.bus.durable_marks();
            let cursor = CursorRecord {
                consumed,
                sync_seq: seq + 1,
                watermarks: Vec::new(),
                bus_seq,
                edge_marks,
            };
            let origins = self.origins.lock().expect("origins lock");
            let outcome = durability.persist_sync(&self.map, &new_origins, &origins, cursor);
            drop(origins);
            if outcome.errors == 0 {
                self.db.write().update_log_mut().truncate(consumed);
            }
            exit(&self.rec);
        }
        drop(invalidator);
        exit(&self.rec);
        audit
    }
}

/// Run every body over the whole input, taking turns, [`REPS`] times each;
/// per body, the nanoseconds per item of its fastest pass. One clock read per
/// pass, so a nanosecond-scale call is not buried under its own timing;
/// taking turns, so bodies that are compared with each other see the same
/// machine; the fastest pass, because on a shared box a pass is only ever
/// slowed down by its neighbours, never sped up.
fn batched_each<T>(items: &[T], bodies: &mut [&mut dyn FnMut(&T)]) -> Vec<f64> {
    let mut fastest = vec![f64::INFINITY; bodies.len()];
    for _ in 0..REPS {
        for (body, best) in bodies.iter_mut().zip(&mut fastest) {
            let t = Instant::now();
            for item in items {
                body(item);
            }
            *best = best.min(t.elapsed().as_nanos() as f64 / items.len().max(1) as f64);
        }
    }
    fastest
}

fn batched<T>(items: &[T], mut body: impl FnMut(&T)) -> f64 {
    batched_each(items, &mut [&mut body])[0]
}

fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

fn set_obs(obs: &Obs, on: bool) {
    obs.tracer.set_enabled(on);
    obs.provenance.set_enabled(on);
    obs.scorecards.set_enabled(on);
    obs.slo.set_enabled(on);
}

/// Requests per block of the tracing A/B loop.
const OVERHEAD_BLOCK: u64 = 2_000;
/// Blocks of the loop, alternately traced and untraced.
const OVERHEAD_BLOCKS: u64 = 400;

/// Hit latency (p50) in a hot closed loop on the live portal with the
/// bench's span recording on and off: the cost tracing adds to what it
/// measures, as a share of the untraced figure. Blocks of 2000 requests
/// alternate between the two arms, so both see the same machine and the
/// same portal state.
fn trace_overhead(portal: &CachePortal, pages: &[Page]) -> Option<f64> {
    let hot: Vec<&Page> = pages.iter().take(64).collect();
    for p in &hot {
        // Re-admit anything the run's last sync point ejected.
        black_box(portal.request(&p.request));
    }
    let mut ring = Ring::new(65_536);
    let (mut on, mut off) = (Hist::default(), Hist::default());
    let epoch = Instant::now();
    let mut t0 = epoch;
    for i in 0..OVERHEAD_BLOCK * OVERHEAD_BLOCKS {
        let traced = (i / OVERHEAD_BLOCK).is_multiple_of(2);
        black_box(portal.request(&hot[i as usize % hot.len()].request));
        let t1 = Instant::now();
        if traced {
            ring.push(
                "live.request",
                (t0 - epoch).as_nanos() as u64,
                (t1 - epoch).as_nanos() as u64,
                i,
            );
            on.record((t1 - t0).as_nanos() as u64);
        } else {
            off.record((t1 - t0).as_nanos() as u64);
        }
        t0 = t1;
    }
    let (on, off) = (on.quantile(0.5)?, off.quantile(0.5)?);
    Some((on - off) / off)
}

/// `InvalidationBus` over `SocketTransport` to two `EdgeServer`s on
/// loopback: microseconds per publish + delivery round of a 16-key batch.
/// The portal itself only speaks `MemoryTransport`; this is what the same
/// round costs over the real wire.
fn socket_deliver_us() -> Option<f64> {
    let caches: Vec<Arc<PageCache>> = (0..2)
        .map(|_| Arc::new(PageCache::new(PageCacheConfig::default())))
        .collect();
    let endpoints: Vec<Arc<EdgeEndpoint>> = caches
        .iter()
        .enumerate()
        .map(|(i, c)| Arc::new(EdgeEndpoint::new(format!("edge-{i}"), c.clone(), 0)))
        .collect();
    let servers: Vec<EdgeServer> = endpoints
        .iter()
        .map(|e| EdgeServer::serve("127.0.0.1:0", e.clone()))
        .collect::<Result<_, _>>()
        .ok()?;
    let transport = Arc::new(SocketTransport::new(
        servers.iter().map(EdgeServer::addr).collect(),
    ));
    let bus = InvalidationBus::new(BusConfig::default(), transport, FaultPlan::default());
    for i in 0..endpoints.len() {
        bus.register_remote_edge(&format!("edge-{i}"), 0);
    }
    let mut rounds = Vec::new();
    let mut delivered = 0;
    for round in 0..SOCKET_ROUNDS as u64 {
        let pages: Vec<PageKey> = (0..SOCKET_BATCH)
            .map(|k| PageKey::raw(format!("shop/product?g:sku={round}-{k}")))
            .collect();
        let t = Instant::now();
        bus.publish(round, round, pages);
        delivered += bus.deliver_all(round).deliveries_ok;
        rounds.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    for s in servers {
        s.shutdown();
    }
    (delivered == 2 * SOCKET_ROUNDS as u64).then(|| median(rounds))
}

/// Mean microseconds per `UPDATE` of each kind against `db`.
fn update_probe_us(db: &SharedDb, seed: u64, kind: UpdateKind) -> Option<f64> {
    let statements = site::update_statements(seed ^ 0x5eed, kind, site::SKUS, UPDATE_PROBES);
    let t = Instant::now();
    for sql in &statements {
        db.write().execute(sql).ok()?;
    }
    Some(t.elapsed().as_nanos() as f64 / 1e3 / UPDATE_PROBES as f64)
}

/// Mean duration (µs) of the spans named `name` whose request served
/// servlet `servlet` (`None`: any).
fn mean_span_us(
    spans: &[Span],
    by_request: &HashMap<u64, usize>,
    name: &str,
    servlet: Option<usize>,
) -> Option<f64> {
    let picked: Vec<f64> = spans
        .iter()
        .filter(|s| {
            s.name == name && servlet.is_none_or(|v| by_request.get(&s.request) == Some(&v))
        })
        .map(|s| s.duration_ns() as f64 / 1e3)
        .collect();
    mean(&picked)
}

/// Everything a traced run adds to the live run's own numbers. Takes the
/// rings out of `run` and writes the span file.
pub fn probe(
    w: &'static Workload,
    seed: u64,
    built: &Built,
    pages: &[Page],
    run: &mut Run,
    clients: usize,
    scratch: &Path,
) -> Metrics {
    let mut m: Metrics = Vec::new();
    m.push(("trace.overhead_frac", trace_overhead(&built.portal, pages)));

    // The replay's inputs: what a reader of this workload would request.
    let zipf = Zipf::new(pages.len(), w.zipf_s);
    let sample: Vec<&Page> = zipf
        .sequence(&mut Rng::new(seed, 20), SAMPLE)
        .iter()
        .map(|&i| &pages[i as usize])
        .collect();
    let mut seen = HashSet::new();
    let distinct: Vec<&Page> = sample
        .iter()
        .copied()
        .filter(|p| seen.insert(p.key.as_str()))
        .collect();

    let dir = |name: &str| scratch.join(format!("{name}_{}_{}", w.name, std::process::id()));
    let dirs = [dir("shadow"), dir("obs_on"), dir("obs_off")];
    for d in &dirs {
        let _ = std::fs::remove_dir_all(d);
    }
    let durable = |i: usize| w.durable.then(|| dirs[i].as_path());
    let mut shadow = Shadow::new(w, site::build_database(seed), durable(0));
    let (portal_on, _edges_on) = load::assemble(w, seed, durable(1));
    let (portal_off, _edges_off) = load::assemble(w, seed, durable(2));
    set_obs(portal_off.obs(), false);

    // --- miss path: cold cache, every distinct input once, three systems ---
    // Per system and page, the fastest of the rounds: a pass is only ever
    // slowed down by the box's other tenants, never sped up.
    let mut fastest_ns = vec![[u64::MAX; 3]; distinct.len()];
    let mut by_request: HashMap<u64, usize> = HashMap::new();
    let scanned_before = shadow.db.read().stats().exec.rows_scanned;
    let mut body_bytes = 0usize;
    for round in 0..MISS_ROUNDS {
        portal_on.page_cache().clear();
        portal_off.page_cache().clear();
        shadow.cache.clear();
        // The three systems take turns request by request, in rotating
        // order, so drift in the machine's speed lands on all of them alike.
        for (i, p) in distinct.iter().enumerate() {
            for turn in 0..3 {
                let system = (i + turn) % 3;
                let t = Instant::now();
                match system {
                    0 => drop(black_box(portal_on.request(&p.request))),
                    1 => drop(black_box(portal_off.request(&p.request))),
                    _ => {
                        let response = shadow.request(&p.request);
                        if round == 0 {
                            body_bytes += response.body.len();
                        }
                        let rec = shadow.rec.lock().expect("recorder lock");
                        by_request.insert(
                            rec.spans().last().expect("spans of this request").request,
                            p.servlet,
                        );
                    }
                }
                let ns = t.elapsed().as_nanos() as u64;
                fastest_ns[i][system] = fastest_ns[i][system].min(ns);
            }
        }
    }
    let mean_us = |system: usize| {
        fastest_ns.iter().map(|page| page[system]).sum::<u64>() as f64 / 1e3 / distinct.len() as f64
    };
    let (miss_on, miss_off, miss_shadow) = (mean_us(0), mean_us(1), mean_us(2));
    let misses = (MISS_ROUNDS * distinct.len()) as f64;
    let scanned = shadow.db.read().stats().exec.rows_scanned - scanned_before;
    {
        let rec = shadow.rec.lock().expect("recorder lock");
        let spans = rec.spans();
        let rows = trace::by_name(spans);
        let self_us = |name: &str| {
            rows.iter()
                .find(|r| r.0 == name)
                .map(|r| r.3 as f64 / 1e3 / misses)
        };
        // The replay's own glue (root self time) is small and steady, so
        // its mean over all rounds can be set against the fastest passes.
        let shadow_glue_us = self_us("core.request").unwrap_or(0.0);
        // In `site::SERVLETS` order.
        const PER_SERVLET: [(&str, &str); SERVLETS.len()] = [
            ("web.handle_us.product", "db.query_us.product"),
            ("web.handle_us.catalog", "db.query_us.catalog"),
            ("web.handle_us.top", "db.query_us.top"),
            ("web.handle_us.stats", "db.query_us.stats"),
        ];
        for (i, (handle, query)) in PER_SERVLET.into_iter().enumerate() {
            m.push((
                handle,
                mean_span_us(spans, &by_request, "web.handle", Some(i)),
            ));
            m.push((query, mean_span_us(spans, &by_request, "db.query", Some(i))));
        }
        m.extend([
            ("web.self_us", self_us("web.handle")),
            ("sniffer.log_us_per_miss", self_us("sniffer.query_log")),
            (
                "bus.admit_us",
                mean_span_us(spans, &by_request, "bus.admit", None),
            ),
            ("db.rows_scanned_per_miss", Some(scanned as f64 / misses)),
            (
                "cache.body_bytes_mean",
                Some(body_bytes as f64 / distinct.len() as f64),
            ),
            ("core.request_miss_us", Some(miss_on)),
            ("obs.miss_us", Some(miss_on - miss_off)),
            // Portal call minus the shadow's layer calls: admission check,
            // invalidator lock, origins ledger, response assembly.
            (
                "core.miss_glue_us",
                Some(miss_off - (miss_shadow - shadow_glue_us)),
            ),
            (
                "core.budget_gap_frac.miss",
                Some((miss_shadow + (miss_on - miss_off) - miss_on).abs() / miss_on),
            ),
        ]);
    }

    // --- first sync: registers every distinct page in all three systems ---
    let mut sync_on_ms = Vec::new();
    let mut sync_off_ms = Vec::new();
    let timed_sync = |portal: &CachePortal, into: &mut Vec<f64>| {
        let t = Instant::now();
        portal.sync_point().expect("probe sync point");
        into.push(t.elapsed().as_nanos() as f64 / 1e6);
    };
    timed_sync(&portal_on, &mut sync_on_ms);
    timed_sync(&portal_off, &mut sync_off_ms);
    shadow.sync_point();
    let registered = shadow
        .invalidator
        .lock()
        .expect("invalidator lock")
        .registry()
        .total_instances();
    {
        let rec = shadow.rec.lock().expect("recorder lock");
        let registration_sync = rec
            .spans()
            .iter()
            .rev()
            .find(|s| s.name == "invalidator.sync");
        m.push((
            "invalidator.registration_us_per_qi",
            registration_sync.map(|s| s.duration_ns() as f64 / 1e3 / registered.max(1) as f64),
        ));
    }

    // --- hit path: batched loops over the sampled inputs ---
    // A cache smaller than the sample has evicted some of it again: keep the
    // inputs all three systems still hold, so every call below is a hit.
    let cached: Vec<&Page> = sample
        .iter()
        .copied()
        .filter(|p| {
            shadow.cache.contains(&p.key)
                && portal_on.page_cache().contains(&p.key)
                && portal_off.page_cache().contains(&p.key)
        })
        .collect();
    shadow.spans = false;
    let hit_ns = batched_each(
        &cached,
        &mut [
            &mut |p: &&Page| {
                black_box(
                    shadow
                        .app
                        .servlet_for(&p.request.path)
                        .map(|s| PageKey::for_request(&p.request, s.spec())),
                );
            },
            &mut |p: &&Page| {
                black_box(shadow.cache.get(&p.key, 0));
            },
            &mut |p: &&Page| {
                black_box(shadow.request(&p.request));
            },
            &mut |p: &&Page| {
                black_box(portal_on.request(&p.request));
            },
            &mut |p: &&Page| {
                black_box(portal_off.request(&p.request));
            },
        ],
    );
    let [key_ns, get_hit_ns, shadow_hit_ns, hit_on_ns, hit_off_ns] = hit_ns[..] else {
        unreachable!("five bodies, five results")
    };
    shadow.spans = true;
    let absent: Vec<PageKey> = (0..SAMPLE)
        .map(|i| PageKey::raw(format!("shop/absent?g:id={i}")))
        .collect();
    let get_miss_ns = batched(&absent, |k| {
        black_box(shadow.cache.get(k, 0));
    });
    // Several threads on the one cache mutex, as in `hot_read`: every thread
    // makes the same passes at the same time; mean over all of them, since
    // here the neighbour's interference is the thing measured.
    let get_hit_ns_mt = {
        let cache = &shadow.cache;
        let sample = &cached;
        let start = std::sync::Barrier::new(clients);
        let per_thread: Vec<f64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        let t = Instant::now();
                        for _ in 0..MT_PASSES {
                            for p in sample {
                                black_box(cache.get(&p.key, 0));
                            }
                        }
                        t.elapsed().as_nanos() as f64 / (MT_PASSES * sample.len().max(1)) as f64
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("cache probe thread"))
                .collect()
        });
        mean(&per_thread)
    };
    // Puts: bodies cloned outside the timed pass.
    let bodies: Vec<(PageKey, String)> = distinct
        .iter()
        .filter_map(|p| shadow.cache.get(&p.key, 0).map(|b| (p.key.clone(), b)))
        .collect();
    let roomy = PageCache::new(PageCacheConfig {
        capacity: 1 << 16,
        ..PageCacheConfig::default()
    });
    let mut put_ns = Vec::new();
    let mut invalidate_ns = Vec::new();
    for _ in 0..REPS {
        let batch = bodies.clone();
        let n = batch.len().max(1) as f64;
        let t = Instant::now();
        for (k, b) in batch {
            roomy.put(k, b, 0);
        }
        put_ns.push(t.elapsed().as_nanos() as f64 / n);
        let t = Instant::now();
        roomy.invalidate(bodies.iter().map(|(k, _)| k));
        invalidate_ns.push(t.elapsed().as_nanos() as f64 / n);
    }
    // At capacity (1024, the `PageCacheConfig` default) every put of a new
    // key first scans for a victim.
    let full = PageCache::new(PageCacheConfig::default());
    let filler = bodies.first().map_or(String::new(), |(_, b)| b.clone());
    for i in 0..full.config().capacity {
        full.put(
            PageKey::raw(format!("shop/fill?g:id={i}")),
            filler.clone(),
            i as u64,
        );
    }
    let fresh: Vec<(PageKey, String)> = (0..256)
        .map(|i| (PageKey::raw(format!("shop/new?g:id={i}")), filler.clone()))
        .collect();
    let t = Instant::now();
    for (i, (k, b)) in fresh.into_iter().enumerate() {
        full.put(k, b, 10_000 + i as u64);
    }
    let put_evict_us = t.elapsed().as_nanos() as f64 / 1e3 / 256.0;
    m.extend([
        ("web.key_ns", Some(key_ns)),
        ("cache.get_hit_ns", Some(get_hit_ns)),
        ("cache.get_hit_ns_mt", get_hit_ns_mt),
        ("cache.get_miss_ns", Some(get_miss_ns)),
        ("cache.put_ns", put_ns.into_iter().reduce(f64::min)),
        (
            "cache.invalidate_ns_per_key",
            invalidate_ns.into_iter().reduce(f64::min),
        ),
        ("cache.put_evict_us", Some(put_evict_us)),
        ("core.request_hit_ns", Some(hit_on_ns)),
        ("obs.hit_ns", Some(hit_on_ns - hit_off_ns)),
        ("core.hit_glue_ns", Some(hit_off_ns - key_ns - get_hit_ns)),
        (
            "core.budget_gap_frac.hit",
            Some((shadow_hit_ns + (hit_on_ns - hit_off_ns) - hit_on_ns).abs() / hit_on_ns),
        ),
    ]);

    // --- update + sync replay: the workload's own statements and batching ---
    let (mut resident, mut changed) = (0, 0);
    if let Some(u) = &w.updates {
        let statements =
            site::update_statements(seed, u.kind, u.skus, SYNC_ROUNDS * u.per_tick as usize);
        for batch in statements.chunks(u.per_tick as usize) {
            for sql in batch {
                portal_on.update(sql).expect("probe update");
                portal_off.update(sql).expect("probe update");
                shadow.db.write().execute(sql).expect("probe update");
            }
            timed_sync(&portal_on, &mut sync_on_ms);
            timed_sync(&portal_off, &mut sync_off_ms);
            let audit = shadow.sync_point();
            resident += audit.ejected_resident;
            changed += audit.ejected_changed;
        }
    }
    let (sync_on, sync_off) = (mean(&sync_on_ms), mean(&sync_off_ms));
    m.push((
        "obs.sync_ms",
        sync_on.zip(sync_off).map(|(on, off)| on - off),
    ));
    m.push((
        "invalidator.eject_precision",
        (resident > 0).then(|| changed as f64 / resident as f64),
    ));
    let deliver_us = {
        let rec = shadow.rec.lock().expect("recorder lock");
        mean_span_us(rec.spans(), &by_request, "bus.deliver", None)
    };
    m.push(("bus.deliver_us_per_round", deliver_us));
    // The live sync's remainder: wall minus the stages the portal reports,
    // minus the delivery round (which has no stage of its own).
    let (remainder_ms, _) = report::sync_remainder(run);
    let live_sync_ms = run
        .backend
        .as_ref()
        .and_then(|b| b.sync.mean())
        .map(|ns| ns / 1e6);
    let glue_ms = remainder_ms.map(|r| r - deliver_us.unwrap_or(0.0) / 1e3);
    m.push(("core.sync_glue_ms", glue_ms));
    // Its share of the sync point: what the reported stages leave unexplained.
    m.push((
        "core.sync_glue_frac",
        glue_ms.zip(live_sync_ms).map(|(g, wall)| g / wall),
    ));

    m.push((
        "db.update_us.price",
        update_probe_us(&shadow.db, seed, UpdateKind::Price),
    ));
    m.push((
        "db.update_us.stock",
        update_probe_us(&shadow.db, seed, UpdateKind::Stock),
    ));
    m.push(("bus.socket_deliver_us", socket_deliver_us()));

    // --- the span file: live root spans per thread, then the replay ---
    let mut groups: Vec<(String, u64, Vec<Span>)> = Vec::new();
    for (i, r) in run.reader_recs.iter_mut().enumerate() {
        if let Some(ring) = r.ring.take() {
            groups.push((
                format!("live.reader{i}"),
                ring.overwritten,
                ring.into_spans(),
            ));
        }
    }
    if let Some(ring) = run.backend.as_mut().and_then(|b| b.ring.take()) {
        groups.push((
            "live.backend".to_string(),
            ring.overwritten,
            ring.into_spans(),
        ));
    }
    groups.push((
        "shadow".to_string(),
        0,
        shadow.rec.lock().expect("recorder lock").spans().to_vec(),
    ));
    let path = scratch.join(format!("trace_{}.json", w.name));
    match trace::write_file(&path, w.name, &groups) {
        Ok(()) => println!(
            "trace: {} spans in {} groups written to {}",
            groups.iter().map(|g| g.2.len()).sum::<usize>(),
            groups.len(),
            path.display()
        ),
        Err(e) => eprintln!("trace: could not write {}: {e}", path.display()),
    }
    drop((shadow, portal_on, portal_off));
    for d in &dirs {
        let _ = std::fs::remove_dir_all(d);
    }
    m
}
