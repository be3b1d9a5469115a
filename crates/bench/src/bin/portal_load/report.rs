//! Metric names, units and bounds (the same tables `BENCHMARK.json` lists),
//! the reduction of a run's raw records to those metrics, and the printed
//! forms: a human table and the one-line JSON result.

use crate::hist::{median_of_slices, Hist};
use crate::load::{Run, SLICES, SLOW_LIMIT_NS};
use serde_json::Value;

/// What the benchmark does with one end-to-end metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cell {
    /// Reported under the metric's name; `--check-repeat` fails when two
    /// runs of the same code differ by more than the metric's bound.
    Gated,
    /// Measured, but it did not repeat within a tenth between identical runs
    /// on the reference box: reported under the same name with a `diag.`
    /// prefix and never gated (a wider bound would let a regression through).
    Diag,
    /// The workload has no such operation.
    Absent,
}
use Cell::{Absent, Diag, Gated};

// Short forms for the table below.
const G: Cell = Gated;
const D: Cell = Diag;
const N: Cell = Absent;

/// One end-to-end metric: what a user of the site would see.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of "better".
    pub higher_is_better: bool,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
    /// Per workload, in `load::WORKLOADS` order: hot_read, cold_churn,
    /// update_mix, join_poll.
    pub cells: [Cell; 4],
    /// Listed under `end_to_end` in `BENCHMARK.json`. The builder's contract
    /// admits a metric there only if every workload reports it, it is never
    /// 0 and it repeats between runs; such a metric keeps its plain name on
    /// every workload.
    pub contract: bool,
}

/// The end-to-end metrics. Bounds are 10% relative, except `failed_frac`
/// (any increase fails), `hit_ratio` (0.03: the contract compares runs on
/// different seeds, and `cold_churn`'s hit ratio alone differs by 0.01
/// between seeds) and `setup_s` (the contract wants it listed, with the
/// largest bound; single runs differ by more than that, so its cells are
/// `Diag` and only the driver's medians of ten runs are held to the bound).
/// With 10 s windows a run has 100 sync points, so p90 is the highest backend
/// percentile with ten samples beyond it. A cell is `Gated` when the pair's
/// spread stayed within a tenth in every ten-seed batch measured on the
/// reference box and `Diag` otherwise (README, Repeatability): there, counts
/// and sizes repeat, and of the timings only the eject lag that the 100 ms
/// tick dominates.
pub const END_TO_END: [EndToEnd; 15] = [
    e2e("setup_s", "s", false, 0.25, [D, D, D, D], true),
    e2e("req_per_s", "1/s", true, 0.1, [D, D, N, N], false),
    e2e("hit_p50_us", "us", false, 0.1, [D, D, D, D], false),
    e2e("hit_p99_us", "us", false, 0.1, [D, D, D, N], false),
    e2e("miss_p50_us", "us", false, 0.1, [N, D, D, N], false),
    e2e("miss_p90_us", "us", false, 0.1, [N, D, D, N], false),
    e2e("slow_frac", "ratio", false, 0.1, [N, N, D, D], false),
    e2e("hit_ratio", "ratio", true, 0.03, [G, G, G, G], true),
    e2e("sync_p50_ms", "ms", false, 0.1, [N, D, D, D], false),
    e2e("sync_p90_ms", "ms", false, 0.1, [N, D, D, D], false),
    e2e("eject_lag_p90_ms", "ms", false, 0.1, [N, N, G, D], false),
    e2e("update_p50_us", "us", false, 0.1, [N, N, D, D], false),
    e2e("update_p90_us", "us", false, 0.1, [N, N, D, D], false),
    e2e("failed_frac", "ratio", false, 0.0, [G, G, G, G], false),
    e2e("peak_rss_mb", "MiB", false, 0.1, [G, G, G, G], true),
];

const fn e2e(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    bound: f64,
    cells: [Cell; 4],
    contract: bool,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        higher_is_better,
        bound,
        cells,
        contract,
    }
}

impl EndToEnd {
    /// The name workload number `w` reports this metric under, if it does.
    pub fn reported_as(&self, w: usize) -> Option<String> {
        match self.cells[w] {
            Absent => None,
            Diag if !self.contract => Some(format!("diag.{}", self.name)),
            _ => Some(self.name.to_string()),
        }
    }
}

/// Every per-layer metric a traced run measures: `(name, unit, higher is
/// better)`. Layer = crate name; `gen.*` and `trace.*` describe the load
/// generator itself. `BENCHMARK.json` lists these followed by the
/// end-to-end metrics that are not in its `end_to_end` list (see
/// [`per_layer_names`]).
pub const LAYERS: [(&str, &str, bool); 71] = [
    ("web.key_ns", "ns", false),
    ("web.handle_us.product", "us", false),
    ("web.handle_us.catalog", "us", false),
    ("web.handle_us.top", "us", false),
    ("web.handle_us.stats", "us", false),
    ("web.self_us", "us", false),
    ("db.query_us.product", "us", false),
    ("db.query_us.catalog", "us", false),
    ("db.query_us.top", "us", false),
    ("db.query_us.stats", "us", false),
    ("db.rows_scanned_per_miss", "count", false),
    ("db.update_us.price", "us", false),
    ("db.update_us.stock", "us", false),
    ("cache.get_hit_ns", "ns", false),
    ("cache.get_hit_ns_mt", "ns", false),
    ("cache.get_miss_ns", "ns", false),
    ("cache.put_ns", "ns", false),
    ("cache.put_evict_us", "us", false),
    ("cache.invalidate_ns_per_key", "ns", false),
    ("cache.hits", "count", true),
    ("cache.misses", "count", false),
    ("cache.evictions", "count", false),
    ("cache.invalidations", "count", false),
    ("cache.body_bytes_mean", "bytes", false),
    ("sniffer.log_us_per_miss", "us", false),
    ("sniffer.mapper_us_per_sync", "us", false),
    ("sniffer.mapper_us_per_mapped", "us", false),
    ("sniffer.mapped", "count", false),
    ("sniffer.lost", "count", false),
    ("invalidator.registration_us_per_qi", "us", false),
    ("invalidator.delta_us", "us", false),
    ("invalidator.index_us", "us", false),
    ("invalidator.analysis_us", "us", false),
    ("invalidator.poll_us", "us", false),
    ("invalidator.polls_issued", "count", false),
    ("invalidator.polls_from_index", "count", true),
    ("invalidator.tuples_analyzed", "count", false),
    ("invalidator.instances_registered", "count", false),
    ("invalidator.pages_ejected", "count", false),
    ("invalidator.eject_precision", "ratio", true),
    ("bus.admit_us", "us", false),
    ("bus.deliver_us_per_round", "us", false),
    ("bus.deliveries_ok", "count", true),
    ("bus.delivery_failures", "count", false),
    ("bus.edge_lag_max", "count", false),
    ("bus.socket_deliver_us", "us", false),
    ("durable.persist_us_per_sync", "us", false),
    ("durable.wal_bytes_per_sync", "bytes", false),
    ("durable.fsyncs", "count", false),
    ("durable.checkpoint_ms", "ms", false),
    ("obs.hit_ns", "ns", false),
    ("obs.miss_us", "us", false),
    ("obs.sync_ms", "ms", false),
    ("core.request_hit_ns", "ns", false),
    ("core.request_miss_us", "us", false),
    ("core.hit_glue_ns", "ns", false),
    ("core.miss_glue_us", "us", false),
    ("core.sync_ms", "ms", false),
    ("core.sync_glue_ms", "ms", false),
    ("core.sync_glue_frac", "ratio", false),
    ("core.sync_busy_frac", "ratio", false),
    ("core.sync_overrun_frac", "ratio", false),
    ("core.declined_race", "count", false),
    ("core.declined_policy", "count", false),
    ("core.budget_gap_frac.hit", "ratio", false),
    ("core.budget_gap_frac.miss", "ratio", false),
    ("gen.late_frac", "ratio", false),
    ("gen.sched_lag_p99_us", "us", false),
    ("gen.reader_util", "ratio", false),
    ("gen.backlog_end_ms", "ms", false),
    ("trace.overhead_frac", "ratio", false),
];

/// The `per_layer` list of `BENCHMARK.json`, in order: [`LAYERS`], then every
/// end-to-end metric outside the contract's `end_to_end` list, under its
/// plain name if some workload gates it and under `diag.<name>` if some
/// workload reports it as a diagnostic.
pub fn per_layer_names() -> Vec<(String, &'static str, bool)> {
    let mut names: Vec<(String, &'static str, bool)> = LAYERS
        .iter()
        .map(|(name, unit, higher)| (name.to_string(), *unit, *higher))
        .collect();
    for m in END_TO_END.iter().filter(|m| !m.contract) {
        if m.cells.contains(&Gated) {
            names.push((m.name.to_string(), m.unit, m.higher_is_better));
        }
        if m.cells.contains(&Diag) {
            names.push((format!("diag.{}", m.name), m.unit, m.higher_is_better));
        }
    }
    names
}

/// A named value; `None` when the workload cannot supply the metric.
pub type Metrics = Vec<(&'static str, Option<f64>)>;

/// Per-slice histograms merged over the readers.
struct Slice {
    hit: Hist,
    miss: Hist,
    all: Hist,
    non200: u64,
    service_ns: u64,
}

fn slices(run: &Run) -> Vec<Slice> {
    (0..SLICES)
        .map(|s| {
            let (mut hit, mut miss, mut non200, mut service_ns) =
                (Hist::default(), Hist::default(), 0, 0);
            for r in &run.reader_recs {
                hit.merge(&r.slices[s].hit);
                miss.merge(&r.slices[s].miss);
                non200 += r.slices[s].non200;
                service_ns += r.slices[s].service_ns;
            }
            let mut all = hit.clone();
            all.merge(&miss);
            Slice {
                hit,
                miss,
                all,
                non200,
                service_ns,
            }
        })
        .collect()
}

fn over_slices(slices: &[Slice], f: impl Fn(&Slice) -> Option<f64>) -> Option<f64> {
    median_of_slices(&slices.iter().map(f).collect::<Vec<_>>())
}

/// The per-slice values behind two of the medians, for the eye: slices that
/// disagree show a run that was disturbed or a queue that grows.
pub fn print_slices(run: &Run) {
    let s = slices(run);
    let row = |f: &dyn Fn(&Slice) -> Option<f64>| -> String {
        s.iter()
            .map(|x| us(f(x)).map_or("-".to_string(), |v| format!("{v:.3}")))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!(
        "per-slice hit_p50_us: {}",
        row(&|x| x.hit.quantile_checked(0.5))
    );
    println!(
        "per-slice svc_mean_us: {}",
        row(&|x| ratio(x.service_ns, x.all.count()))
    );
}

fn us(ns: Option<f64>) -> Option<f64> {
    ns.map(|v| v / 1e3)
}

fn ms(ns: Option<f64>) -> Option<f64> {
    ns.map(|v| v / 1e6)
}

/// Requests, hits and responses that were not 200 in the timed window.
pub fn request_totals(run: &Run) -> (u64, u64, u64) {
    let s = slices(run);
    (
        s.iter().map(|x| x.all.count()).sum(),
        s.iter().map(|x| x.hit.count()).sum(),
        s.iter().map(|x| x.non200).sum(),
    )
}

/// Operations attempted and failed, for the result line and `failed_frac`:
/// requests, updates and sync points of the window plus the pages the gate
/// compared; failures are non-200 responses, backend errors, gate
/// violations and broken workload invariants.
pub fn attempted_failed(run: &Run, invariant_violations: u64) -> (u64, u64) {
    let (requests, _, non200) = request_totals(run);
    let (backend_ops, backend_errors) = run
        .backend
        .as_ref()
        .map_or((0, 0), |b| (b.sync.count() + b.update.count(), b.errors));
    (
        requests + backend_ops + run.check.pages_checked,
        non200 + backend_errors + run.check.violations + invariant_violations,
    )
}

/// The end-to-end metrics of one untraced run, in [`END_TO_END`] order,
/// whether or not the workload's table cell wants them. Request metrics are
/// the median of the per-slice values; the backend's (sync, update, eject
/// lag) have too few samples per slice and are taken over the whole window.
pub fn end_to_end(run: &Run, setup_s: f64, peak_rss_mb: f64, failed_frac: f64) -> Metrics {
    let s = slices(run);
    let b = run.backend.as_ref();
    let slice_s = run.window_s / SLICES as f64;
    let backend_q =
        |h: fn(&crate::load::BackendRec) -> &Hist, q: f64| b.and_then(|b| h(b).quantile_checked(q));
    vec![
        ("setup_s", Some(setup_s)),
        (
            "req_per_s",
            over_slices(&s, |x| Some(x.all.count() as f64 / slice_s)),
        ),
        // From the due time in an open loop, so a stall is charged to
        // everything queued behind it.
        (
            "hit_p50_us",
            us(over_slices(&s, |x| x.hit.quantile_checked(0.5))),
        ),
        (
            "hit_p99_us",
            us(over_slices(&s, |x| x.hit.quantile_checked(0.99))),
        ),
        (
            "miss_p50_us",
            us(over_slices(&s, |x| x.miss.quantile_checked(0.5))),
        ),
        (
            "miss_p90_us",
            us(over_slices(&s, |x| x.miss.quantile_checked(0.9))),
        ),
        (
            "slow_frac",
            over_slices(&s, |x| {
                (x.all.count() > 0).then(|| {
                    (x.all.count_above(SLOW_LIMIT_NS) + x.non200) as f64 / x.all.count() as f64
                })
            }),
        ),
        (
            "hit_ratio",
            over_slices(&s, |x| {
                (x.all.count() > 0).then(|| x.hit.count() as f64 / x.all.count() as f64)
            }),
        ),
        ("sync_p50_ms", ms(backend_q(|b| &b.sync, 0.5))),
        ("sync_p90_ms", ms(backend_q(|b| &b.sync, 0.9))),
        ("eject_lag_p90_ms", ms(backend_q(|b| &b.eject_lag, 0.9))),
        ("update_p50_us", us(backend_q(|b| &b.update, 0.5))),
        ("update_p90_us", us(backend_q(|b| &b.update, 0.9))),
        ("failed_frac", Some(failed_frac)),
        ("peak_rss_mb", Some(peak_rss_mb)),
    ]
}

fn ratio(num: u64, den: u64) -> Option<f64> {
    (den > 0).then(|| num as f64 / den as f64)
}

/// Stage time of one timeline entry, µs.
fn stage(t: &cacheportal::obs::SyncTimeline, name: &str) -> u64 {
    t.stages
        .iter()
        .find(|s| s.name == name)
        .map_or(0, |s| s.micros)
}

/// Mean over the timeline of `wall − Σ stages`, ms, and of the persist
/// stage, µs. The bus delivery round has no stage of its own, so it is part
/// of the remainder here and taken out by the caller.
pub fn sync_remainder(run: &Run) -> (Option<f64>, Option<f64>) {
    let n = run.timeline.len() as f64;
    if run.timeline.is_empty() {
        return (None, None);
    }
    let stages: u64 = run
        .timeline
        .iter()
        .map(|t| t.stages.iter().map(|s| s.micros).sum::<u64>())
        .sum();
    let wall: u64 = run.timeline.iter().map(|t| t.wall_micros).sum();
    let persist: u64 = run.timeline.iter().map(|t| stage(t, "persist")).sum();
    (
        Some(wall.saturating_sub(stages) as f64 / n / 1e3),
        Some(persist as f64 / n),
    )
}

/// Per-layer values read off the live run: what public functions returned
/// (`SyncReport`, `PageCache::stats`, bus and WAL statistics, the portal's
/// stage timeline) and what the load generator saw of itself.
pub fn live_layers(run: &Run) -> Metrics {
    let c = &run.counters;
    let window_ns = run.window_s * 1e9;
    let mut m: Metrics = vec![
        ("cache.hits", Some(c.cache_hits as f64)),
        ("cache.misses", Some(c.cache_misses as f64)),
        ("cache.evictions", Some(c.cache_evictions as f64)),
        ("cache.invalidations", Some(c.cache_invalidations as f64)),
        ("core.declined_race", Some(c.declined_race as f64)),
        ("core.declined_policy", Some(c.declined_policy as f64)),
        ("bus.deliveries_ok", Some(c.bus_deliveries_ok as f64)),
        (
            "bus.delivery_failures",
            Some(c.bus_delivery_failures as f64),
        ),
        ("bus.edge_lag_max", Some(c.bus_edge_lag_max as f64)),
        ("durable.fsyncs", Some(c.wal_fsyncs as f64)),
        (
            "invalidator.instances_registered",
            Some(run.instances_registered as f64),
        ),
    ];
    let sums = run.backend.as_ref().map(|b| &b.sums);
    let per_sync = |f: fn(&crate::load::SyncSums) -> u64| sums.and_then(|s| ratio(f(s), s.syncs));
    m.extend([
        ("sniffer.mapper_us_per_sync", per_sync(|s| s.mapper_us)),
        (
            "sniffer.mapper_us_per_mapped",
            sums.and_then(|s| ratio(s.mapper_us, s.mapped)),
        ),
        ("sniffer.mapped", sums.map(|s| s.mapped as f64)),
        ("sniffer.lost", sums.map(|s| s.lost as f64)),
        ("invalidator.delta_us", per_sync(|s| s.delta_us)),
        ("invalidator.index_us", per_sync(|s| s.index_us)),
        ("invalidator.analysis_us", per_sync(|s| s.analysis_us)),
        (
            "invalidator.poll_us",
            sums.and_then(|s| ratio(s.analysis_us, s.polls_issued)),
        ),
        (
            "invalidator.polls_issued",
            sums.map(|s| s.polls_issued as f64),
        ),
        (
            "invalidator.polls_from_index",
            sums.map(|s| s.polls_from_index as f64),
        ),
        ("invalidator.tuples_analyzed", sums.map(|s| s.tuples as f64)),
        ("invalidator.pages_ejected", sums.map(|s| s.ejected as f64)),
        (
            "durable.wal_bytes_per_sync",
            sums.and_then(|s| ratio(c.wal_bytes, s.syncs)),
        ),
        (
            "core.sync_ms",
            sums.and_then(|s| ratio(s.wall_ns, s.syncs))
                .map(|ns| ns / 1e6),
        ),
        (
            "core.sync_busy_frac",
            sums.map(|s| s.wall_ns as f64 / window_ns),
        ),
        (
            "core.sync_overrun_frac",
            sums.and_then(|s| ratio(s.overrun, s.syncs)),
        ),
    ]);

    let (_, persist_us) = sync_remainder(run);
    m.push(("durable.persist_us_per_sync", persist_us));
    // One sync in `checkpoint_interval` (8, the builder's default) also
    // writes a snapshot: the slowest eighth of the persist stages.
    let mut persist: Vec<u64> = run.timeline.iter().map(|t| stage(t, "persist")).collect();
    persist.sort_unstable_by(|a, b| b.cmp(a));
    let slowest = &persist[..persist.len().div_ceil(8).min(persist.len())];
    m.push((
        "durable.checkpoint_ms",
        (c.checkpoints > 0)
            .then(|| ratio(slowest.iter().sum(), slowest.len() as u64))
            .flatten()
            .map(|v| v / 1e3),
    ));

    let mut lag = Hist::default();
    let (mut late, mut busy_ns) = (0, 0);
    for r in &run.reader_recs {
        lag.merge(&r.lag);
        late += r.late;
        busy_ns += r.slices.iter().map(|s| s.service_ns).sum::<u64>();
    }
    m.extend([
        ("gen.late_frac", ratio(late, lag.count())),
        ("gen.sched_lag_p99_us", us(lag.quantile_checked(0.99))),
        (
            "gen.reader_util",
            Some(busy_ns as f64 / (window_ns * run.readers as f64)),
        ),
        (
            "gen.backlog_end_ms",
            (lag.count() > 0).then(|| backlog_first_last_ms(run).1),
        ),
    ]);
    m
}

/// Largest dispatch lag in the first and in the last slice, ms: a growing
/// queue shows as the second exceeding the first.
pub fn backlog_first_last_ms(run: &Run) -> (f64, f64) {
    let of = |s: usize| {
        run.reader_recs
            .iter()
            .map(|r| r.slices[s].max_lag_ns)
            .max()
            .unwrap_or(0) as f64
            / 1e6
    };
    (of(0), of(SLICES - 1))
}

/// Unit of a metric of either table, by the name it is reported under.
pub fn unit_of(name: &str) -> &'static str {
    let base = name.strip_prefix("diag.").unwrap_or(name);
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(LAYERS.iter().map(|m| (m.0, m.1)))
        .find(|m| m.0 == base)
        .map_or("", |m| m.1)
}

/// Values under the names they leave the process with.
pub type Named = Vec<(String, Option<f64>)>;

/// What workload number `w` reports of its end-to-end values (in
/// [`END_TO_END`] order), under the names its cells give them.
pub fn reported(w: usize, e2e: &Metrics) -> Named {
    END_TO_END
        .iter()
        .zip(e2e)
        .filter_map(|(m, (name, value))| {
            assert_eq!(m.name, *name, "values in table order");
            m.reported_as(w).map(|n| (n, *value))
        })
        .collect()
}

/// The metrics of the contract's result line: every `end_to_end` name of
/// `BENCHMARK.json` for an untraced run, every `per_layer` name for a traced
/// one (`layers` given), in the file's order.
pub fn contract_metrics(reported: &Named, layers: Option<&Metrics>) -> Named {
    let find = |name: &str| reported.iter().find(|m| m.0 == name).and_then(|m| m.1);
    match layers {
        None => END_TO_END
            .iter()
            .filter(|m| m.contract)
            .map(|m| (m.name.to_string(), find(m.name)))
            .collect(),
        Some(layers) => per_layer_names()
            .into_iter()
            .map(|(name, _, _)| {
                let value = layers
                    .iter()
                    .find(|m| m.0 == name)
                    .map_or_else(|| find(&name), |m| m.1);
                (name, value)
            })
            .collect(),
    }
}

/// The last line of a run: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
/// The contract wants a number for every listed name, so a metric this
/// workload does not have reads 0 here; the record line above it says `null`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Named) -> String {
    let metrics = metrics
        .iter()
        .map(|(name, value)| {
            (
                name.clone(),
                Value::Object(vec![
                    ("value".to_string(), Value::Float(value.unwrap_or(0.0))),
                    ("unit".to_string(), Value::String(unit_of(name).to_string())),
                ]),
            )
        })
        .collect();
    let doc = Value::Object(vec![
        ("correct".to_string(), Value::Bool(correct)),
        ("attempted".to_string(), Value::UInt(attempted.max(1))),
        ("failed".to_string(), Value::UInt(failed)),
        ("metrics".to_string(), Value::Object(metrics)),
    ]);
    serde_json::to_string(&doc).expect("plain values serialize")
}

/// Prefix of the line that carries everything a run measured to the full
/// set's parent process.
pub const RECORD_PREFIX: &str = "record: ";

/// `record: {name: value, …}`: every value the run measured under the name
/// it reports it with; `null` where the run could not measure it. Names that
/// do not apply to the workload are left out.
pub fn record_line(metrics: &Named) -> String {
    let doc = Value::Object(
        metrics
            .iter()
            .map(|(name, value)| (name.clone(), value.map_or(Value::Null, Value::Float)))
            .collect(),
    );
    format!(
        "{RECORD_PREFIX}{}",
        serde_json::to_string(&doc).expect("plain values serialize")
    )
}

/// `name value unit` lines, one per metric, `-` for a missing value.
pub fn print_metrics(title: &str, metrics: &Named) {
    println!("{title}");
    let width = metrics.iter().map(|m| m.0.len()).max().unwrap_or(0);
    for (name, value) in metrics {
        let unit = unit_of(name);
        match value {
            Some(v) => println!("  {name:width$}  {v:>16.4} {unit}"),
            None => println!("  {name:width$}  {:>16} {unit}", "-"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::WORKLOADS;

    /// `BENCHMARK.json` at the repository root is written by hand; it must
    /// name exactly the workloads and metrics this binary reports.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let doc: Value =
            serde_json::from_str(include_str!("../../../../../BENCHMARK.json")).unwrap();
        let listed = |key: &str| -> Vec<(String, String, String)> {
            doc[key]
                .as_array()
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f: &str| m[f].as_str().unwrap_or("").to_string();
                    (field("name"), field("unit"), field("better"))
                })
                .collect()
        };
        let better = |higher: bool| if higher { "higher" } else { "lower" }.to_string();
        assert_eq!(
            listed("workloads")
                .into_iter()
                .map(|w| w.0)
                .collect::<Vec<_>>(),
            WORKLOADS.map(|w| w.name.to_string())
        );
        let contract: Vec<&EndToEnd> = END_TO_END.iter().filter(|m| m.contract).collect();
        assert_eq!(
            listed("end_to_end"),
            contract
                .iter()
                .map(|m| (
                    m.name.to_string(),
                    m.unit.to_string(),
                    better(m.higher_is_better)
                ))
                .collect::<Vec<_>>()
        );
        for (m, spec) in doc["end_to_end"].as_array().unwrap().iter().zip(&contract) {
            assert_eq!(m["bound"].as_f64(), Some(spec.bound));
            assert!(spec.bound > 0.0 && spec.bound <= 0.25);
            // The contract's list holds what every workload reports.
            assert!(!spec.cells.contains(&Absent), "{}", spec.name);
        }
        assert_eq!(
            listed("per_layer"),
            per_layer_names()
                .into_iter()
                .map(|(name, unit, higher)| (name, unit.to_string(), better(higher)))
                .collect::<Vec<_>>()
        );
        assert_eq!(doc["run_seconds"].as_f64(), Some(crate::FULL_SECONDS));
    }

    #[test]
    fn a_diag_pair_is_prefixed_and_an_absent_one_is_left_out() {
        let lag = END_TO_END
            .iter()
            .find(|m| m.name == "eject_lag_p90_ms")
            .unwrap();
        assert_eq!(lag.cells, [Absent, Absent, Gated, Diag]);
        assert_eq!(lag.reported_as(0), None);
        assert_eq!(lag.reported_as(2).as_deref(), Some("eject_lag_p90_ms"));
        assert_eq!(lag.reported_as(3).as_deref(), Some("diag.eject_lag_p90_ms"));
        // The contract fixes the names in its own list.
        let setup = &END_TO_END[0];
        assert_eq!(setup.reported_as(2).as_deref(), Some("setup_s"));
        assert_eq!(unit_of("diag.eject_lag_p90_ms"), "ms");

        let e2e: Metrics = END_TO_END.iter().map(|m| (m.name, Some(1.5))).collect();
        let hot = reported(0, &e2e);
        assert!(hot
            .iter()
            .all(|m| !m.0.contains("sync") && !m.0.contains("miss")));
        // Untraced: the contract's three. Traced: every per-layer name, with
        // the end-to-end ones only under the name this workload uses.
        let untraced = contract_metrics(&hot, None);
        assert_eq!(
            untraced.iter().map(|m| m.0.as_str()).collect::<Vec<_>>(),
            ["setup_s", "hit_ratio", "peak_rss_mb"]
        );
        let layers: Metrics = vec![("cache.hits", Some(7.0))];
        let traced = contract_metrics(&reported(2, &e2e), Some(&layers));
        assert_eq!(traced.len(), per_layer_names().len());
        let get = |n: &str| traced.iter().find(|m| m.0 == n).unwrap().1;
        assert_eq!(get("cache.hits"), Some(7.0));
        assert_eq!(get("diag.sync_p50_ms"), Some(1.5));
        assert_eq!(get("eject_lag_p90_ms"), Some(1.5));
        assert_eq!(get("diag.eject_lag_p90_ms"), None);
        assert_eq!(get("diag.req_per_s"), None);
    }

    #[test]
    fn result_line_is_one_json_object_with_the_four_keys() {
        let metrics: Named = vec![
            ("diag.hit_p50_us".to_string(), Some(1.2034)),
            ("diag.sync_p50_ms".to_string(), None),
        ];
        let line = result_line(true, 12, 0, &metrics);
        assert!(!line.contains('\n'));
        let doc: Value = serde_json::from_str(&line).unwrap();
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let hit = &doc["metrics"]["diag.hit_p50_us"];
        assert_eq!(hit["value"].as_f64(), Some(1.2034));
        assert_eq!(hit["unit"].as_str(), Some("us"));
        // The contract line has a number for every name; the record says null.
        assert_eq!(
            doc["metrics"]["diag.sync_p50_ms"]["value"].as_f64(),
            Some(0.0)
        );
        let record: Value =
            serde_json::from_str(record_line(&metrics).strip_prefix(RECORD_PREFIX).unwrap())
                .unwrap();
        assert!(record["diag.sync_p50_ms"].is_null());
        assert_eq!(record["diag.hit_p50_us"].as_f64(), Some(1.2034));
        // `attempted` is at least 1 even for a run that did nothing.
        assert_eq!(
            serde_json::from_str::<Value>(&result_line(false, 0, 0, &Vec::new())).unwrap()
                ["attempted"]
                .as_u64(),
            Some(1)
        );
    }
}
