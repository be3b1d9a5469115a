//! Sync-point scaling benchmark, in two modes:
//!
//! - `--qi-sweep`: a fixed update burst against a registered query-instance
//!   population that grows to one million, with the predicate index on and
//!   off over the byte-identical workload;
//! - `--shape-mix`: a mixed TopK / aggregate / conjunctive workload with the
//!   per-shape decision rules on and off.
//!
//! ```text
//! cargo run --release -p cacheportal-bench --bin sync_scale -- --qi-sweep           # full
//! cargo run --release -p cacheportal-bench --bin sync_scale -- --shape-mix --smoke  # CI
//! ```
//!
//! With no mode flag it prints its usage and exits non-zero.
//!
//! Appends one run record to the `BENCH_sync_scale.json` trajectory
//! (`{"history": [...]}`) in the working directory, so repeated runs keep
//! the perf history instead of overwriting it. A `--smoke` run appends to
//! `target/sync_scale/BENCH_sync_scale.json` instead, so checking the tree
//! leaves the tracked history as it was.

use cacheportal_db::Database;
use cacheportal_invalidator::{Invalidator, InvalidatorConfig};
use cacheportal_sniffer::QiUrlMap;
use cacheportal_web::PageKey;
use serde::Serialize;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::Instant;

/// Deterministic xorshift generator so both arms of a run replay the
/// byte-identical update burst (no `rand` needed in a bin target).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// The `p` quantile of an ascending slice (0 when empty).
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Append `artifact` to the run history: the tracked one for a full run, the
/// one under `target/sync_scale/` for a smoke run.
fn append_record<T: Serialize>(smoke: bool, artifact: &T) {
    let path = if smoke {
        std::fs::create_dir_all("target/sync_scale").expect("create target/sync_scale");
        "target/sync_scale/BENCH_sync_scale.json"
    } else {
        "BENCH_sync_scale.json"
    };
    let runs = cacheportal_bench::append_history(path, artifact).expect("write artifact");
    // How many runs the file holds depends on the checkout, not on this
    // run: it goes to stderr, so stdout compares across checkouts.
    println!("artifact: {path}");
    eprintln!("{path}: {runs} runs in history");
}

// ---------------------------------------------------------------------------
// Registered-QI sweep (`--qi-sweep`)
// ---------------------------------------------------------------------------
//
// The burst stays fixed while the number of *registered query instances*
// grows to one million, measuring whether per-sync latency tracks the
// number of instances the deltas can actually touch (predicate index) or
// the total registered population (linear scan). Each tier runs both arms — index on and
// `predicate_index: false` — over the byte-identical workload and asserts
// that their verdict/page fingerprints are equal: the index may only skip
// work, never change outcomes.

/// Shape of one `--qi-sweep` run.
struct SweepShape {
    tiers: &'static [usize],
    seed_rows: usize,
    syncs: usize,
    burst_rows: usize,
}

const SWEEP_FULL: SweepShape = SweepShape {
    tiers: &[10_000, 100_000, 1_000_000],
    seed_rows: 1_000,
    syncs: 6,
    burst_rows: 200,
};

const SWEEP_SMOKE: SweepShape = SweepShape {
    tiers: &[100, 1_000],
    seed_rows: 200,
    syncs: 3,
    burst_rows: 40,
};

/// Range/residual side-car query instances registered at every tier; they
/// keep every probe tier (equality, range, residual) exercised without
/// growing with `n`.
const SWEEP_RANGE_QIS: usize = 32;
const SWEEP_RESIDUAL_QIS: usize = 32;

/// Distinct `k` values the update burst draws from. Equality instances are
/// registered with params `0..n`, so at most this many can be candidates
/// per sync regardless of the tier — exactly the sublinearity the index is
/// supposed to deliver.
const SWEEP_KEYSPACE: u64 = 64;

/// What one (tier, arm) run produced.
#[derive(Debug, Serialize)]
struct SweepArm {
    index_enabled: bool,
    /// First sync point: consumes the whole QI/URL map (unmeasured in the
    /// latency columns; both arms pay the identical cost).
    registration_secs: f64,
    sync_p50_micros: u64,
    sync_p95_micros: u64,
    sync_max_micros: u64,
    /// Instances that went through the full per-instance decision.
    checked_instances: u64,
    index_candidates: u64,
    index_skipped: u64,
    index_residual_scanned: u64,
    index_size: u64,
    /// Digest of every verdict and ejected page across measured syncs;
    /// must match the other arm at the same tier.
    fingerprint: u64,
}

#[derive(Debug, Serialize)]
struct SweepTier {
    instances: usize,
    index: SweepArm,
    scan: SweepArm,
    fingerprints_match: bool,
    /// Scan-arm p95 divided by index-arm p95 at this tier.
    p95_speedup: f64,
}

#[derive(Serialize)]
struct SweepArtifact {
    mode: &'static str,
    smoke: bool,
    sync_points: usize,
    burst_rows: usize,
    tiers: Vec<SweepTier>,
}

/// Single wide table; every sweep query type reads it, so every sync's
/// delta batch makes all three types candidates.
fn sweep_db(shape: &SweepShape) -> Database {
    let mut db = Database::new();
    db.execute("CREATE TABLE sweep_item (id INT, k INT, v INT)")
        .unwrap();
    let mut rng = Rng(0x5eed_cafe);
    for id in 0..shape.seed_rows {
        let (k, v) = (rng.below(SWEEP_KEYSPACE), rng.below(1000));
        db.execute(&format!("INSERT INTO sweep_item VALUES ({id}, {k}, {v})"))
            .unwrap();
    }
    db
}

/// `n` equality instances (one type, `n` params), plus fixed-size range and
/// fully-residual populations. The residual type's `k + 0 = j` conjunct
/// parameterizes to `k + $1 = $2` — an arithmetic left-hand side the index
/// cannot classify — so it exercises the scan fallback on every sync.
fn sweep_map(n: usize) -> QiUrlMap {
    let map = QiUrlMap::new();
    for j in 0..n {
        map.insert(
            &format!("SELECT v FROM sweep_item WHERE sweep_item.k = {j}"),
            PageKey::raw(format!("page:eq{j}")),
            "sweepEq".into(),
        );
    }
    for b in 0..SWEEP_RANGE_QIS {
        map.insert(
            &format!(
                "SELECT id FROM sweep_item WHERE sweep_item.v < {}",
                b * 31 + 7
            ),
            PageKey::raw(format!("page:lt{b}")),
            "sweepRange".into(),
        );
    }
    for j in 0..SWEEP_RESIDUAL_QIS {
        map.insert(
            &format!("SELECT v FROM sweep_item WHERE sweep_item.k + 0 = {j}"),
            PageKey::raw(format!("page:res{j}")),
            "sweepResidual".into(),
        );
    }
    map
}

/// Resident set of this process, MiB (`VmRSS`); `None` off Linux.
fn vm_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib = status.lines().find_map(|l| l.strip_prefix("VmRSS:"))?;
    kib.trim().trim_end_matches("kB").trim().parse::<f64>().ok().map(|k| k / 1024.0)
}

/// Replay the sweep workload once at one tier with the index on or off.
/// All decisions are local (single-table conjuncts bind fully after tuple
/// substitution), so the numbers measure analysis cost, not polls.
fn run_sweep_arm(shape: &SweepShape, n: usize, use_index: bool) -> SweepArm {
    let mut db = sweep_db(shape);
    let rss_before = vm_rss_mib();
    let map = sweep_map(n);
    let mut inv = Invalidator::new(InvalidatorConfig {
        predicate_index: use_index,
        ..InvalidatorConfig::default()
    });
    inv.start_from(db.high_water());

    // Registration sync: no log records yet, so this consumes the map and
    // returns before analysis. Subsequent syncs see an empty cursor.
    let reg_started = Instant::now();
    inv.run_sync_point(&db, &map).unwrap();
    let registration_secs = reg_started.elapsed().as_secs_f64();
    // What the tier's map, registry and predicate index hold, on record
    // (stdout only: the artifact's schema is pinned). The first arm of the
    // first tier starts from a fresh heap; later ones from what the
    // allocator kept of the arms before.
    if let (Some(before), Some(after)) = (rss_before, vm_rss_mib()) {
        println!(
            "  qi={:>9} ({} arm): VmRSS {before:.1} -> {after:.1} MiB over map + registration",
            n + SWEEP_RANGE_QIS + SWEEP_RESIDUAL_QIS,
            if use_index { "index" } else { "scan" },
        );
    }

    let mut rng = Rng(0xbeef_f00d);
    let mut next_id = shape.seed_rows as i64;
    let mut sync_micros: Vec<u64> = Vec::with_capacity(shape.syncs);
    let mut hasher = DefaultHasher::new();
    let mut checked = 0u64;
    let mut candidates = 0u64;
    let mut skipped = 0u64;
    let mut residual = 0u64;
    let mut index_size = 0u64;

    // One warmup burst+sync (unmeasured) so allocator/cache effects do not
    // land on the first measured point, then `shape.syncs` measured syncs.
    for measured in 0..=shape.syncs {
        for _ in 0..shape.burst_rows {
            let (k, v) = (rng.below(SWEEP_KEYSPACE), rng.below(1000));
            db.execute(&format!("INSERT INTO sweep_item VALUES ({next_id}, {k}, {v})"))
                .unwrap();
            next_id += 1;
        }
        let t0 = Instant::now();
        let report = inv.run_sync_point(&db, &map).unwrap();
        let micros = t0.elapsed().as_micros() as u64;
        db.update_log_mut().truncate(inv.consumed_lsn());
        if measured == 0 {
            continue;
        }
        sync_micros.push(micros);
        for v in &report.verdicts {
            v.type_sql.hash(&mut hasher);
            format!("{:?}", v.params).hash(&mut hasher);
            v.cause.kind.as_str().hash(&mut hasher);
            let mut pages: Vec<&str> = v.pages.iter().map(|p| p.as_str()).collect();
            pages.sort_unstable();
            pages.hash(&mut hasher);
        }
        let mut pages: Vec<&str> = report.pages.iter().map(|p| p.as_str()).collect();
        pages.sort_unstable();
        pages.hash(&mut hasher);
        checked += report.checked_instances;
        candidates += report.index_candidates;
        skipped += report.index_skipped;
        residual += report.index_residual_scanned;
        index_size = report.index_size;
    }

    sync_micros.sort_unstable();
    SweepArm {
        index_enabled: use_index,
        registration_secs,
        sync_p50_micros: percentile(&sync_micros, 0.50),
        sync_p95_micros: percentile(&sync_micros, 0.95),
        sync_max_micros: *sync_micros.last().unwrap_or(&0),
        checked_instances: checked,
        index_candidates: candidates,
        index_skipped: skipped,
        index_residual_scanned: residual,
        index_size,
        fingerprint: hasher.finish(),
    }
}

/// Run both arms at one tier and check the soundness contract: identical
/// verdict/page fingerprints with and without the index.
fn run_sweep_tier(shape: &SweepShape, n: usize) -> SweepTier {
    let index = run_sweep_arm(shape, n, true);
    let scan = run_sweep_arm(shape, n, false);
    let fingerprints_match = index.fingerprint == scan.fingerprint;
    let p95_speedup = scan.sync_p95_micros as f64 / index.sync_p95_micros.max(1) as f64;
    SweepTier {
        instances: n + SWEEP_RANGE_QIS + SWEEP_RESIDUAL_QIS,
        index,
        scan,
        fingerprints_match,
        p95_speedup,
    }
}

fn run_qi_sweep(smoke: bool) {
    let shape: &SweepShape = if smoke { &SWEEP_SMOKE } else { &SWEEP_FULL };
    println!(
        "sync_scale qi-sweep{}: tiers {:?}, {} measured syncs, burst {} rows",
        if smoke { " (smoke)" } else { "" },
        shape.tiers,
        shape.syncs,
        shape.burst_rows
    );

    let mut tiers: Vec<SweepTier> = Vec::new();
    for &n in shape.tiers {
        let tier = run_sweep_tier(shape, n);
        println!(
            "  qi={:>9}: index p95={:>8}us (checked {} skipped {})  scan p95={:>8}us (checked {})  \
             speedup {:.1}x  fingerprints {}",
            tier.instances,
            tier.index.sync_p95_micros,
            tier.index.checked_instances,
            tier.index.index_skipped,
            tier.scan.sync_p95_micros,
            tier.scan.checked_instances,
            tier.p95_speedup,
            if tier.fingerprints_match { "match" } else { "DIVERGE" },
        );
        assert!(
            tier.fingerprints_match,
            "index and scan arms disagree at {} instances: {tier:?}",
            tier.instances
        );
        tiers.push(tier);
    }

    // Acceptance gate (full run only; smoke tiers are too small for stable
    // percentiles): with the index on, p95 at the largest tier must stay
    // within 2x of the smallest tier — i.e. per-sync cost tracks the
    // touched set, not the registered population.
    if !smoke {
        let first = tiers.first().unwrap().index.sync_p95_micros;
        let last = tiers.last().unwrap().index.sync_p95_micros;
        assert!(
            last <= first.saturating_mul(2),
            "indexed p95 grew with population: {last}us at largest tier vs {first}us at smallest"
        );
        println!("  flatness: indexed p95 {last}us at 1M vs {first}us at 10k (<= 2x)");
    }

    let artifact = SweepArtifact {
        mode: "qi_sweep",
        smoke,
        sync_points: shape.syncs,
        burst_rows: shape.burst_rows,
        tiers,
    };
    append_record(smoke, &artifact);
}

// ---------------------------------------------------------------------------
// Shape-mix precision benchmark (`--shape-mix`)
// ---------------------------------------------------------------------------
//
// Measures what the shape-aware decision rules buy: the same deterministic
// workload — below-boundary inserts, value-preserving touches, and the
// occasional genuinely-invalidating high insert — replayed through two
// invalidators, shape rules on and off. Per shape (conjunctive / top-k /
// aggregate / LIKE / IN) the run records how many page ejects each arm
// produced and asserts the precision contract: the on-arm ejects a strict
// subset overall, with a strict reduction on top-k and aggregate pages and
// byte-identical ejects on conjunctive/LIKE/IN pages (index tiers may only
// skip work, never change verdicts).

/// Shape of one `--shape-mix` run.
struct MixShape {
    /// Groups `0..groups`; the lower half takes inserts, the upper half
    /// takes touches only, so upper-group aggregate pages are provably
    /// value-preserved every sync.
    groups: i64,
    syncs: usize,
    /// Below-boundary inserts per lower group per sync (`v < 100`, far
    /// under the seeded top-3 boundary of 900+).
    low_inserts: usize,
    /// Delete-then-reinsert of an existing low-value upper-group row per
    /// sync: net-zero for every aggregate, outside every top-k.
    touches: usize,
}

const MIX_FULL: MixShape = MixShape {
    groups: 8,
    syncs: 12,
    low_inserts: 6,
    touches: 10,
};

const MIX_SMOKE: MixShape = MixShape {
    groups: 4,
    syncs: 3,
    low_inserts: 2,
    touches: 3,
};

/// Per-group seed: three high rows (v in 900..1000) to pin the top-3
/// boundary plus low filler rows the touches can pick from.
const MIX_HIGH_SEED: usize = 3;
const MIX_LOW_SEED: usize = 6;

/// Eject counts bucketed by query shape (via page-key prefix).
#[derive(Debug, Default, Serialize, PartialEq, Eq)]
struct ShapeEjects {
    conjunctive: u64,
    topk: u64,
    aggregate: u64,
    like: u64,
    inlist: u64,
}

impl ShapeEjects {
    fn count(&mut self, page: &str) {
        match page.split(':').next().unwrap_or("") {
            "conj" => self.conjunctive += 1,
            "topk" => self.topk += 1,
            "agg" => self.aggregate += 1,
            "like" => self.like += 1,
            "in" => self.inlist += 1,
            _ => {}
        }
    }
}

/// What one (shape-rules on/off) arm produced.
#[derive(Debug, Serialize)]
struct MixArm {
    shape_rules: bool,
    sync_p50_micros: u64,
    sync_p95_micros: u64,
    pages_ejected: u64,
    ejects: ShapeEjects,
    shape_topk_skipped: u64,
    shape_agg_skipped: u64,
    shape_boundary_polls: u64,
}

/// Per-shape precision comparison row.
#[derive(Serialize)]
struct ShapeRecord {
    shape: &'static str,
    ejects_on: u64,
    ejects_off: u64,
    /// 1 - on/off: the fraction of conservative ejects the shape rules
    /// proved unnecessary (0 for shapes without a decision rule).
    over_invalidation_reduction: f64,
}

#[derive(Serialize)]
struct MixArtifact {
    mode: &'static str,
    smoke: bool,
    sync_points: usize,
    groups: i64,
    on: MixArm,
    off: MixArm,
    shapes: Vec<ShapeRecord>,
}

fn mix_db(shape: &MixShape, rows: &mut Vec<(i64, i64, i64)>) -> Database {
    let mut db = Database::new();
    db.execute("CREATE TABLE mix_item (id INT, g INT, v INT, s TEXT, INDEX(g))")
        .unwrap();
    let mut rng = Rng(0x5eed_cafe);
    let mut id = 0i64;
    for g in 0..shape.groups {
        for i in 0..(MIX_HIGH_SEED + MIX_LOW_SEED) {
            let v = if i < MIX_HIGH_SEED {
                900 + rng.below(100) as i64
            } else {
                rng.below(300) as i64
            };
            db.execute(&format!("INSERT INTO mix_item VALUES ({id}, {g}, {v}, 's{v}')"))
                .unwrap();
            rows.push((id, g, v));
            id += 1;
        }
    }
    db
}

/// One registered instance per shape per group (plus one LIKE instance per
/// leading digit). Page keys are prefixed with the shape so ejects can be
/// bucketed.
fn mix_map(shape: &MixShape) -> QiUrlMap {
    let map = QiUrlMap::new();
    for g in 0..shape.groups {
        map.insert(
            &format!("SELECT v FROM mix_item WHERE mix_item.g = {g}"),
            PageKey::raw(format!("conj:{g}")),
            "mixConj".into(),
        );
        map.insert(
            &format!("SELECT id, v FROM mix_item WHERE g = {g} ORDER BY v DESC LIMIT 3"),
            PageKey::raw(format!("topk:{g}")),
            "mixTopK".into(),
        );
        map.insert(
            &format!("SELECT COUNT(*), SUM(v) FROM mix_item WHERE g = {g}"),
            PageKey::raw(format!("agg:{g}")),
            "mixAgg".into(),
        );
        map.insert(
            &format!(
                "SELECT id FROM mix_item WHERE g IN ({g}, {}, 99) ORDER BY id",
                (g + 1) % shape.groups
            ),
            PageKey::raw(format!("in:{g}")),
            "mixIn".into(),
        );
    }
    for d in 0..10 {
        map.insert(
            &format!("SELECT id FROM mix_item WHERE s LIKE 's{d}%' ORDER BY id"),
            PageKey::raw(format!("like:{d}")),
            "mixLike".into(),
        );
    }
    map
}

/// Replay the mix workload once with shape rules on or off. Returns the
/// arm summary plus the sorted ejected-page list of every sync, so the
/// caller can check on ⊆ off sync-by-sync.
fn run_shape_mix_arm(shape: &MixShape, shape_rules: bool) -> (MixArm, Vec<Vec<String>>) {
    let mut rows: Vec<(i64, i64, i64)> = Vec::new();
    let mut db = mix_db(shape, &mut rows);
    let map = mix_map(shape);
    let mut inv = Invalidator::new(InvalidatorConfig {
        shape_rules,
        ..InvalidatorConfig::default()
    });
    inv.start_from(db.high_water());
    inv.run_sync_point(&db, &map).unwrap();

    let mut rng = Rng(0xbeef_f00d);
    let mut next_id = rows.len() as i64;
    let half = shape.groups / 2;
    let mut sync_micros: Vec<u64> = Vec::with_capacity(shape.syncs);
    let mut arm = MixArm {
        shape_rules,
        sync_p50_micros: 0,
        sync_p95_micros: 0,
        pages_ejected: 0,
        ejects: ShapeEjects::default(),
        shape_topk_skipped: 0,
        shape_agg_skipped: 0,
        shape_boundary_polls: 0,
    };
    let mut per_sync: Vec<Vec<String>> = Vec::with_capacity(shape.syncs);

    for sync in 0..shape.syncs {
        // Below-boundary inserts into the lower groups.
        for g in 0..half {
            for _ in 0..shape.low_inserts {
                let v = rng.below(100) as i64;
                db.execute(&format!(
                    "INSERT INTO mix_item VALUES ({next_id}, {g}, {v}, 's{v}')"
                ))
                .unwrap();
                rows.push((next_id, g, v));
                next_id += 1;
            }
        }
        // Value-preserving touches of low upper-group rows.
        let candidates: Vec<(i64, i64, i64)> = rows
            .iter()
            .filter(|(_, g, v)| *g >= half && *v < 300)
            .cloned()
            .collect();
        for _ in 0..shape.touches {
            let (id, g, v) = candidates[rng.below(candidates.len() as u64) as usize];
            db.execute(&format!("DELETE FROM mix_item WHERE id = {id}"))
                .unwrap();
            db.execute(&format!("INSERT INTO mix_item VALUES ({id}, {g}, {v}, 's{v}')"))
                .unwrap();
        }
        // One genuinely-invalidating high insert, rotating over the lower
        // groups: enters the top-3 and moves the aggregates, so both arms
        // must eject — keeps the safety side of the comparison honest.
        let g = (sync as i64) % half.max(1);
        let v = 1500 + rng.below(100) as i64;
        db.execute(&format!(
            "INSERT INTO mix_item VALUES ({next_id}, {g}, {v}, 's{v}')"
        ))
        .unwrap();
        rows.push((next_id, g, v));
        next_id += 1;

        let t0 = Instant::now();
        let report = inv.run_sync_point(&db, &map).unwrap();
        sync_micros.push(t0.elapsed().as_micros() as u64);
        db.update_log_mut().truncate(inv.consumed_lsn());

        let mut pages: Vec<String> = report.pages.iter().map(|p| p.as_str().to_string()).collect();
        pages.sort_unstable();
        for p in &pages {
            arm.ejects.count(p);
        }
        arm.pages_ejected += pages.len() as u64;
        per_sync.push(pages);
        arm.shape_topk_skipped += report.shape_topk_skipped;
        arm.shape_agg_skipped += report.shape_agg_skipped;
        arm.shape_boundary_polls += report.shape_boundary_polls;
    }

    sync_micros.sort_unstable();
    arm.sync_p50_micros = percentile(&sync_micros, 0.50);
    arm.sync_p95_micros = percentile(&sync_micros, 0.95);
    (arm, per_sync)
}

fn reduction(on: u64, off: u64) -> f64 {
    if off == 0 {
        0.0
    } else {
        1.0 - on as f64 / off as f64
    }
}

/// Run both arms, enforce the precision contract, and append the per-shape
/// comparison to the artifact history.
fn run_shape_mix_arms(shape: &MixShape, smoke: bool) -> MixArtifact {
    let (on, on_pages) = run_shape_mix_arm(shape, true);
    let (off, off_pages) = run_shape_mix_arm(shape, false);

    // on ⊆ off at every sync point: shape rules may only keep pages cached.
    for (i, (a, b)) in on_pages.iter().zip(&off_pages).enumerate() {
        for p in a {
            assert!(
                b.contains(p),
                "precision violated at sync {i}: shape-on ejected {p} but shape-off kept it"
            );
        }
    }
    // Strict improvement on the shapes with decision rules...
    assert!(
        on.ejects.topk < off.ejects.topk,
        "no top-k precision win: on {} vs off {}",
        on.ejects.topk,
        off.ejects.topk
    );
    assert!(
        on.ejects.aggregate < off.ejects.aggregate,
        "no aggregate precision win: on {} vs off {}",
        on.ejects.aggregate,
        off.ejects.aggregate
    );
    // ...and byte-identical verdicts everywhere else: LIKE/IN are index
    // tiers (skip work, never change outcomes), conjunctive is untouched.
    assert_eq!(
        (on.ejects.conjunctive, on.ejects.like, on.ejects.inlist),
        (off.ejects.conjunctive, off.ejects.like, off.ejects.inlist),
        "shapes without decision rules must eject identically"
    );
    assert!(on.shape_topk_skipped > 0 && on.shape_agg_skipped > 0);
    assert_eq!(off.shape_topk_skipped + off.shape_agg_skipped, 0);

    let shapes = vec![
        ShapeRecord {
            shape: "conjunctive",
            ejects_on: on.ejects.conjunctive,
            ejects_off: off.ejects.conjunctive,
            over_invalidation_reduction: reduction(on.ejects.conjunctive, off.ejects.conjunctive),
        },
        ShapeRecord {
            shape: "topk",
            ejects_on: on.ejects.topk,
            ejects_off: off.ejects.topk,
            over_invalidation_reduction: reduction(on.ejects.topk, off.ejects.topk),
        },
        ShapeRecord {
            shape: "aggregate",
            ejects_on: on.ejects.aggregate,
            ejects_off: off.ejects.aggregate,
            over_invalidation_reduction: reduction(on.ejects.aggregate, off.ejects.aggregate),
        },
        ShapeRecord {
            shape: "like",
            ejects_on: on.ejects.like,
            ejects_off: off.ejects.like,
            over_invalidation_reduction: reduction(on.ejects.like, off.ejects.like),
        },
        ShapeRecord {
            shape: "inlist",
            ejects_on: on.ejects.inlist,
            ejects_off: off.ejects.inlist,
            over_invalidation_reduction: reduction(on.ejects.inlist, off.ejects.inlist),
        },
    ];
    MixArtifact {
        mode: "shape_mix",
        smoke,
        sync_points: shape.syncs,
        groups: shape.groups,
        on,
        off,
        shapes,
    }
}

fn run_shape_mix(smoke: bool) {
    let shape: &MixShape = if smoke { &MIX_SMOKE } else { &MIX_FULL };
    println!(
        "sync_scale shape-mix{}: {} groups, {} sync points",
        if smoke { " (smoke)" } else { "" },
        shape.groups,
        shape.syncs
    );
    let artifact = run_shape_mix_arms(shape, smoke);
    for r in &artifact.shapes {
        println!(
            "  {:>11}: on={:>4} off={:>4}  over-invalidation cut {:>5.1}%",
            r.shape,
            r.ejects_on,
            r.ejects_off,
            r.over_invalidation_reduction * 100.0
        );
    }
    println!(
        "  shape-on skips: topk={} agg={} (boundary polls {})",
        artifact.on.shape_topk_skipped,
        artifact.on.shape_agg_skipped,
        artifact.on.shape_boundary_polls
    );
    append_record(smoke, &artifact);
}

const USAGE: &str = "usage: sync_scale (--qi-sweep | --shape-mix) [--smoke]";

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    if args.iter().any(|a| a == "--qi-sweep") {
        run_qi_sweep(smoke);
    } else if args.iter().any(|a| a == "--shape-mix") {
        run_shape_mix(smoke);
    } else {
        eprintln!("{USAGE}");
        return std::process::ExitCode::FAILURE;
    }
    std::process::ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The smoke shape-mix run must uphold the full precision contract:
    /// on ⊆ off per sync, strict wins on top-k and aggregate, identical
    /// ejects elsewhere (all asserted inside `run_shape_mix_arms`).
    #[test]
    fn shape_mix_smoke_shows_strict_precision_win() {
        let artifact = run_shape_mix_arms(&MIX_SMOKE, true);
        assert!(artifact.on.pages_ejected < artifact.off.pages_ejected);
        assert!(artifact.on.shape_boundary_polls > 0);
    }

    /// A tiny qi-sweep tier: the two arms must agree bit-for-bit on
    /// verdicts/pages while the index arm demonstrably skips work.
    #[test]
    fn qi_sweep_arms_agree_and_index_skips() {
        let shape = SweepShape {
            tiers: &[64],
            seed_rows: 50,
            syncs: 2,
            burst_rows: 20,
        };
        let tier = run_sweep_tier(&shape, 64);
        assert!(
            tier.fingerprints_match,
            "index and scan arms diverged: {tier:?}"
        );
        assert!(
            tier.index.index_skipped > 0,
            "index arm skipped nothing: {tier:?}"
        );
        assert!(
            tier.index.checked_instances < tier.scan.checked_instances,
            "index arm checked no fewer instances: {tier:?}"
        );
    }
}
