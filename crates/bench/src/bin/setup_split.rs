//! `setup_split`: where `portal_load`'s set-up time goes, phase by phase.
//!
//! `portal_load` reports one set-up time per workload: build and fill the
//! storefront database, request every page once on the load threads, run
//! the first sync point. This binary repeats each workload's set-up, from
//! `portal_load`'s own `load::WORKLOADS` and `load::assemble`, and prints
//! the median of `--runs` runs of each phase:
//!
//! - `bulk`: `load::assemble` (DDL, the 8 000-row bulk load and the
//!   portal's assembly);
//! - `miss1` / `miss2`: every page requested once, on one client and on two,
//!   each against a freshly assembled portal;
//! - the first sync point after `miss2`, split into `map` (the mappers),
//!   `register` (the invalidator's registration), `persist` (the journal
//!   batch, durable workloads only) and `observe` (the rest of the call: the
//!   observer and the unstaged glue), with `sync` the whole call.
//!
//! The last columns are the mechanism ratios: `miss2 / miss1` (how the miss
//! path scales across clients) and the registration cost per page.
//!
//! ```text
//! cargo run --release -p cacheportal-bench --bin setup_split               # 15 runs
//! cargo run --release -p cacheportal-bench --bin setup_split -- --runs 5 --workload hot_read
//! cargo run --release -p cacheportal-bench --bin setup_split -- --smoke    # 1 run, CI
//! ```

// `portal_load`'s workload definitions and assembly, compiled in unchanged
// (with the modules they use), so the set-up split runs what the benchmark
// runs.
#[allow(dead_code)]
#[path = "portal_load/hist.rs"]
mod hist;
#[allow(dead_code)]
#[path = "portal_load/load.rs"]
mod load;
#[allow(dead_code)]
#[path = "portal_load/site.rs"]
mod site;
#[allow(dead_code)]
#[path = "portal_load/trace.rs"]
mod trace;

use cacheportal::web::Status;
use cacheportal::CachePortal;
use load::Workload;
use site::Page;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One run's phases, milliseconds.
#[derive(Clone, Copy, Default)]
struct Phases {
    bulk: f64,
    miss1: f64,
    miss2: f64,
    map: f64,
    register: f64,
    observe: f64,
    persist: f64,
    sync: f64,
}

const COLUMNS: [&str; 8] = [
    "bulk", "miss1", "miss2", "map", "register", "observe", "persist", "sync",
];

impl Phases {
    fn values(&self) -> [f64; 8] {
        [
            self.bulk,
            self.miss1,
            self.miss2,
            self.map,
            self.register,
            self.observe,
            self.persist,
            self.sync,
        ]
    }
}

fn ms(micros: u64) -> f64 {
    micros as f64 / 1e3
}

fn elapsed_ms(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e3
}

/// Request every page once on `clients` threads, least popular first, as
/// `portal_load`'s set-up does; milliseconds.
fn miss_all(portal: &CachePortal, pages: &[Page], clients: usize) -> f64 {
    let started = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..clients {
            scope.spawn(move || {
                for page in pages.iter().rev().skip(t).step_by(clients) {
                    let out = portal.request(&page.request);
                    assert_eq!(out.response.status, Status::Ok, "prefill of {}", page.key);
                }
            });
        }
    });
    elapsed_ms(started)
}

fn run_once(w: &Workload, seed: u64, pages: &[Page], scratch: &Path) -> Phases {
    let mut phases = Phases::default();
    // One client, on a portal of its own.
    {
        let started = Instant::now();
        let (portal, _edges) = load::assemble(w, seed, None);
        phases.bulk = elapsed_ms(started);
        phases.miss1 = miss_all(&portal, pages, 1);
    }
    // Two clients, then the first sync point, as the benchmark runs them.
    let dir = w.durable.then(|| scratch.join(w.name));
    if let Some(dir) = &dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    let (portal, edges) = load::assemble(w, seed, dir.as_deref());
    phases.miss2 = miss_all(&portal, pages, 2);
    let started = Instant::now();
    portal.sync_point().expect("first sync point");
    phases.sync = elapsed_ms(started);
    let timeline = portal.obs().timeline.recent(1);
    let stages = &timeline
        .last()
        .expect("the sync point is on the timeline")
        .stages;
    let stage = |name: &str| {
        stages
            .iter()
            .find(|s| s.name == name)
            .map_or(0, |s| s.micros)
    };
    phases.map = ms(stage("mapper"));
    phases.register = ms(stage("registration"));
    phases.persist = ms(stage("persist"));
    let staged: u64 = stages.iter().map(|s| s.micros).sum();
    phases.observe = (phases.sync - ms(staged)).max(0.0);
    drop((portal, edges));
    if let Some(dir) = &dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    phases
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

fn main() {
    let mut runs = 15usize;
    let mut seed = 1u64;
    let mut only: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| -> u64 {
            args.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("{name} takes a number"))
        };
        match flag.as_str() {
            "--runs" => runs = value("--runs").max(1) as usize,
            "--seed" => seed = value("--seed"),
            "--smoke" => runs = 1,
            "--workload" => only = args.next(),
            other => panic!(
                "unknown flag {other}; usage: setup_split [--runs N] [--seed S] [--workload W] [--smoke]"
            ),
        }
    }
    let scratch: PathBuf = std::env::temp_dir().join(format!("setup_split_{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("scratch directory");
    println!("setup_split seed={seed} runs={runs}: median milliseconds per phase");
    print!("{:<11}", "workload");
    for c in COLUMNS {
        print!("{c:>9}");
    }
    println!("{:>12}{:>14}", "miss2/miss1", "us/registered");
    for w in &load::WORKLOADS {
        if only.as_deref().is_some_and(|name| name != w.name) {
            continue;
        }
        let pages = w.pages(seed);
        let all: Vec<Phases> = (0..runs)
            .map(|_| run_once(w, seed, &pages, &scratch))
            .collect();
        let column = |i: usize| median(all.iter().map(|p| p.values()[i]).collect());
        print!("{:<11}", w.name);
        for i in 0..COLUMNS.len() {
            print!("{:>9.2}", column(i));
        }
        let ratio = median(all.iter().map(|p| p.miss2 / p.miss1).collect());
        let per_page = median(
            all.iter()
                .map(|p| p.register * 1e3 / pages.len() as f64)
                .collect(),
        );
        println!("{ratio:>12.2}{per_page:>14.2}");
    }
    let _ = std::fs::remove_dir_all(&scratch);
}
