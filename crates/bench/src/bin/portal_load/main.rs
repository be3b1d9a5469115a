//! `portal_load`: the end-to-end load benchmark and layer budget of the
//! CachePortal reproduction. See `README.md` beside this file.
//!
//! ```text
//! portal_load --workload <name> --seed <n> --seconds <s> --trace <0|1>   one workload, one JSON result line
//! portal_load --seed <n> [--seconds <s>] [--trace] [--smoke]             all four, each in a child process
//! portal_load --seed <n> --check-repeat                                  two full sets, compared against the bounds
//! ```

mod hist;
mod layers;
mod load;
mod report;
mod site;
mod suite;
mod trace;

use load::{RunOptions, Workload};
use std::path::Path;
use std::time::Duration;

/// Where the benchmark writes: span files and the durable journal.
const SCRATCH: &str = "target/portal_load";
/// Set-ups per run; `setup_s` is their median (the builder's contract asks
/// for several, because one set-up time says little on a shared box).
const SETUPS: usize = 3;
/// Timed window of a full run, seconds (`run_seconds` in BENCHMARK.json).
const FULL_SECONDS: f64 = 10.0;

/// Parsed command line.
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    check_repeat: bool,
    swap_start: bool,
}

fn usage(problem: &str) -> ! {
    eprintln!("portal_load: {problem}");
    eprintln!(
        "usage: portal_load [--workload {}] --seed <u64> [--seconds <s>] [--trace [0|1]] \
         [--smoke] [--check-repeat]",
        load::WORKLOADS.map(|w| w.name).join("|")
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: FULL_SECONDS,
        trace: false,
        smoke: false,
        check_repeat: false,
        swap_start: false,
    };
    let mut seconds_given = false;
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| usage(&format!("{name} needs a value")))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value("--workload")),
            "--seed" => {
                args.seed = value("--seed")
                    .parse()
                    .unwrap_or_else(|_| usage("--seed takes a u64"))
            }
            "--seconds" => {
                args.seconds = value("--seconds")
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= 600.0)
                    .unwrap_or_else(|| usage("--seconds takes a number in (0, 600]"));
                seconds_given = true;
            }
            // `--trace 0|1` for the driver, bare `--trace` by hand.
            "--trace" => {
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => args.smoke = true,
            "--check-repeat" => args.check_repeat = true,
            "--swap-start" => args.swap_start = true,
            other => usage(&format!("unknown argument {other}")),
        }
    }
    if args.smoke && !seconds_given {
        args.seconds = 1.0;
    }
    args
}

/// Run one workload in this process and print its record and result lines.
/// Returns whether the run was correct.
///
/// Every run measures the end-to-end metrics in a window without tracing.
/// `--trace 1` then adds a second, span-recording window on a fresh portal
/// and the layer probes, and reports the per-layer list, so nothing a user
/// would see is ever measured with tracing on.
fn run_one(w: &'static Workload, args: &Args) -> bool {
    let clients = load::clients();
    let scratch = Path::new(SCRATCH);
    std::fs::create_dir_all(scratch).expect("scratch directory under target/");
    let pages = w.pages(args.seed);
    let w_index = load::WORKLOADS
        .iter()
        .position(|x| x.name == w.name)
        .expect("a workload of the table");
    println!(
        "portal_load workload={} ({}) seed={} seconds={} trace={} nproc={} clients={} readers={}",
        w.name,
        w.why,
        args.seed,
        args.seconds,
        args.trace as u8,
        load::nproc(),
        clients,
        w.readers(clients)
    );
    let opt = RunOptions {
        window: Duration::from_secs_f64(args.seconds),
        trace: false,
        swap_start: args.swap_start,
        clients,
    };

    let mut built = load::build(w, args.seed, &pages, clients, scratch);
    let run = load::run(w, args.seed, &built, &pages, opt);
    // Before the repeated set-ups and the traced part, so that it is the
    // peak of one warm site under load.
    let peak_rss_mb = load::peak_rss_mb();
    // Set-up time is its own metric: the first portal's and two more.
    let mut setups = vec![built.setup_s];
    while setups.len() < SETUPS {
        drop(built); // removes the old journal before the new portal opens it
        built = load::build(w, args.seed, &pages, clients, scratch);
        setups.push(built.setup_s);
    }
    let setup_s = hist::median(setups);

    // Workload invariant: a fully cached site with no updates serves every
    // request from the cache and never reaches the database.
    let (requests, hits, _) = report::request_totals(&run);
    let invariant_violations =
        (w.name == "hot_read" && (hits != requests || run.counters.db_selects != 0)) as u64;
    let (mut attempted, mut failed) = report::attempted_failed(&run, invariant_violations);
    let failed_frac = failed as f64 / attempted.max(1) as f64;
    let e2e = report::end_to_end(&run, setup_s, peak_rss_mb, failed_frac);
    let mut record = report::reported(w_index, &e2e);
    report::print_metrics("end-to-end metrics (untraced window)", &record);
    report::print_slices(&run);
    let (first, last) = report::backlog_first_last_ms(&run);
    println!(
        "counts: requests={requests} hits={hits} db.selects={} backlog_ms first/last slice={first:.3}/{last:.3}",
        run.counters.db_selects,
    );
    println!(
        "gate: pages_checked={} violations={} invariant_violations={invariant_violations}",
        run.check.pages_checked, run.check.violations
    );

    let layers = if args.trace {
        let mut traced = load::run(
            w,
            args.seed,
            &built,
            &pages,
            RunOptions { trace: true, ..opt },
        );
        let (traced_attempted, traced_failed) = report::attempted_failed(&traced, 0);
        attempted += traced_attempted;
        failed += traced_failed;
        let mut layers = report::live_layers(&traced);
        layers.extend(layers::probe(
            w,
            args.seed,
            &built,
            &pages,
            &mut traced,
            clients,
            scratch,
        ));
        // Every name of the table, in the table's order.
        report::LAYERS
            .iter()
            .map(|(name, _, _)| {
                (
                    *name,
                    layers.iter().find(|m| m.0 == *name).and_then(|m| m.1),
                )
            })
            .collect()
    } else {
        // The counts `--check-repeat` compares.
        report::live_layers(&run)
            .into_iter()
            .filter(|m| suite::REPEATING_COUNTS.contains(&m.0))
            .collect::<report::Metrics>()
    };
    let layers_named: report::Named = layers.iter().map(|m| (m.0.to_string(), m.1)).collect();
    if args.trace {
        report::print_metrics(
            "per-layer metrics (traced window and probes)",
            &layers_named,
        );
    } else {
        report::print_metrics("counts of the untraced window", &layers_named);
    }
    let result = report::contract_metrics(&record, args.trace.then_some(&layers));
    record.extend(layers_named);

    let correct = failed == 0 && requests > 0;
    println!("attempted={attempted} failed={failed}");
    println!("{}", report::record_line(&record));
    println!(
        "{}",
        report::result_line(correct, attempted, failed, &result)
    );
    correct
}

fn main() {
    let args = parse_args();
    let ok = match &args.workload {
        Some(name) => {
            let w =
                load::workload(name).unwrap_or_else(|| usage(&format!("unknown workload {name}")));
            run_one(w, &args)
        }
        None => suite::run(&args),
    };
    if !ok {
        std::process::exit(1);
    }
}
