//! CLI for the fuzz harness.
//!
//! ```text
//! harness smoke [--seeds N] [--actions M] [--out DIR]
//! harness soak  [--seeds N] [--actions M] [--out DIR] [--class NAME] [--markdown]
//! harness replay <file.json>
//! ```
//!
//! `smoke` is the CI gate: the acceptance matrix (≥50 seeds × ≥40 actions,
//! all three policies, workers {1,4}, every fault class), exit 1 on any
//! violation with the shrunk reproducer written next to the working
//! directory (or `--out`). `soak` is the long-running variant that also
//! prints the precision-per-policy-per-fault-class table. `replay` re-runs
//! a reproducer file and reports whether the violation still reproduces.

use cacheportal_harness::{markdown_table, sweep, FaultClass, Reproducer, SweepConfig, ALL_CLASSES};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: harness smoke [--seeds N] [--actions M] [--out DIR]\n\
         \x20      harness soak  [--seeds N] [--actions M] [--out DIR] [--class NAME] [--markdown]\n\
         \x20      harness replay <file.json>\n\
         fault classes: {}",
        ALL_CLASSES.map(|c| c.as_str()).join(", ")
    );
    ExitCode::from(2)
}

struct Opts {
    seeds: Option<u64>,
    actions: Option<usize>,
    out: PathBuf,
    class: Option<FaultClass>,
    markdown: bool,
}

fn parse_opts(args: &[String]) -> Option<Opts> {
    let mut opts = Opts {
        seeds: None,
        actions: None,
        out: PathBuf::from("."),
        class: None,
        markdown: false,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--seeds" => {
                opts.seeds = Some(args.get(i + 1)?.parse().ok()?);
                i += 2;
            }
            "--actions" => {
                opts.actions = Some(args.get(i + 1)?.parse().ok()?);
                i += 2;
            }
            "--out" => {
                opts.out = PathBuf::from(args.get(i + 1)?);
                i += 2;
            }
            "--class" => {
                opts.class = Some(FaultClass::parse(args.get(i + 1)?)?);
                i += 2;
            }
            "--markdown" => {
                opts.markdown = true;
                i += 1;
            }
            _ => return None,
        }
    }
    Some(opts)
}

fn run_sweep(opts: &Opts, defaults: SweepConfig, label: &str) -> ExitCode {
    let cfg = SweepConfig {
        seeds: opts.seeds.unwrap_or(defaults.seeds),
        actions: opts.actions.unwrap_or(defaults.actions),
        classes: match opts.class {
            Some(c) => vec![c],
            None => ALL_CLASSES.to_vec(),
        },
    };
    let total_actions = cfg.seeds as usize * cfg.actions;
    println!(
        "harness {label}: {} seeds x {} actions ({} total), classes: {}",
        cfg.seeds,
        cfg.actions,
        total_actions,
        cfg.classes.iter().map(|c| c.as_str()).collect::<Vec<_>>().join(",")
    );
    let outcome = sweep(&cfg, None);
    if let Some(repro) = outcome.failure {
        let path = opts
            .out
            .join(format!("harness-repro-seed{}.json", repro.scenario.seed));
        eprintln!("FAIL after {} clean runs: {}", outcome.runs, repro.violation);
        eprintln!(
            "shrunk to {} actions; reproducer: {}",
            repro.actions.len(),
            path.display()
        );
        if let Err(e) = std::fs::create_dir_all(&opts.out).and_then(|_| repro.save(&path)) {
            eprintln!("could not write reproducer: {e}");
        }
        // Replay the shrunk trace once more to capture the violation's
        // black box, written next to the reproducer so CI uploads both.
        if let Some(bundle) = repro.replay().flight_record {
            let fr_path = opts
                .out
                .join(format!("harness-repro-seed{}.flightrecord.json", repro.scenario.seed));
            match std::fs::write(&fr_path, bundle) {
                Ok(()) => eprintln!("flight record: {}", fr_path.display()),
                Err(e) => eprintln!("could not write flight record: {e}"),
            }
        }
        return ExitCode::FAILURE;
    }
    if opts.markdown {
        println!("\n{}", markdown_table(&outcome.cells));
    } else {
        for ((policy, class), agg) in &outcome.cells {
            let s = &agg.stats;
            println!(
                "  {policy:>12} / {class:<15} runs={:<3} syncs={:<5} ejected={:<5} \
                 over={:<4} fault_ejected={:<4} polls_faulted={:<4} lost={:<4} aborts={}",
                agg.runs,
                s.syncs,
                s.ejected,
                s.over_invalidations,
                s.fault_ejected,
                s.polls_faulted,
                s.records_lost,
                s.txn_aborts,
            );
        }
    }
    println!("OK: {} runs, zero staleness violations", outcome.runs);
    ExitCode::SUCCESS
}

fn replay(path: &str) -> ExitCode {
    let repro = match Reproducer::load(std::path::Path::new(path)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "replaying seed {} ({} tables, {} servlets, {} actions)\ncaptured violation: {}",
        repro.scenario.seed,
        repro.scenario.tables.len(),
        repro.scenario.servlets.len(),
        repro.actions.len(),
        repro.violation
    );
    let outcome = repro.replay();
    match outcome.violation {
        Some(v) => {
            println!("REPRODUCED: {v}");
            ExitCode::FAILURE
        }
        None => {
            println!("did NOT reproduce (fixed, or environment-dependent)");
            ExitCode::SUCCESS
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    match cmd.as_str() {
        "smoke" | "--smoke" => match parse_opts(&args[1..]) {
            Some(opts) => run_sweep(&opts, SweepConfig::smoke(), "smoke"),
            None => usage(),
        },
        "soak" => match parse_opts(&args[1..]) {
            Some(opts) => run_sweep(
                &opts,
                SweepConfig {
                    seeds: 200,
                    actions: 120,
                    classes: ALL_CLASSES.to_vec(),
                },
                "soak",
            ),
            None => usage(),
        },
        "replay" => match args.get(1) {
            Some(path) if args.len() == 2 => replay(path),
            _ => usage(),
        },
        _ => usage(),
    }
}
