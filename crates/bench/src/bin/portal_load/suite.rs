//! The full set: every workload in a fresh child process of this binary (so
//! `peak_rss_mb` and allocator state never leak between workloads), the
//! summary table, `target/portal_load/run.json`, and `--check-repeat`.

use crate::load::{self, WORKLOADS};
use crate::report::{Cell, END_TO_END, LAYERS, RECORD_PREFIX};
use crate::{Args, SCRATCH};
use serde_json::Value;
use std::process::{Command, Stdio};

/// Counts that should repeat exactly for a seed on the open-loop workloads.
pub const REPEATING_COUNTS: [&str; 3] = [
    "cache.misses",
    "invalidator.polls_issued",
    "invalidator.pages_ejected",
];

/// One child's parsed record and result lines.
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// Everything the child measured; `None` where it could not.
    metrics: Vec<(String, Option<f64>)>,
}

impl ChildResult {
    fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).and_then(|m| m.1)
    }
}

/// Run one workload in a child process and parse the last two lines it
/// prints: its record and the contract's result line.
fn child(workload: &str, args: &Args, swap_start: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &args.seed.to_string()])
        .args([
            "--seconds",
            &args.seconds.to_string(),
            "--trace",
            if args.trace { "1" } else { "0" },
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if swap_start {
        cmd.arg("--swap-start");
    }
    // `output` waits for the child to end before returning.
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start child for {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().rev();
    let parse = |line: Option<&str>, what: &str| -> Result<Value, String> {
        let line = line.ok_or_else(|| format!("{workload}: child printed no {what}"))?;
        serde_json::from_str(line).map_err(|e| format!("{workload}: bad {what}: {e}"))
    };
    let result = parse(lines.next(), "result line")?;
    let record = parse(
        lines.next().and_then(|l| l.strip_prefix(RECORD_PREFIX)),
        "record line",
    )?;
    let metrics = record
        .as_object()
        .ok_or_else(|| format!("{workload}: record line is not an object"))?
        .iter()
        .map(|(name, v)| (name.clone(), v.as_f64()))
        .collect();
    Ok(ChildResult {
        // A child that exits non-zero was not correct, whatever it printed.
        correct: result["correct"].as_bool().unwrap_or(false) && out.status.success(),
        attempted: result["attempted"].as_u64().unwrap_or(0),
        failed: result["failed"].as_u64().unwrap_or(0),
        metrics,
    })
}

/// One complete set: `(workload, its child's result)` in workload order.
type Set = Vec<(&'static str, ChildResult)>;

fn run_set(args: &Args, swap_start: bool) -> Result<Set, String> {
    let mut set = Vec::new();
    for w in &WORKLOADS {
        eprintln!(
            "portal_load: {} ({} s window{})",
            w.name,
            args.seconds,
            if args.trace { ", then traced" } else { "" }
        );
        set.push((w.name, child(w.name, args, swap_start)?));
    }
    Ok(set)
}

fn print_table(
    title: &str,
    set: &Set,
    rows: &[(String, &str)],
    cell: &dyn Fn(usize, &str) -> String,
) {
    println!("\n{title}");
    let width = rows.iter().map(|r| r.0.len()).max().unwrap_or(0);
    print!("  {:width$}  {:>6}", "metric", "unit");
    for (w, _) in set {
        print!("  {w:>15}");
    }
    println!();
    for (name, unit) in rows {
        print!("  {name:width$}  {unit:>6}");
        for w in 0..set.len() {
            print!("  {:>15}", cell(w, name));
        }
        println!();
    }
}

fn print_set(set: &Set, traced: bool) {
    let number = |v: Option<f64>| v.map_or("null".to_string(), |v| format!("{v:.4}"));
    let e2e: Vec<(String, &str)> = END_TO_END
        .iter()
        .map(|m| (m.name.to_string(), m.unit))
        .collect();
    print_table(
        "end-to-end metrics (untraced windows). Request metrics: median of 5 slices; sync, update and \
         eject lag: whole window; setup_s: median of 3 set-ups. `d` = diag. pair (reported, not gated), \
         `-` = the workload has no such operation",
        set,
        &e2e,
        &|w, name| {
            let m = END_TO_END
                .iter()
                .find(|m| m.name == name)
                .expect("a row of the table");
            match m.reported_as(w) {
                None => "-".to_string(),
                Some(reported) => format!(
                    "{}{}",
                    number(set[w].1.get(&reported)),
                    if m.cells[w] == Cell::Diag { "d" } else { " " }
                ),
            }
        },
    );
    let layers: Vec<(String, &str)> = LAYERS
        .iter()
        .filter(|m| traced || REPEATING_COUNTS.contains(&m.0))
        .map(|m| (m.0.to_string(), m.1))
        .collect();
    print_table(
        if traced {
            "per-layer metrics (traced windows and probes; null = not measurable on this workload)"
        } else {
            "counts of the untraced windows"
        },
        set,
        &layers,
        &|w, name| number(set[w].1.get(name)),
    );
    for (w, r) in set {
        println!(
            "{w}: correct={} attempted={} failed={}",
            r.correct, r.attempted, r.failed
        );
    }
}

fn set_json(set: &Set) -> Value {
    Value::Object(
        set.iter()
            .map(|(w, r)| {
                let metrics = r
                    .metrics
                    .iter()
                    .map(|(n, v)| (n.clone(), v.map_or(Value::Null, Value::Float)))
                    .collect();
                (
                    w.to_string(),
                    Value::Object(vec![
                        ("correct".to_string(), Value::Bool(r.correct)),
                        ("attempted".to_string(), Value::UInt(r.attempted)),
                        ("failed".to_string(), Value::UInt(r.failed)),
                        ("metrics".to_string(), Value::Object(metrics)),
                    ]),
                )
            })
            .collect(),
    )
}

/// Compare two sets metric by metric. Returns whether every gated pair is
/// within its bound.
fn compare(a: &Set, b: &Set) -> bool {
    println!("\nrepeatability: set 1 vs set 2 (reader/backend start order swapped)");
    println!(
        "  {:12} {:22} {:>14} {:>14} {:>8} {:>6}",
        "workload", "metric", "set 1", "set 2", "gap", "bound"
    );
    let mut ok = true;
    for (w, ((name, ra), (_, rb))) in a.iter().zip(b).enumerate() {
        for m in &END_TO_END {
            let Some(reported) = m.reported_as(w) else {
                continue;
            };
            let (Some(va), Some(vb)) = (ra.get(&reported), rb.get(&reported)) else {
                // A gated pair must be there to be compared.
                if m.cells[w] == Cell::Gated {
                    println!("  {name:12} {reported:22} missing from a set  EXCEEDED");
                    ok = false;
                }
                continue;
            };
            let gap = if va == vb {
                0.0
            } else {
                (va - vb).abs() / va.abs().max(f64::MIN_POSITIVE)
            };
            let gated = m.cells[w] == Cell::Gated;
            let exceeded = gap > m.bound;
            ok &= !(gated && exceeded);
            println!(
                "  {name:12} {reported:22} {va:>14.4} {vb:>14.4} {gap:>8.4} {:>6.2}  {}",
                m.bound,
                match (gated, exceeded) {
                    (true, true) => "EXCEEDED",
                    (true, false) => "ok",
                    (false, true) => "not gated (beyond the bound)",
                    (false, false) => "not gated",
                }
            );
        }
        if load::workload(name).is_some_and(|w| w.open_rate.is_some()) {
            for count in REPEATING_COUNTS {
                let (va, vb) = (ra.get(count).unwrap_or(0.0), rb.get(count).unwrap_or(0.0));
                // A count that does not repeat exactly is a diagnostic, not
                // a gate: it depends on which side of a sync point a request
                // lands, which the wall clock decides.
                let label = if va == vb {
                    count.to_string()
                } else {
                    format!("diag.{count}")
                };
                println!("  {name:12} {label:30} {va:>14.0} {vb:>14.0}");
            }
        }
    }
    ok
}

/// Entry point of the no-`--workload` modes. Returns whether everything
/// was correct (and, for `--check-repeat`, repeatable).
pub fn run(args: &Args) -> bool {
    println!(
        "portal_load full set: seed={} seconds={} smoke={} nproc={} clients={}",
        args.seed,
        args.seconds,
        args.smoke,
        load::nproc(),
        load::clients()
    );
    let mut sets = Vec::new();
    for pass in 0..if args.check_repeat { 2 } else { 1 } {
        match run_set(args, pass == 1) {
            Ok(set) => {
                print_set(&set, args.trace);
                sets.push(set);
            }
            Err(e) => {
                eprintln!("portal_load: {e}");
                return false;
            }
        }
    }
    let mut ok = sets.iter().flatten().all(|(_, r)| r.correct);
    if let [a, b] = sets.as_slice() {
        let repeatable = compare(a, b);
        if args.smoke {
            println!("smoke run: repeatability bounds not enforced");
        } else {
            ok &= repeatable;
        }
    }
    let doc = Value::Object(vec![
        (
            "benchmark".to_string(),
            Value::String("portal_load".to_string()),
        ),
        ("claim".to_string(), Value::Null),
        ("smoke".to_string(), Value::Bool(args.smoke)),
        ("seed".to_string(), Value::UInt(args.seed)),
        ("seconds".to_string(), Value::Float(args.seconds)),
        ("traced".to_string(), Value::Bool(args.trace)),
        ("nproc".to_string(), Value::UInt(load::nproc() as u64)),
        ("clients".to_string(), Value::UInt(load::clients() as u64)),
        (
            "sets".to_string(),
            Value::Array(sets.iter().map(set_json).collect()),
        ),
    ]);
    let path = std::path::Path::new(SCRATCH).join("run.json");
    let text = serde_json::to_string_pretty(&doc).expect("plain values serialize");
    match std::fs::create_dir_all(SCRATCH).and_then(|()| std::fs::write(&path, text + "\n")) {
        Ok(()) => println!(
            "\nrecord written to {} (\"smoke\": {})",
            path.display(),
            args.smoke
        ),
        Err(e) => eprintln!("portal_load: could not write {}: {e}", path.display()),
    }
    println!("portal_load: {}", if ok { "PASS" } else { "FAIL" });
    ok
}
